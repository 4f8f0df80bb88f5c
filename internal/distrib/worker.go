package distrib

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/memwatch"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sat"
)

// liveProgressEvery is the conflict cadence at which a worker's solver
// instances snapshot their statistics for heartbeat live progress.
const liveProgressEvery = 200

// WorkerOptions configures a worker process.
type WorkerOptions struct {
	// Name identifies the worker in the coordinator's health registry.
	Name string
	// Cores is the number of solver instances per job (default 1).
	Cores int
	// MaxReconnects is how many consecutive failed connection cycles the
	// worker tolerates before giving up; the counter resets whenever a
	// connection completes at least one job. 0 disables reconnection:
	// the first connection loss ends the call.
	MaxReconnects int
	// ReconnectBackoff is the base delay between reconnect attempts
	// (default 250ms), doubled per consecutive failure, capped at 10s,
	// with up to 50% seeded jitter added.
	ReconnectBackoff time.Duration
	// ReconnectTimeout is the total wall-clock retry budget for one
	// outage: once connectivity is first lost, the worker must complete
	// a job within this window or give up with an error. It caps the
	// whole retry loop — failed dials, standby contacts, and backoff
	// sleeps all count — where MaxReconnects only counts failed cycles.
	// The window resets every time a job completes. 0 means no budget.
	ReconnectTimeout time.Duration
	// MemLimitBytes arms the worker's OOM watchdog: while a job runs,
	// the live heap is sampled and, at MemTripFraction of this limit, the
	// job is cancelled (its span records the trip as mem_trip) and its
	// template dropped, instead of the process being OOM-killed; the
	// coordinator re-queues the cube. 0 inherits the runtime's soft memory
	// limit (GOMEMLIMIT); if neither is set the watchdog is inert.
	MemLimitBytes int64
	// MemTripFraction is the fill fraction at which the watchdog trips
	// (default 0.9 — the abort path needs allocation headroom to run).
	MemTripFraction float64
	// Faults, when non-nil, injects deterministic failures for tests —
	// see FaultPlan.
	Faults *FaultPlan
	// Tracer, when non-nil, emits the worker's spans (job, template
	// restore, solve, certify) to its sink — typically a JSONL file that
	// later merges with the coordinator's via `parbmc report`. Independent of
	// it, a job carrying a TraceID always collects its spans in memory
	// and ships them back on the result, so the coordinator's run report
	// is complete even when workers write no local trace file.
	Tracer *obs.Tracer
}

// worker is the state shared across one Work call's connections.
type worker struct {
	opts WorkerOptions
	jobs int // global job index across reconnects (drives the FaultPlan)
	// maxEpoch is the highest coordinator lease epoch served so far; a
	// coordinator presenting a lower one is a deposed primary and is
	// refused (the split-brain fence).
	maxEpoch int64
	// run is the template of the one run this worker holds, the last it
	// had a job of: across jobs, reconnects and a failover to a standby
	// that sends the same bytes. Only the job goroutine touches it, and
	// jobs do not overlap.
	run *heldRun
	// shipped is the run's template as this connection's coordinator sent
	// it, ahead of the first job; nil until then.
	shipped *shippedTemplate
}

// Work connects to the coordinator(s) at addr — a single address, or a
// comma-separated primary,standby list — and processes jobs until a
// coordinator sends stop or ctx is cancelled. If MaxReconnects is set,
// a lost connection is retried with exponential backoff and jitter,
// rotating through the addresses; the job counter (and therefore the
// fault plan) continues across reconnects. Reaching a coordinator that
// answers as standby is not a failure: the worker rotates on without
// charging its reconnect budget, so during a failover it keeps probing
// both endpoints until one of them holds the lease (bounded only by
// ReconnectTimeout). It returns the total number of jobs completed.
func Work(ctx context.Context, addr string, opts WorkerOptions) (int, error) {
	if opts.Cores == 0 {
		opts.Cores = 1
	}
	if opts.ReconnectBackoff == 0 {
		opts.ReconnectBackoff = 250 * time.Millisecond
	}
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return 0, fmt.Errorf("distrib: worker needs at least one coordinator address")
	}
	w := &worker{opts: opts}
	rng := opts.Faults.jitter()
	total := 0
	failures := 0
	target := 0
	var outageStart time.Time // first failed cycle of the current outage
	for {
		n, stopped, err := w.session(ctx, addrs[target%len(addrs)])
		total += n
		if stopped {
			return total, nil
		}
		if ctx.Err() != nil {
			return total, ctx.Err()
		}
		if opts.MaxReconnects <= 0 {
			return total, err
		}
		if n > 0 {
			failures = 0
			outageStart = time.Time{}
		}
		if outageStart.IsZero() {
			outageStart = time.Now()
		}
		if opts.ReconnectTimeout > 0 && time.Since(outageStart) >= opts.ReconnectTimeout {
			return total, fmt.Errorf("distrib: worker reconnect budget %v exhausted: %w",
				opts.ReconnectTimeout, err)
		}
		target++ // try the next coordinator in the list
		var delay time.Duration
		if errors.Is(err, errStandby) {
			// The coordinator is alive but not the leader; during a
			// failover this resolves within one lease TTL, so probe at
			// the flat base cadence instead of backing off.
			delay = opts.ReconnectBackoff
		} else {
			failures++
			if failures > opts.MaxReconnects {
				return total, fmt.Errorf("distrib: worker giving up after %d reconnect attempts: %w",
					opts.MaxReconnects, err)
			}
			delay = backoffDelay(opts.ReconnectBackoff, failures, rng)
		}
		if !sleepCtx(ctx, delay) {
			return total, ctx.Err()
		}
	}
}

// backoffDelay is base·2^(attempt-1) capped at 10s, plus up to 50%
// jitter from rng so reconnecting workers do not stampede in lockstep.
func backoffDelay(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < 10*time.Second; i++ {
		d *= 2
	}
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// session runs one connection: dial, hello, then jobs until stop or
// error. stopped is true only for a clean coordinator-initiated stop.
func (w *worker) session(ctx context.Context, addr string) (jobs int, stopped bool, err error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, false, fmt.Errorf("distrib: worker dial: %w", err)
	}
	wc := newConn(c, 30*time.Second)
	defer wc.close()
	// Cancellation: closing the connection unblocks recv.
	defer context.AfterFunc(ctx, wc.close)()
	w.shipped = nil // a template is a connection's: this one sends its own

	if err := wc.send(&Message{Type: "hello", WorkerName: w.opts.Name}); err != nil {
		return 0, false, err
	}
	// A dedicated reader pump owns the socket's read side for the whole
	// session, so the main loop can keep consuming messages while a job
	// runs — that is what lets a mid-job "cancel" interrupt the solvers
	// instead of waiting in the TCP buffer behind a long solve.
	msgs, stop := make(chan recvRes), make(chan struct{})
	defer close(stop)
	go func() {
		for {
			m, err := wc.recv(0)
			select {
			case msgs <- recvRes{m, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for {
		r := <-msgs
		if r.err != nil {
			return jobs, false, r.err
		}
		m := r.m
		switch m.Type {
		case "welcome":
			// The coordinator announces its role and lease epoch before
			// any job. (A coordinator predating the handshake sends jobs
			// directly; that is still accepted.)
			if m.Role == RoleStandby {
				return jobs, false, errStandby
			}
			if err := w.checkEpoch(m.Epoch); err != nil {
				return jobs, false, err
			}
		case "stop":
			return jobs, true, nil
		case "cancel":
			// A cancel for a job whose result already went out (the
			// supersession race resolved on the wire): nothing to do.
		case "job":
			if err := w.serveJob(ctx, wc, msgs, m); err != nil {
				return jobs, false, err
			}
			jobs++
		default:
			return jobs, false, fmt.Errorf("distrib: unexpected message %q", m.Type)
		}
	}
}

// recvRes is one read off the session's connection.
type recvRes struct {
	m   *Message
	err error
}

// serveJob runs one job of a session and sends its result and
// certificate; an error ends the session.
func (w *worker) serveJob(ctx context.Context, wc *conn, msgs <-chan recvRes, jm *Message) error {
	if err := w.checkEpoch(jm.Epoch); err != nil {
		return err
	}
	if jm.TemplateSize != 0 {
		// The run's template follows the connection's first job. One that
		// is oversized, cut short or out of sequence ends the connection:
		// no job is solved on part of a template.
		data, err := readChunks(func() (*Message, error) { r := <-msgs; return r.m, r.err },
			"template", jm.JobID, jm.TemplateSize, maxTemplateBytes)
		if err != nil {
			return fmt.Errorf("distrib: the run's template: %w", err)
		}
		w.shipped = &shippedTemplate{data: data, sum: sha256.Sum256(data)}
	}
	idx := w.jobs
	w.jobs++
	f := w.opts.Faults.eventAt(idx)
	if f != nil && f.Kind == FaultHalfOpen {
		// From here the TCP connection stays up but everything
		// this worker sends — heartbeats and results alike —
		// silently vanishes. Only the coordinator's heartbeat
		// grace can notice; it evicts the conn, and the worker's
		// next read fails, ending the session normally.
		wc.mute(true)
		f = nil
	}
	if f != nil && f.Kind.transport() {
		done, ferr := w.inject(ctx, wc, f)
		if done {
			return ferr
		}
		f = nil // a stall falls through: the job still runs, late and honestly
	}
	// The job runs under its own cancellable context while this loop
	// keeps consuming messages: a "cancel" for this job interrupts the
	// solvers, which surface a cancelled Unknown — the acknowledgment the
	// coordinator's supersession protocol expects. The result is always
	// sent before the next job is read, preserving the sequential-job
	// invariant.
	jobCtx, cancelJob := context.WithCancel(ctx)
	defer cancelJob()
	var reply *Message
	var cert *Certificate
	done := make(chan struct{})
	go func() {
		defer close(done)
		reply, cert = w.runJobWithHeartbeats(jobCtx, wc, jm, f)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case r := <-msgs:
			if r.err == nil && r.m.Type == "cancel" {
				if r.m.JobID == jm.JobID {
					cancelJob()
				}
				continue // else: a stale cancel for an earlier job
			}
			cancelJob()
			<-done
			if r.err != nil {
				return r.err
			}
			return fmt.Errorf("distrib: unexpected message %q mid-job", r.m.Type)
		}
	}
	mutateResult(f, jm, reply, &cert)
	certData := encodeCertificate(cert)
	declared := int64(len(certData))
	if f != nil {
		switch f.Kind {
		case FaultTruncatedProof:
			// Declare the truncated size: the cut arrives "complete"
			// and fails decoding, instead of hanging the transfer.
			certData = certData[:len(certData)/2]
			declared = int64(len(certData))
		case FaultOversizedProof:
			declared = maxCertBytes + 1
			certData = nil
		}
	}
	reply.CertSize = declared
	return wc.sendChunked(reply, "cert", certData)
}

// checkEpoch enforces the split-brain fence: a coordinator presenting
// a lease epoch below one this worker has already served is a deposed
// primary and is refused for good. Epochs only ratchet upward.
func (w *worker) checkEpoch(epoch int64) error {
	if epoch < w.maxEpoch {
		return fmt.Errorf("%w: presented epoch %d, already served epoch %d",
			ErrStaleEpoch, epoch, w.maxEpoch)
	}
	if epoch > w.maxEpoch {
		w.maxEpoch = epoch
	}
	return nil
}

// inject applies one fault event. done means the session is over.
func (w *worker) inject(ctx context.Context, wc *conn, f *FaultEvent) (done bool, err error) {
	switch f.Kind {
	case FaultDrop:
		wc.close()
		return true, fmt.Errorf("distrib: injected drop at job %d", f.Job)
	case FaultCorrupt:
		_ = wc.sendRaw([]byte("{corrupt frame at job " + fmt.Sprint(f.Job) + "\n"))
		wc.close()
		return true, fmt.Errorf("distrib: injected corrupt frame at job %d", f.Job)
	case FaultStall:
		// Silence: no heartbeats, no result, for the stall duration.
		if !sleepCtx(ctx, f.Stall) {
			return true, ctx.Err()
		}
	}
	return false, nil
}

// jobProgress keeps the latest sat.Stats of each partition, fed from
// the solver progress hook: snapshots are cumulative per instance, so
// the latest is the partition's live state, and heartbeats read those.
// The hook fires from solver goroutines, so the map is mutex-guarded.
type jobProgress struct {
	mu    sync.Mutex
	parts map[int]sat.Stats
}

// update keeps the latest snapshot of one partition.
func (p *jobProgress) update(part int, st sat.Stats) {
	p.mu.Lock()
	p.parts[part] = st
	p.mu.Unlock()
}

// snapshot returns the live per-partition rows, sorted by partition
// index, and the job's totals — its Progress the minimum across the
// partitions seen so far: a job is only as far along as its
// furthest-behind partition.
func (p *jobProgress) snapshot() (rows []report.PartitionRow, total sat.Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for part, st := range p.parts {
		if len(rows) == 0 || st.Progress < total.Progress {
			total.Progress = st.Progress
		}
		total.Conflicts += st.Conflicts
		total.Propagations += st.Propagations
		rows = append(rows, report.PartitionRow{
			Partition:    part,
			Conflicts:    st.Conflicts,
			Propagations: st.Propagations,
			Progress:     st.Progress,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Partition < rows[j].Partition })
	return rows, total
}

// runJobWithHeartbeats runs the job while a side goroutine heartbeats at
// the cadence the coordinator asked for, so a busy solver is
// distinguishable from a hung worker; each heartbeat carries the live
// conflict/propagation totals from the solver progress hook. The sender
// is stopped before the result goes out, so a result is never followed
// by its own heartbeat.
func (w *worker) runJobWithHeartbeats(ctx context.Context, wc *conn, m *Message, f *FaultEvent) (*Message, *Certificate) {
	// Per-job OOM watchdog: a fresh one each job so the trip re-arms
	// after an aborted chunk frees its memory. A trip cancels the job, so
	// the worker sheds the chunk and answers before the kernel's
	// OOM-killer would pick the process; the trip is this machine's, not
	// the cube's, and the cube goes back to the fleet.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	watch := memwatch.Start(memwatch.Options{
		LimitBytes:   w.opts.MemLimitBytes,
		TripFraction: w.opts.MemTripFraction,
		OnTrip:       func(used, limit int64) { cancel(memTrip{used, limit}) },
	})
	defer watch.Stop()

	var hbStop, hbDone chan struct{}
	var progress *jobProgress
	if m.HeartbeatMillis > 0 {
		progress = &jobProgress{parts: make(map[int]sat.Stats)}
		hbStop, hbDone = make(chan struct{}), make(chan struct{})
		interval := time.Duration(m.HeartbeatMillis) * time.Millisecond
		go func() {
			defer close(hbDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					parts, total := progress.snapshot()
					hb := &Message{Type: "heartbeat", JobID: m.JobID,
						Conflicts: total.Conflicts, Propagations: total.Propagations,
						Progress: total.Progress, Parts: parts,
						MemBytes: watch.Used(), MemLimit: watch.Limit()}
					if err := wc.send(hb); err != nil {
						return
					}
				}
			}
		}()
	}
	reply, cert := w.runJob(ctx, m, progress, f)
	if hbStop != nil {
		close(hbStop)
		<-hbDone
	}
	return reply, cert
}

// memTrip is why a job's context was cancelled when the worker's OOM
// watchdog tripped: the heap reading that crossed the trip point, and the
// limit.
type memTrip struct{ used, limit int64 }

func (t memTrip) Error() string {
	return fmt.Sprintf("memory watchdog tripped at %d of %d bytes", t.used, t.limit)
}

// procName is the worker's span process name ("worker" when anonymous).
func (w *worker) procName() string {
	if w.opts.Name != "" {
		return w.opts.Name
	}
	return "worker"
}
