package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/prog"
)

// Hot-standby coordinator failover.
//
// RunHA wraps Coordinate in a leadership loop: the coordinator that
// holds the lease (see lease.go) runs the analysis as primary; every
// other coordinator is a standby that (a) answers worker dials with a
// "not the leader" welcome so workers keep probing cheaply, and (b)
// tails the primary's journal over a live replication stream, keeping
// a local, fsynced, byte-identical copy. When the primary dies the
// lease expires, the standby acquires it at the next epoch, and
// promotes by resuming from its replica through the exact code path a
// cold `-resume` restart uses — committed verdicts replay, only
// in-flight work is re-solved, and the workers re-home to the standby
// without restarting.

// Coordinator roles, carried in the welcome handshake.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
)

// errStandby marks a worker session that reached a live coordinator
// which is not (yet) the leader. It is not a connection failure: the
// worker rotates to the next address without burning its reconnect
// budget, bounded only by ReconnectTimeout.
var errStandby = errors.New("distrib: coordinator is standby, not primary")

// ErrStaleEpoch marks a coordinator whose lease epoch is below one the
// worker has already served — a deposed primary that revived after a
// failover. The worker refuses the session outright; accepting would
// let two coordinators hand out conflicting work (split-brain).
var ErrStaleEpoch = errors.New("distrib: coordinator epoch is stale (deposed primary)")

// replSubBuffer bounds the per-standby backlog of unsent replication
// frames. A standby that falls further behind than this is dropped and
// must reconnect, which re-sends the full history — correct (the
// replica file is truncated on connect) if expensive, and strictly
// better than blocking the primary's commit path on a slow follower.
const replSubBuffer = 1024

// replicator fans committed journal records out to connected standbys.
// Frames are the journal's own on-disk framing (journal.Marshal*), so
// a standby can append them verbatim; frame 0 is always the manifest.
type replicator struct {
	mu     sync.Mutex
	frames [][]byte
	subs   map[chan []byte]struct{}
}

// newReplicator seeds the frame history with the manifest and the
// records a resumed run already holds, so a standby that connects
// late still receives the complete journal.
func newReplicator(m journal.Manifest, history []journal.ChunkRecord) (*replicator, error) {
	mf, err := journal.MarshalManifest(m)
	if err != nil {
		return nil, err
	}
	frames := [][]byte{mf}
	for _, rec := range history {
		fr, err := journal.MarshalChunk(rec)
		if err != nil {
			return nil, err
		}
		frames = append(frames, fr)
	}
	return &replicator{frames: frames, subs: make(map[chan []byte]struct{})}, nil
}

// append publishes one committed record to the history and every live
// subscriber. It is called from the journal's commit observer, under
// the lock that orders commits, so frames reach every standby in exact
// journal order. The send never blocks: a subscriber whose buffer is
// full is closed and dropped instead.
func (r *replicator) append(rec journal.ChunkRecord) {
	frame, err := journal.MarshalChunk(rec)
	if err != nil {
		return // unreachable: ChunkRecord always marshals
	}
	r.mu.Lock()
	r.frames = append(r.frames, frame)
	for ch := range r.subs {
		select {
		case ch <- frame:
		default:
			delete(r.subs, ch)
			close(ch)
		}
	}
	r.mu.Unlock()
}

// subscribe atomically snapshots the history and registers a live
// channel, so no frame committed between the two can be missed or
// duplicated.
func (r *replicator) subscribe() (history [][]byte, live chan []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	history = append([][]byte(nil), r.frames...)
	live = make(chan []byte, replSubBuffer)
	r.subs[live] = struct{}{}
	return history, live
}

func (r *replicator) unsubscribe(live chan []byte) {
	r.mu.Lock()
	if _, ok := r.subs[live]; ok {
		delete(r.subs, live)
		close(live)
	}
	r.mu.Unlock()
}

// serveReplica streams the journal to one connected standby: the full
// history first, then live frames as they commit. The standby acks its
// durably applied frame count, which drives the per-standby
// replication-lag gauge. On a clean run end the remaining frames are
// drained before the stop, so a finished run's replica is complete.
func (co *coordinator) serveReplica(wc *conn, name string) {
	if co.repl == nil {
		// No journal, nothing to replicate: turn the standby away.
		_ = wc.send(&Message{Type: "stop"})
		return
	}
	if err := wc.send(&Message{Type: "welcome", Role: RolePrimary, Epoch: co.opts.Epoch}); err != nil {
		return
	}
	history, live := co.repl.subscribe()
	defer co.repl.unsubscribe(live)
	lag := co.metrics.replicationLag(name)
	standbys := co.metrics.reg.Gauge("parbmc_standbys_connected",
		"Standby coordinators currently attached to the replication stream.")
	standbys.Add(1)
	defer standbys.Add(-1)

	var sent atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			m, err := wc.recv(0)
			if err != nil {
				return
			}
			if m.Type == "replicate-ack" {
				if d := sent.Load() - int64(m.Seq); d >= 0 {
					lag.Set(d)
				}
			}
		}
	}()
	defer func() { wc.close(); <-readerDone }()

	seq := 0
	send := func(frame []byte) bool {
		if err := wc.send(&Message{Type: "replicate", Seq: seq, Data: frame}); err != nil {
			return false
		}
		seq++
		sent.Store(int64(seq))
		return true
	}
	for _, fr := range history {
		if !send(fr) {
			return
		}
	}
	for {
		select {
		case fr, ok := <-live:
			if !ok || !send(fr) {
				return // dropped for lagging, or dead conn: standby resyncs
			}
		case <-co.done:
			// Drain frames committed before the run ended (the Unsafe
			// commit happens-before done closes), then say goodbye.
			for {
				select {
				case fr, ok := <-live:
					if !ok || !send(fr) {
						return
					}
				default:
					_ = wc.send(&Message{Type: "stop"})
					return
				}
			}
		}
	}
}

// replicationLag is the per-standby gauge of commits not yet
// acknowledged as durably applied.
func (m *coordMetrics) replicationLag(standby string) *obs.Gauge {
	return m.reg.Gauge("parbmc_replication_lag_records",
		"Journal records sent to the standby but not yet acknowledged as durably applied.",
		"standby", standby)
}

// HAState is the observable role of one RunHA call, shared with the
// /healthz endpoint. All methods are nil-safe.
type HAState struct {
	mu         sync.Mutex
	role       string
	epoch      int64
	replicated int
}

func (s *HAState) set(role string, epoch int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.role, s.epoch = role, epoch
	s.mu.Unlock()
}

func (s *HAState) setReplicated(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.replicated = n
	s.mu.Unlock()
}

// Role returns the current role ("primary" or "standby"; empty before
// RunHA starts), the lease epoch in force, and — while standby — the
// number of journal records replicated so far.
func (s *HAState) Role() (role string, epoch int64, replicated int) {
	if s == nil {
		return "", 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role, s.epoch, s.replicated
}

// HAOptions configures the leadership side of RunHA.
type HAOptions struct {
	// LeasePath is the shared lease file both coordinators contend on.
	LeasePath string
	// Holder names this coordinator in the lease (default "coordinator").
	Holder string
	// Addr is the address this coordinator advertises in the lease —
	// where workers and the standby's replication client dial it.
	Addr string
	// LeaseTTL is the leadership lease duration (default 15s). The
	// primary renews every TTL/3; a standby may take over once a full
	// TTL passes without renewal, so TTL bounds the failover blackout.
	LeaseTTL time.Duration
	// StandbyPoll is how often a standby re-reads the lease file while
	// waiting (default LeaseTTL/4).
	StandbyPoll time.Duration
	// State, when non-nil, receives live role transitions for /healthz.
	State *HAState
}

func (ha HAOptions) withDefaults() HAOptions {
	if ha.Holder == "" {
		ha.Holder = "coordinator"
	}
	if ha.LeaseTTL == 0 {
		ha.LeaseTTL = 15 * time.Second
	}
	if ha.StandbyPoll == 0 {
		ha.StandbyPoll = ha.LeaseTTL / 4
	}
	return ha
}

// haMetrics instruments the leadership loop.
type haMetrics struct {
	failovers  *obs.Counter
	replicated *obs.Gauge
}

func newHAMetrics(reg *obs.Registry) *haMetrics {
	return &haMetrics{
		failovers: reg.Counter("parbmc_coordinator_failovers_total",
			"Times this coordinator promoted from standby to primary after a lease takeover."),
		replicated: reg.Gauge("parbmc_standby_replicated_records",
			"Journal records this coordinator has durably replicated while standby."),
	}
}

// RunHA runs one coordinator of a primary/standby pair. It acquires
// the lease and coordinates as primary, or — while another coordinator
// holds the lease — serves as a warm standby until the lease expires,
// then promotes and resumes the run from its replicated journal. It
// returns the run result (from whichever role finished the run) or
// the first fatal error.
func RunHA(ctx context.Context, ln net.Listener, p *prog.Program, opts CoordinatorOptions, ha HAOptions) (*CoordinatorResult, error) {
	if ha.LeasePath == "" {
		return nil, fmt.Errorf("distrib: HA requires a lease path")
	}
	if opts.JournalPath == "" {
		return nil, fmt.Errorf("distrib: HA requires a journal path (the replication target)")
	}
	ha = ha.withDefaults()
	hm := newHAMetrics(opts.Metrics)
	wasStandby := false
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lease, err := AcquireLease(ha.LeasePath, ha.Holder, ha.Addr, ha.LeaseTTL)
		if errors.Is(err, ErrLeaseHeld) {
			wasStandby = true
			if serr := runStandby(ctx, ln, opts, ha, hm); serr != nil {
				return nil, serr
			}
			continue // lease looks free: contend for it
		}
		if err != nil {
			return nil, err
		}
		if wasStandby {
			hm.failovers.Inc()
		}
		return runPrimary(ctx, ln, p, opts, ha, lease)
	}
}

// runPrimary coordinates under a held lease, renewing it continuously.
// Losing the lease (another coordinator took over despite renewal —
// e.g. this process was paused past the TTL) cancels the run: the new
// epoch has fenced this one, and workers will refuse it anyway.
func runPrimary(ctx context.Context, ln net.Listener, p *prog.Program, opts CoordinatorOptions, ha HAOptions, lease *Lease) (*CoordinatorResult, error) {
	opts.Epoch = lease.Epoch()
	opts.Resume = true // promotion and restart both resume the journal
	ha.State.set(RolePrimary, lease.Epoch())
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var deposed atomic.Bool
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		// The lease span brackets this tenure as primary; each renewal is
		// a child, so the trace shows the leadership heartbeat alongside
		// the work it fences. Nil-safe: untraced runs pay one nil check.
		leaseSpan := opts.Tracer.Start("lease",
			obs.KV("holder", ha.Holder), obs.KV("epoch", lease.Epoch()))
		renews := 0
		defer func() {
			leaseSpan.End(obs.KV("renews", renews), obs.KV("deposed", deposed.Load()))
		}()
		t := time.NewTicker(ha.LeaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-cctx.Done():
				return
			case <-t.C:
				sp := leaseSpan.Child("lease_renew")
				err := lease.Renew()
				if err != nil {
					sp.End(obs.KV("error", err.Error()))
					deposed.Store(true)
					cancel()
					return
				}
				sp.End()
				renews++
			}
		}
	}()
	res, err := Coordinate(cctx, ln, p, opts)
	cancel()
	<-renewDone
	if errors.Is(err, ErrPrimaryKilled) {
		// Simulated SIGKILL: the lease is deliberately NOT released, so
		// the standby must wait out the TTL exactly as for a real crash.
		return nil, err
	}
	if deposed.Load() {
		return res, fmt.Errorf("distrib: %w while coordinating", ErrLeaseLost)
	}
	if lerr := lease.Release(); lerr != nil && err == nil {
		err = lerr
	}
	return res, err
}

// runStandby is the warm-standby phase: answer worker dials with a
// standby welcome, tail the primary's journal into a local replica,
// and return nil once the lease has expired (the caller then contends
// for it). A fatal error (context cancelled, lease file unreadable)
// is returned as-is.
func runStandby(ctx context.Context, ln net.Listener, opts CoordinatorOptions, ha HAOptions, hm *haMetrics) error {
	st, _, err := ReadLease(ha.LeasePath)
	if err != nil {
		return err
	}
	ha.State.set(RoleStandby, st.Epoch)

	stopAccept := make(chan struct{})
	acceptDone := standbyAccept(ln, stopAccept, ha.State)
	defer func() {
		close(stopAccept)
		<-acceptDone
	}()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st, exists, err := ReadLease(ha.LeasePath)
		if err != nil {
			return err
		}
		if !exists || st.Expired(time.Now()) {
			return nil // leadership is up for grabs
		}
		ha.State.set(RoleStandby, st.Epoch)
		// Tail the primary until the connection dies or the lease
		// expires. Errors are not fatal: the replica file is the
		// fallback, and the lease clock decides what happens next.
		tailPrimary(ctx, st.Addr, opts.JournalPath, ha, hm)
		if !sleepCtx(ctx, ha.StandbyPoll) {
			return ctx.Err()
		}
	}
}

// sleepCtx sleeps d unless ctx ends first; reports whether it slept
// the full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// standbyAccept answers dials while this coordinator is not the
// leader: hello is met with a standby welcome so workers rotate on
// without burning reconnect budget. The listener itself stays open —
// promotion hands the very same listener to Coordinate — so accepting
// runs under short deadlines that let the loop notice stop.
func standbyAccept(ln net.Listener, stop <-chan struct{}, state *HAState) <-chan struct{} {
	done := make(chan struct{})
	dl, ok := ln.(interface{ SetDeadline(time.Time) error })
	if !ok {
		close(done)
		return done // not a TCP listener (tests): workers just block
	}
	go func() {
		defer close(done)
		defer dl.SetDeadline(time.Time{}) // hand a clean listener to Coordinate
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = dl.SetDeadline(time.Now().Add(50 * time.Millisecond))
			c, err := ln.Accept()
			if err != nil {
				if ne, isNet := err.(net.Error); isNet && ne.Timeout() {
					continue
				}
				return // listener closed under us
			}
			go func() {
				wc := newConn(c, 5*time.Second)
				defer wc.close()
				hello, err := wc.recv(5 * time.Second)
				if err != nil || hello.Type != "hello" {
					return
				}
				_, epoch, _ := state.Role()
				_ = wc.send(&Message{Type: "welcome", Role: RoleStandby, Epoch: epoch})
			}()
		}
	}()
	return done
}

// tailPrimary connects to the primary as a standby and applies its
// replication stream to a fresh replica at journalPath, acking each
// durably applied frame. It returns when the connection dies, the
// primary says stop, or the lease expires mid-stream; in every case
// the replica file on disk is a valid journal prefix (at worst with a
// torn tail a later Open repairs), so the caller can always promote
// from whatever was applied.
func tailPrimary(ctx context.Context, addr, journalPath string, ha HAOptions, hm *haMetrics) {
	if addr == "" {
		return
	}
	d := net.Dialer{Timeout: 5 * time.Second}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return
	}
	wc := newConn(c, 30*time.Second)
	defer wc.close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			wc.close()
		case <-stop:
		}
	}()

	if err := wc.send(&Message{Type: "hello", WorkerName: ha.Holder, Role: RoleStandby}); err != nil {
		return
	}
	welcome, err := wc.recv(10 * time.Second)
	if err != nil || welcome.Type != "welcome" || welcome.Role != RolePrimary {
		return
	}
	// The primary streams its full history on every connect, so the
	// replica starts from scratch: the primary's journal is the only
	// authority, and a stale local file must not shadow it.
	rep, err := journal.CreateReplica(journalPath)
	if err != nil {
		return
	}
	defer rep.Close()
	applied := 0
	for {
		m, err := wc.recv(ha.StandbyPoll)
		if err != nil {
			if ne, isNet := err.(net.Error); isNet && ne.Timeout() {
				// Idle stream: keep tailing unless the lease has expired
				// (a wedged-but-connected primary must not pin us here).
				st, exists, lerr := ReadLease(ha.LeasePath)
				if lerr == nil && exists && !st.Expired(time.Now()) {
					continue
				}
			}
			return
		}
		switch m.Type {
		case "replicate":
			if aerr := rep.Apply(m.Data); aerr != nil {
				// Protocol violation or torn frame: abandon this stream;
				// reconnecting triggers a full resync.
				return
			}
			applied++
			ha.State.setReplicated(rep.Records())
			hm.replicated.Set(int64(applied))
			_ = wc.send(&Message{Type: "replicate-ack", Seq: applied})
		case "stop":
			return // run finished on the primary
		default:
			return
		}
	}
}
