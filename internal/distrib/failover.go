package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
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
// messages. A standby that falls further behind than this is dropped
// and must reconnect, which re-sends the full history — correct (the
// standby replaces its replica on the manifest) if expensive, and
// strictly better than blocking the primary's commit path on a slow
// follower.
const replSubBuffer = 1024

// replicator fans committed journal records out to connected standbys.
// It holds no history of its own: a standby's history is the journal's
// (subscribe), and only records committed after it subscribed pass
// through here.
type replicator struct {
	jnl  *journal.Journal
	mu   sync.Mutex
	subs map[chan *Message]struct{}
}

// newReplicator returns the fan-out of jnl's commits; nil without a
// journal, which leaves nothing to replicate.
func newReplicator(jnl *journal.Journal) *replicator {
	if jnl == nil {
		return nil
	}
	return &replicator{jnl: jnl, subs: make(map[chan *Message]struct{})}
}

// append publishes one committed record, the commits-th, to every live
// subscriber. It is called from the journal's commit observer, under
// the lock that orders commits, so records reach every standby in exact
// journal order. The send never blocks: a subscriber whose buffer is
// full is closed and dropped instead.
func (r *replicator) append(rec journal.ChunkRecord, commits int) {
	m := &Message{Type: "replicate", Seq: commits, Record: &rec}
	r.mu.Lock()
	for ch := range r.subs {
		select {
		case ch <- m:
		default:
			delete(r.subs, ch)
			close(ch)
		}
	}
	r.mu.Unlock()
}

// subscribe registers a live channel and then snapshots the journal's
// committed records. A record committed between the two is both in the
// history and on the channel, where its Seq (its journal position) is
// within the history: the sender skips it, so none is missed or sent
// twice.
func (r *replicator) subscribe() (history []journal.ChunkRecord, live chan *Message) {
	live = make(chan *Message, replSubBuffer)
	r.mu.Lock()
	r.subs[live] = struct{}{}
	r.mu.Unlock()
	return r.jnl.Committed(), live
}

// subscribers counts the standbys attached.
func (r *replicator) subscribers() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.subs))
}

func (r *replicator) unsubscribe(live chan *Message) {
	r.mu.Lock()
	if _, ok := r.subs[live]; ok {
		delete(r.subs, live)
		close(live)
	}
	r.mu.Unlock()
}

// serveReplica streams the journal to one connected standby: the
// manifest and the full history first, then live records as they
// commit. The standby acks its durably applied message count, which
// drives the per-standby replication-lag gauge. On a clean run end the
// remaining records are drained before the stop, so a finished run's
// replica is complete.
func (co *coordinator) serveReplica(wc *conn, name string) {
	if co.repl == nil {
		// No journal, nothing to replicate: turn the standby away.
		_ = wc.send(&Message{Type: "stop"})
		return
	}
	if err := wc.send(&Message{Type: "welcome", Role: RolePrimary, Epoch: co.epoch}); err != nil {
		return
	}
	// The subscriber set owns the count of standbys attached.
	co.opts.Metrics.GaugeFunc("parbmc_standbys_connected",
		"Standby coordinators currently attached to the replication stream.", co.repl.subscribers)
	history, live := co.repl.subscribe()
	defer co.repl.unsubscribe(live)
	lag := co.opts.Metrics.Gauge("parbmc_replication_lag_records",
		"Journal records sent to the standby but not yet acknowledged as durably applied.",
		"standby", name)

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

	// A message's Seq is its record's journal position (the manifest's
	// is 0), so the count sent is the last Seq + 1.
	send := func(m *Message) bool {
		if wc.send(m) != nil {
			return false
		}
		sent.Store(int64(m.Seq) + 1)
		return true
	}
	manifest := co.repl.jnl.Manifest()
	if !send(&Message{Type: "replicate", Manifest: &manifest}) {
		return
	}
	for i := range history {
		if !send(&Message{Type: "replicate", Seq: i + 1, Record: &history[i]}) {
			return
		}
	}
	// forward sends a live record unless the history already held it.
	forward := func(m *Message, ok bool) bool {
		return ok && (m.Seq <= len(history) || send(m))
	}
	for {
		select {
		case m, ok := <-live:
			if !forward(m, ok) {
				return // dropped for lagging, or dead conn: standby resyncs
			}
		case <-co.done:
			// Drain the records committed before the run ended (every
			// commit happens-before done closes), then say goodbye.
			for {
				select {
				case m, ok := <-live:
					if !forward(m, ok) {
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

// HAState is the observable role of one RunHA call, shared with the
// /healthz endpoint; it owns the count of records replicated, which the
// parbmc_standby_replicated_records gauge reads. RunHA makes one when
// HAOptions.State is nil.
type HAState struct {
	mu         sync.Mutex
	role       string
	epoch      int64
	replicated int
}

func (s *HAState) set(role string, epoch int64) {
	s.mu.Lock()
	s.role, s.epoch = role, epoch
	s.mu.Unlock()
}

func (s *HAState) setReplicated(n int) {
	s.mu.Lock()
	s.replicated = n
	s.mu.Unlock()
}

// Role returns the current role ("primary" or "standby"; empty before
// RunHA starts), the lease epoch in force, and — while standby — the
// number of journal records replicated so far.
func (s *HAState) Role() (role string, epoch int64, replicated int) {
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
	if ha.State == nil {
		ha.State = &HAState{}
	}
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
	if err := opts.setDefaults(); err != nil {
		return nil, err // before a standby creates its replica
	}
	ha = ha.withDefaults()
	failovers := opts.Metrics.Counter("parbmc_coordinator_failovers_total",
		"Times this coordinator promoted from standby to primary after a lease takeover.")
	state := ha.State
	opts.Metrics.GaugeFunc("parbmc_standby_replicated_records",
		"Journal records this coordinator has durably replicated while standby.",
		func() int64 { _, _, n := state.Role(); return int64(n) })
	wasStandby := false
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lease, err := AcquireLease(ha.LeasePath, ha.Holder, ha.Addr, ha.LeaseTTL)
		if errors.Is(err, ErrLeaseHeld) {
			wasStandby = true
			if serr := runStandby(ctx, ln, opts, ha); serr != nil {
				return nil, serr
			}
			continue // lease looks free: contend for it
		}
		if err != nil {
			return nil, err
		}
		if wasStandby {
			failovers.Inc()
		}
		return runPrimary(ctx, ln, p, opts, ha, lease)
	}
}

// runPrimary coordinates under a held lease, renewing it continuously.
// Losing the lease (another coordinator took over despite renewal —
// e.g. this process was paused past the TTL) cancels the run: the new
// epoch has fenced this one, and workers will refuse it anyway.
func runPrimary(ctx context.Context, ln net.Listener, p *prog.Program, opts CoordinatorOptions, ha HAOptions, lease *Lease) (*CoordinatorResult, error) {
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
	res, err := coordinate(cctx, ln, p, opts, lease.Epoch())
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
func runStandby(ctx context.Context, ln net.Listener, opts CoordinatorOptions, ha HAOptions) error {
	st, _, err := ReadLease(ha.LeasePath)
	if err != nil {
		return err
	}
	ha.State.set(RoleStandby, st.Epoch)

	stopAccept := make(chan struct{})
	// Workers that dial a standby are met with a standby welcome, so they
	// rotate on without burning reconnect budget.
	acceptDone := answerHellos(ln, stopAccept, func() *Message {
		_, epoch, _ := ha.State.Role()
		return &Message{Type: "welcome", Role: RoleStandby, Epoch: epoch}
	})
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
		tailPrimary(ctx, st.Addr, opts.JournalPath, ha)
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

// answerHellos answers every hello on ln with reply() until stop closes
// or ln does, while this coordinator runs no run on ln: as a standby, or
// after its run ended. The listener itself stays open — promotion hands the very
// same listener to Coordinate — so accepting runs under short deadlines
// that let the loop notice stop.
func answerHellos(ln net.Listener, stop <-chan struct{}, reply func() *Message) <-chan struct{} {
	done := make(chan struct{})
	dl, ok := ln.(deadliner)
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
				if hello, err := wc.recv(5 * time.Second); err == nil && hello.Type == "hello" {
					_ = wc.send(reply())
				}
			}()
		}
	}()
	return done
}

// tailPrimary connects to the primary as a standby and writes its
// replication stream into a journal of its own at journalPath — opened
// on the stream's manifest, one Commit per record — acking each durably
// applied message. It returns when the connection dies, the primary
// says stop, the stream breaks protocol, or the lease expires
// mid-stream; in every case the replica on disk is a valid journal
// prefix (at worst with a torn tail a later Open repairs), so the
// caller can always promote from whatever was applied.
func tailPrimary(ctx context.Context, addr, journalPath string, ha HAOptions) {
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
	defer context.AfterFunc(ctx, wc.close)()

	if err := wc.send(&Message{Type: "hello", WorkerName: ha.Holder, Role: RoleStandby}); err != nil {
		return
	}
	welcome, err := wc.recv(10 * time.Second)
	if err != nil || welcome.Type != "welcome" || welcome.Role != RolePrimary {
		return
	}
	var replica *journal.Journal // opened by the stream's manifest
	defer func() { replica.Close() }()
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
		switch {
		case m.Type == "replicate" && m.Manifest != nil && replica == nil:
			// The primary streams its full history on every connect, so the
			// replica starts from scratch: the primary's journal is the only
			// authority, and a stale local file must not shadow it.
			if rerr := os.Remove(journalPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				return
			}
			if replica, err = journal.Open(journalPath, *m.Manifest); err != nil {
				return
			}
		case m.Type == "replicate" && m.Record != nil && replica != nil:
			if replica.Commit(*m.Record) != nil {
				return
			}
		default:
			// "stop" (the run finished on the primary), or a protocol
			// violation — a record before the manifest, a second manifest:
			// abandon this stream; reconnecting triggers a full resync.
			return
		}
		applied++
		ha.State.setReplicated(replica.Commits())
		_ = wc.send(&Message{Type: "replicate-ack", Seq: applied})
	}
}
