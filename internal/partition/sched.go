package partition

import (
	"sync"
	"time"

	"repro/internal/journal"
)

// Scheduler is the one cube-tree scheduler, shared by the in-process
// goroutine runner (internal/parallel) and the TCP coordinator
// (internal/distrib). It owns the queue of cubes, the in-flight
// assignments, the live-leaf count and the whole split/hedge/fence
// policy — and, because deciding whose result counts and making that
// decision durable are one act, the run's journal and what a decided
// cube means for the run (ledger.go). An executor is just "Resume, then
// Acquire, run the cube, and Claim + Commit or Release", and executors
// differ only in how a cube is run and how a running one is cancelled.
//
// An idle executor is served in a fixed priority. (1) A queued cube.
// (2) With Depth > 0, a split victim: the *hardest* in-flight cube
// (the longer-running one on a tie) that was dispatched at least Grace
// ago — every age here is measured from dispatch, the moment Acquire
// handed the cube out, on both transports; Grace defaults to 15s — whose
// latest Note is at or above Hardness, and that can still be refined: a
// multi-partition range always halves, a single partition needs an
// unfixed split bit under both Depth and SplitBits. The SPLIT record
// is journaled, the idle executor steals the first child and the
// second is left on the queue. (3) With Hedge, a duplicate of the
// longest-running cube past Grace that has one running copy, on
// another worker. Otherwise the executor sleeps on a condition
// variable that every state change signals, with a timer only for the
// next grace expiry; Acquire returns nil once no live leaf is left or
// the scheduler is closed. With Depth 0 and no Hedge no cube ever
// qualifies and the queue is the paper's static partition list.
//
// Supersession is the soundness fence. A cube is fenced the moment it
// is reserved as a split victim — before its SPLIT record is written,
// so a parent result arriving during the fsync already loses — or the
// moment a result for it is claimed. Every other assignment of
// a fenced cube is cancelled, and whatever it still delivers loses its
// Claim and needs no retry after Release: never journaled, never
// charged, never racing the children. At most one terminal result per
// live leaf is ever accepted.
type Scheduler struct {
	opts SchedOptions

	mu     sync.Mutex
	wake   *sync.Cond
	closed bool
	// live counts the leaves of the cube tree that are neither decided
	// nor abandoned: queued, in flight, or between Release and Requeue.
	live     int
	queue    []Cube
	inflight map[int]*Assignment
	fenced   map[Cube]bool // decided, split, or reserved for a split
	lastJob  int
	sum      Summary // the fold; Live and the seal are filled in by Summary()
	err      error   // first journal failure other than a seal: fails the run
}

// SplitPolicy is the "split a cube whose solver outlives its grace"
// policy of a run, stated once and carried unchanged from the command
// line to the scheduler by both executors.
type SplitPolicy struct {
	// Depth caps the extra path bits a single partition may accumulate;
	// 0 disables splitting.
	Depth int
	// Grace is the minimum time since dispatch before a cube may be split
	// or hedged (<= 0: 15s).
	Grace time.Duration
	// Hardness is the minimum noted hardness of a split victim. The
	// default 0 makes grace alone the trigger, so a straggler that
	// reports no progress at all is still split around.
	Hardness float64
}

// SchedOptions is the scheduling policy of one run.
type SchedOptions struct {
	SplitPolicy
	// SplitBits is how many path bits the encoding can supply (len of
	// SplitLits).
	SplitBits int
	// Hedge enables speculative duplicates. Only the TCP coordinator sets
	// it: a duplicate pays when machines fail or slow down independently,
	// which goroutines of one process do not.
	Hedge bool
	// Journal, when non-nil, is the run's journal (Resume replays it,
	// Commit and every split append to it) and Budget the budget every cube
	// is solved under: pinned on a give-up record, and what a replayed
	// give-up is measured against.
	Journal *journal.Journal
	Budget  journal.Budget
	// Paths says the run can solve a path-refined cube: its executor holds
	// the split literals (a distributed worker derives them from the job).
	// A run that cannot drops SPLIT and sub-cube records at intake — a
	// sub-cube verdict covers only part of its partition — and re-solves
	// such a partition whole.
	Paths bool
	// CertifiedOnly says the run believes a definite verdict only with a
	// verified certificate: a record without one — journaled with
	// certification off, or a refutation whose proof was sampled out — is
	// re-solved at intake rather than trusted into a certified history.
	CertifiedOnly bool
	// Gate, when non-nil, is consulted before every scheduling decision —
	// dispatch, split or hedge. It may block; false ends the Acquire.
	Gate func() bool
	// Now replaces time.Now in tests.
	Now func() time.Time
}

// Assignment is one cube handed to one executor.
type Assignment struct {
	JobID  int
	Cube   Cube
	Worker string
	// Hedge marks a speculative duplicate of an already-running cube.
	Hedge bool
	// Hardness is the latest Note; it is final once the assignment ended.
	Hardness float64
	// SplitOf is the assignment whose cube was split to make this one's,
	// set on the child the executor that forced the split walks away with.
	SplitOf *Assignment

	cancel  func(*Assignment)
	started time.Time // dispatch time
	// running is cleared when the assignment is claimed, released or
	// superseded; claimed is set by a won Claim and spent by Commit (both
	// guarded by the scheduler's lock).
	running, claimed bool
}

// NewScheduler returns an empty scheduler; Resume seeds it.
func NewScheduler(opts SchedOptions) *Scheduler {
	if opts.Grace <= 0 {
		opts.Grace = 15 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	s := &Scheduler{
		opts:     opts,
		inflight: make(map[int]*Assignment),
		fenced:   make(map[Cube]bool),
	}
	s.sum.Winner = -1
	s.wake = sync.NewCond(&s.mu)
	return s
}

// Acquire blocks until there is a cube for the idle executor worker and
// returns its assignment, or nil when the run is over: no live leaf is
// left, the scheduler was closed — by the executor, or by a journal
// failure (Summary.Err) — or Gate said stop. cancel is how the scheduler
// stops the assignment once it is superseded; it is called without the
// scheduler's lock and may arrive at any time after Acquire picked the
// cube, even before Acquire returns.
func (s *Scheduler) Acquire(worker string, cancel func(*Assignment)) *Assignment {
	for {
		if s.opts.Gate != nil && !s.opts.Gate() {
			return nil
		}
		s.mu.Lock()
		if s.closed || s.live == 0 {
			s.mu.Unlock()
			return nil
		}
		a, victim, graceIn := s.next(worker, cancel)
		if a == nil && victim == nil {
			var timer *time.Timer
			if graceIn > 0 {
				// The timer takes the lock to signal, so it cannot fire into
				// the gap before Wait parks this executor.
				timer = time.AfterFunc(graceIn, func() {
					s.mu.Lock()
					s.wake.Broadcast()
					s.mu.Unlock()
				})
			}
			s.wake.Wait()
			if timer != nil {
				timer.Stop()
			}
		}
		s.mu.Unlock()
		if victim != nil {
			a = s.split(victim, worker, cancel)
		}
		if a != nil {
			return a
		}
	}
}

// next makes one scheduling decision for an idle executor (lock held):
// the assignment of a queued cube or a hedge duplicate, or the victim it
// is to split — already fenced — or neither, with the time until the
// next in-flight cube outgrows its grace (0: none is waiting on the
// clock).
func (s *Scheduler) next(worker string, cancel func(*Assignment)) (a, victim *Assignment, graceIn time.Duration) {
	if len(s.queue) > 0 {
		c := s.queue[0]
		s.queue = s.queue[1:]
		return s.register(c, worker, cancel, false), nil, 0
	}
	now := s.opts.Now()
	var copies map[Cube]int // running assignments per cube
	if s.opts.Hedge {
		copies = make(map[Cube]int)
		for _, t := range s.inflight {
			if t.running {
				copies[t.Cube]++
			}
		}
	}
	var hedge *Assignment
	var hardest float64
	for _, t := range s.inflight {
		if !t.running || s.fenced[t.Cube] {
			continue
		}
		splittable := s.canSplit(t.Cube)
		hedgeable := s.opts.Hedge && copies[t.Cube] == 1 && t.Worker != worker
		if !splittable && !hedgeable {
			continue
		}
		if left := s.opts.Grace - now.Sub(t.started); left > 0 {
			if graceIn == 0 || left < graceIn {
				graceIn = left
			}
			continue
		}
		if h := t.Hardness; splittable && h >= s.opts.Hardness {
			if victim == nil || h > hardest || (h == hardest && t.started.Before(victim.started)) {
				victim, hardest = t, h
			}
		}
		if hedgeable && (hedge == nil || t.started.Before(hedge.started)) {
			hedge = t
		}
	}
	switch {
	case victim != nil:
		s.fenced[victim.Cube] = true
		return nil, victim, 0
	case hedge != nil:
		s.sum.Hedges++
		return s.register(hedge.Cube, worker, cancel, true), nil, 0
	}
	return nil, nil, graceIn
}

// canSplit: a multi-partition range always halves; a single partition
// needs an unfixed split bit under both the depth cap and the
// encoding's supply.
func (s *Scheduler) canSplit(c Cube) bool {
	if s.opts.Depth <= 0 {
		return false
	}
	return c.Size() > 1 || (c.Depth() < s.opts.Depth && c.Depth() < s.opts.SplitBits)
}

// register creates and indexes a running assignment (lock held).
func (s *Scheduler) register(c Cube, worker string, cancel func(*Assignment), hedge bool) *Assignment {
	s.lastJob++
	a := &Assignment{
		JobID: s.lastJob, Cube: c, Worker: worker, Hedge: hedge,
		cancel: cancel, started: s.opts.Now(), running: true,
	}
	s.inflight[a.JobID] = a
	s.sum.MaxDepth = max(s.sum.MaxDepth, c.Depth())
	return a
}

// split turns a fenced victim into its two children. The SPLIT record is
// the supersession point: journaled here — without the lock, so the
// fsync stalls nobody — after the victim was fenced and before either
// child exists, it precedes every record a child can produce, and a
// crash resumes with the children pending, never with a stale parent
// verdict. Then every assignment still running on the parent is
// cancelled, the idle executor walks away with the first child and the
// second joins the queue. Nil when the journal failed: the parent stays
// fenced, no children appear, the run is over.
func (s *Scheduler) split(victim *Assignment, thief string, cancel func(*Assignment)) *Assignment {
	c := victim.Cube
	if s.persist(journal.ChunkRecord{From: c.From, To: c.To, Path: c.Path, Verdict: journal.VerdictSplit}) != nil {
		return nil
	}
	left, right := c.Split()
	s.mu.Lock()
	s.sum.Splits++
	if victim.Worker != thief {
		s.sum.Steals++
	}
	stale := s.supersede(c)
	s.live++ // one live leaf became two
	s.sum.Total++
	s.queue = append(s.queue, right)
	a := s.register(left, thief, cancel, false)
	a.SplitOf = victim
	s.wake.Broadcast()
	s.mu.Unlock()
	for _, t := range stale {
		t.cancel(t)
	}
	return a
}

// supersede retires every assignment still running on c and returns
// them for cancelling once the lock is dropped (lock held).
func (s *Scheduler) supersede(c Cube) (stale []*Assignment) {
	for _, t := range s.inflight {
		if t.Cube == c && t.running {
			t.running = false
			stale = append(stale, t)
		}
	}
	return stale
}

// Claim decides the race for a terminal result — a definite verdict or
// a budgeted give-up: it wins iff the assignment was not superseded and
// its cube is not fenced. On a win the cube is decided, every twin still
// racing is cancelled and the result is the caller's to Commit; on a
// loss the result must be discarded.
func (s *Scheduler) Claim(a *Assignment) bool {
	s.mu.Lock()
	delete(s.inflight, a.JobID)
	won := a.running && !s.fenced[a.Cube]
	a.running = false
	if !won {
		s.sum.Superseded++
		s.mu.Unlock()
		return false
	}
	a.claimed = true
	s.fenced[a.Cube] = true
	stale := s.supersede(a.Cube)
	s.live--
	s.wake.Broadcast()
	s.mu.Unlock()
	for _, t := range stale {
		t.cancel(t)
	}
	return true
}

// Release retires an assignment that produced no terminal result
// (cancelled, failed transport, retryable Unknown, rejected
// certificate). It reports whether the cube now needs the caller —
// who then Requeues or Abandons it; false when the cube was superseded
// (its children or a twin's verdict carry it) or a twin still races on
// it.
func (s *Scheduler) Release(a *Assignment) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, a.JobID)
	wasRunning := a.running
	a.running = false
	if !wasRunning || s.fenced[a.Cube] {
		s.sum.Superseded++
		return false
	}
	for _, t := range s.inflight {
		if t.Cube == a.Cube && t.running {
			return false
		}
	}
	return true
}

// Requeue puts a released cube back on the queue.
func (s *Scheduler) Requeue(c Cube) {
	s.mu.Lock()
	s.queue = append(s.queue, c)
	s.wake.Broadcast()
	s.mu.Unlock()
}

// Abandon gives a released cube up for good: it stays undecided but no
// longer keeps the run alive.
func (s *Scheduler) Abandon() {
	s.mu.Lock()
	s.live--
	s.sum.Abandoned++
	s.wake.Broadcast()
	s.mu.Unlock()
}

// Note records the latest live hardness of an assignment's cube, the
// signal victim selection steers by.
func (s *Scheduler) Note(a *Assignment, hardness float64) {
	s.mu.Lock()
	if a.running {
		a.Hardness = hardness
		if s.opts.Hardness > 0 {
			// Only against a floor can a new reading make a victim of a
			// cube that was none a moment ago.
			s.wake.Broadcast()
		}
	}
	s.mu.Unlock()
}

// Live returns the number of leaves neither decided nor abandoned.
func (s *Scheduler) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Close ends the run: every waiting Acquire, and every later one,
// returns nil. It returns the cubes that were still queued.
func (s *Scheduler) Close() []Cube {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.wake.Broadcast()
	return s.queue
}
