package partition

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is the scheduler's injected time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

const testGrace = time.Minute

// schedHarness drives one scheduler on a fake clock and records which
// assignments it cancelled.
type schedHarness struct {
	t     *testing.T
	s     *Scheduler
	clock *fakeClock

	mu        sync.Mutex
	cancelled map[int]bool // by JobID
}

func newSchedHarness(t *testing.T, opts SchedOptions) *schedHarness {
	h := &schedHarness{t: t, clock: &fakeClock{t: time.Unix(1000, 0)}, cancelled: map[int]bool{}}
	opts.Grace = testGrace
	opts.Now = h.clock.now
	h.s = NewScheduler(opts)
	return h
}

func (h *schedHarness) cancel(a *Assignment) {
	h.mu.Lock()
	h.cancelled[a.JobID] = true
	h.mu.Unlock()
}

func (h *schedHarness) wasCancelled(a *Assignment) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cancelled[a.JobID]
}

// idle makes one non-blocking scheduling decision for worker.
func (h *schedHarness) idle(worker string) (a, victim *Assignment, graceIn time.Duration) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.next(worker, h.cancel)
}

// dispatch adds c and hands it to worker, one clock tick after whatever
// was dispatched before it.
func (h *schedHarness) dispatch(c Cube, worker string) *Assignment {
	h.t.Helper()
	h.clock.advance(time.Second)
	h.s.Resume([]Cube{c})
	a, _, _ := h.idle(worker)
	if a == nil || a.Cube != c {
		h.t.Fatalf("queued cube %v not dispatched: got %+v", c, a)
	}
	return a
}

// acquireAsync runs a blocking Acquire and delivers its result.
func (h *schedHarness) acquireAsync(worker string) <-chan *Assignment {
	out := make(chan *Assignment, 1)
	go func() { out <- h.s.Acquire(worker, h.cancel) }()
	return out
}

func (h *schedHarness) await(ch <-chan *Assignment) *Assignment {
	h.t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(30 * time.Second):
		h.t.Fatal("Acquire did not return")
		return nil
	}
}

// The split gate, one in-flight cube at a time: grace, hardness floor,
// depth cap and split-bit supply each keep a cube from being split, and
// only a cube still inside its grace arms the timer.
func TestSchedulerSplitGate(t *testing.T) {
	single := Cube{From: 3, To: 3}
	cases := []struct {
		name       string
		opts       SchedOptions
		cube       Cube
		age        time.Duration
		hardness   float64
		wantVictim bool
		wantGrace  time.Duration
	}{
		{"inside grace", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, single, testGrace - 5*time.Second, 9, false, 5 * time.Second},
		{"at grace", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, single, testGrace, 0, true, 0},
		{"below hardness floor", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2, Hardness: 2}, SplitBits: 4}, single, 2 * testGrace, 1.5, false, 0},
		{"at hardness floor", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2, Hardness: 2}, SplitBits: 4}, single, 2 * testGrace, 2, true, 0},
		{"under depth cap", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, Cube{From: 3, To: 3, Path: "0"}, 2 * testGrace, 0, true, 0},
		{"at depth cap", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, Cube{From: 3, To: 3, Path: "01"}, 2 * testGrace, 0, false, 0},
		{"split bits run out", SchedOptions{SplitPolicy: SplitPolicy{Depth: 3}, SplitBits: 1}, Cube{From: 3, To: 3, Path: "1"}, 2 * testGrace, 0, false, 0},
		{"no split bits at all", SchedOptions{SplitPolicy: SplitPolicy{Depth: 3}}, single, 2 * testGrace, 0, false, 0},
		{"range halves without bits", SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}}, Cube{From: 0, To: 3}, 2 * testGrace, 0, true, 0},
		{"splitting off", SchedOptions{SplitBits: 4}, Cube{From: 0, To: 3}, 2 * testGrace, 9, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSchedHarness(t, tc.opts)
			a := h.dispatch(tc.cube, "w1")
			h.s.Note(a, tc.hardness)
			h.clock.advance(tc.age)
			got, victim, graceIn := h.idle("w2")
			if got != nil {
				t.Fatalf("idle worker was handed %+v with an empty queue and hedging off", got)
			}
			if (victim != nil) != tc.wantVictim || (victim != nil && victim != a) {
				t.Fatalf("victim %+v, want one: %v", victim, tc.wantVictim)
			}
			if graceIn != tc.wantGrace {
				t.Fatalf("next grace expiry in %v, want %v", graceIn, tc.wantGrace)
			}
		})
	}
}

// The scheduler as a state machine: each case is a script over a fresh
// scheduler on a fake clock.
func TestSchedulerStateMachine(t *testing.T) {
	rng := func(from, to int) Cube { return Cube{From: from, To: to} }
	cases := []struct {
		name   string
		opts   SchedOptions
		script func(t *testing.T, h *schedHarness)
	}{
		{"queue before split before hedge", SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}, Hedge: true}, func(t *testing.T, h *schedHarness) {
			a := h.dispatch(rng(0, 3), "w1")
			h.s.Resume([]Cube{rng(4, 7)})
			h.clock.advance(2 * testGrace)
			// A straggler qualifies, but queued work goes first, in FIFO order.
			b, victim, _ := h.idle("w2")
			if b == nil || victim != nil || b.Cube != rng(4, 7) || b.Hedge {
				t.Fatalf("want the queued cube, got a=%+v victim=%+v", b, victim)
			}
			// Queue empty: a split victim beats a hedge duplicate.
			got, victim, _ := h.idle("w3")
			if got != nil || victim != a {
				t.Fatalf("want w1's cube as split victim, got a=%+v victim=%+v", got, victim)
			}
			// The victim is fenced; b is inside its grace: nothing to do.
			if got, victim, graceIn := h.idle("w4"); got != nil || victim != nil || graceIn != testGrace {
				t.Fatalf("want nothing for %v, got a=%+v victim=%+v graceIn=%v", testGrace, got, victim, graceIn)
			}
		}},
		{"hardest victim, then longest-running", SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}}, func(t *testing.T, h *schedHarness) {
			old := h.dispatch(rng(0, 1), "w1")
			mid := h.dispatch(rng(2, 3), "w2")
			hard := h.dispatch(rng(4, 5), "w3")
			h.s.Note(old, 1)
			h.s.Note(mid, 1)
			h.s.Note(hard, 5)
			h.clock.advance(2 * testGrace)
			for i, want := range []*Assignment{hard, old, mid} {
				if _, victim, _ := h.idle("idle"); victim != want {
					t.Fatalf("victim %d is %+v, want %+v", i, victim, want)
				}
			}
		}},
		{"claim after reserve loses", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, func(t *testing.T, h *schedHarness) {
			parent := h.dispatch(rng(0, 3), "w1")
			h.clock.advance(2 * testGrace)
			// The pre-commit window: while the SPLIT record is being
			// written the parent's own result already loses.
			ff := &ledgerFile{}
			h.s.opts.Journal = openLedgerJournal(t, filepath.Join(t.TempDir(), "run.wal"), ff)
			ff.onWrite = func() {
				if h.s.Claim(parent) {
					t.Error("parent result claimed while its cube was reserved for splitting")
				}
			}
			left := h.s.Acquire("w2", h.cancel)
			if left == nil || left.Cube != rng(0, 1) || left.SplitOf != parent {
				t.Fatalf("stolen child %+v, want {0 1} split off w1's assignment", left)
			}
			if ff.writes != 1 {
				t.Fatalf("%d journal writes for one split, want the SPLIT record", ff.writes)
			}
			ff.onWrite = nil
			if h.s.Live() != 2 {
				t.Fatalf("live leaves %d after one split of one cube, want 2", h.s.Live())
			}
			if !h.s.Claim(left) {
				t.Fatal("left child result rejected")
			}
			right := h.s.Acquire("w1", h.cancel)
			if right == nil || right.Cube != rng(2, 3) || right.SplitOf != nil {
				t.Fatalf("right child not queued: %+v", right)
			}
			if !h.s.Claim(right) {
				t.Fatal("right child result rejected")
			}
			if st := h.s.Summary(); st.Splits != 1 || st.Steals != 1 || st.Superseded != 1 {
				t.Fatalf("stats %+v, want 1 split, 1 steal, 1 superseded", st)
			}
			if a := h.s.Acquire("w1", h.cancel); a != nil {
				t.Fatalf("Acquire returned %+v with every leaf decided", a)
			}
		}},
		{"abort split leaves the parent superseded", SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}}, func(t *testing.T, h *schedHarness) {
			parent := h.dispatch(rng(0, 3), "w1")
			h.clock.advance(2 * testGrace)
			// A journal that cannot take the SPLIT record — and has not
			// merely sealed itself — ends the run.
			j := openLedgerJournal(t, filepath.Join(t.TempDir(), "run.wal"), &ledgerFile{})
			j.Close()
			h.s.opts.Journal = j
			if a := h.s.Acquire("w2", h.cancel); a != nil {
				t.Fatalf("aborted split still handed out %+v", a)
			}
			if h.s.Summary().Err == nil {
				t.Fatal("the failed SPLIT commit is not the run's error")
			}
			if queued := h.s.Close(); len(queued) != 0 || h.s.Summary().Splits != 0 || h.s.Live() != 1 {
				t.Fatalf("aborted split left children behind: queue %v stats %+v live %d", queued, h.s.Summary(), h.s.Live())
			}
			if h.s.Claim(parent) {
				t.Fatal("parent result claimed after its split was reserved")
			}
		}},
		{"hedge loser discarded", SchedOptions{Hedge: true}, func(t *testing.T, h *schedHarness) {
			orig := h.dispatch(rng(0, 1), "w1")
			h.clock.advance(testGrace)
			// A worker never hedges its own cube.
			if a, _, _ := h.idle("w1"); a != nil {
				t.Fatalf("w1 hedged its own cube: %+v", a)
			}
			twin, victim, _ := h.idle("w2")
			if twin == nil || victim != nil || !twin.Hedge || twin.Cube != orig.Cube {
				t.Fatalf("want a hedge duplicate of %v, got a=%+v victim=%+v", orig.Cube, twin, victim)
			}
			// A cube with two running copies is not duplicated again.
			h.clock.advance(2 * testGrace)
			if a, _, _ := h.idle("w3"); a != nil {
				t.Fatalf("cube hedged twice: %+v", a)
			}
			if !h.s.Claim(twin) {
				t.Fatal("hedge winner rejected")
			}
			if !h.wasCancelled(orig) || h.wasCancelled(twin) {
				t.Fatal("want exactly the losing twin cancelled")
			}
			if h.s.Release(orig) {
				t.Fatal("hedge loser was released for requeue; it must be discarded")
			}
			if h.s.Claim(orig) {
				t.Fatal("hedge loser's late result claimed after the twin won")
			}
			if st := h.s.Summary(); st.Hedges != 1 || st.Superseded != 2 || h.s.Live() != 0 {
				t.Fatalf("stats %+v live %d, want 1 hedge, 2 superseded, 0 live", st, h.s.Live())
			}
		}},
		{"release with a racing twin does not requeue", SchedOptions{Hedge: true}, func(t *testing.T, h *schedHarness) {
			orig := h.dispatch(rng(0, 1), "w1")
			h.clock.advance(testGrace)
			twin, _, _ := h.idle("w2")
			if twin == nil {
				t.Fatal("no hedge duplicate")
			}
			if h.s.Release(orig) {
				t.Fatal("cube handed back for requeue while its twin still races")
			}
			if !h.s.Release(twin) {
				t.Fatal("the last copy failed but the cube was not handed back")
			}
			h.s.Requeue(twin.Cube)
			if a, _, _ := h.idle("w3"); a == nil || a.Cube != orig.Cube || a.Hedge {
				t.Fatalf("requeued cube not dispatched: %+v", a)
			}
		}},
		{"acquire returns when the last leaf is decided or abandoned", SchedOptions{}, func(t *testing.T, h *schedHarness) {
			a := h.dispatch(rng(0, 0), "w1")
			b := h.dispatch(rng(1, 1), "w2")
			idle := h.acquireAsync("w3")
			if !h.s.Claim(a) {
				t.Fatal("claim rejected")
			}
			select {
			case got := <-idle:
				t.Fatalf("Acquire returned %+v with a leaf still live", got)
			default:
			}
			if !h.s.Release(b) {
				t.Fatal("a failed sole copy must be handed back")
			}
			h.s.Abandon()
			if got := h.await(idle); got != nil {
				t.Fatalf("Acquire returned %+v after the last leaf was abandoned", got)
			}
		}},
		{"grace expiry wakes a sleeping executor", SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}}, func(t *testing.T, h *schedHarness) {
			h.s.opts.Grace = 5 * time.Millisecond // the wake-up timer runs on the real clock
			parent := h.dispatch(rng(0, 1), "w1")
			idle := h.acquireAsync("w2")
			h.clock.advance(time.Hour)
			if got := h.await(idle); got == nil || got.Cube != rng(0, 0) || !h.wasCancelled(parent) {
				t.Fatalf("want the stolen child {0 0} once the grace ran out, got %+v", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.script(t, newSchedHarness(t, tc.opts)) })
	}
}
