package partition

import (
	"path/filepath"
	"runtime"
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

// parked waits until n executors are parked in Acquire.
func (h *schedHarness) parked(n int) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h.s.mu.Lock()
		waiting := h.s.waiting
		h.s.mu.Unlock()
		if waiting == n {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("%d executors parked in Acquire, want %d", waiting, n)
		}
		runtime.Gosched()
	}
}

// requeueUnheard puts a's cube back as Requeue does but wakes nobody:
// what an executor finds when it looks for work before a parked one has
// woken to Requeue's broadcast.
func (h *schedHarness) requeueUnheard(a *Assignment) {
	h.s.mu.Lock()
	h.s.queue = append(h.s.queue, a.Cube)
	h.s.returned[a.Cube] = a.Worker
	h.s.mu.Unlock()
}

// wakeAll delivers the broadcast requeueUnheard held back.
func (h *schedHarness) wakeAll() {
	h.s.mu.Lock()
	h.s.wake.Broadcast()
	h.s.mu.Unlock()
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

// The split gate, one in-flight cube at a time: grace, depth cap and
// split-bit supply each keep a cube from being split, and only a cube
// still inside its grace arms the timer.
func TestSchedulerSplitGate(t *testing.T) {
	single := Cube{From: 3, To: 3}
	cases := []struct {
		name       string
		opts       SchedOptions
		cube       Cube
		age        time.Duration
		wantVictim bool
		wantGrace  time.Duration
	}{
		{"inside grace", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, single, testGrace - 5*time.Second, false, 5 * time.Second},
		{"at grace", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, single, testGrace, true, 0},
		{"under depth cap", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, Cube{From: 3, To: 3, Path: "0"}, 2 * testGrace, true, 0},
		{"at depth cap", SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 4}, Cube{From: 3, To: 3, Path: "01"}, 2 * testGrace, false, 0},
		{"split bits run out", SchedOptions{SplitPolicy: SplitPolicy{Depth: 3}, SplitBits: 1}, Cube{From: 3, To: 3, Path: "1"}, 2 * testGrace, false, 0},
		{"no split bits at all", SchedOptions{SplitPolicy: SplitPolicy{Depth: 3}}, single, 2 * testGrace, false, 0},
		{"range halves without bits", SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}}, Cube{From: 0, To: 3}, 2 * testGrace, true, 0},
		{"splitting off", SchedOptions{SplitBits: 4}, Cube{From: 0, To: 3}, 2 * testGrace, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSchedHarness(t, tc.opts)
			a := h.dispatch(tc.cube, "w1")
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

// Note turns a cube's counters into its hardness since dispatch on the
// scheduler's clock: 100 conflicts and progress 0.5 two seconds after
// dispatch are 50 conflicts/s discounted by a progress slope of 0.25/s.
func TestSchedulerNoteHardnessSinceDispatch(t *testing.T) {
	h := newSchedHarness(t, SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}})
	a := h.dispatch(Cube{From: 0, To: 1}, "w1")
	h.clock.advance(2 * time.Second)
	if got := h.s.Note(a, 100, 0.5); got != 37.5 {
		t.Fatalf("Note returned %v, want 37.5", got)
	}
	if a.Hardness != 37.5 {
		t.Fatalf("assignment keeps hardness %v, want 37.5", a.Hardness)
	}
}

// TestHardnessMonotoneInConflictRate: for a fixed interval and progress
// delta, a rising conflict count must never lower the hardness score.
func TestHardnessMonotoneInConflictRate(t *testing.T) {
	const dt = 500 * time.Millisecond
	for _, slope := range []float64{0, 0.001, 0.01, 0.2} {
		prev := 0.0
		for conflicts := int64(0); conflicts <= 10000; conflicts += 250 {
			h := Hardness(conflicts, slope, dt)
			if h < prev {
				t.Fatalf("hardness decreased under rising conflict rate: slope=%v conflicts=%d: %v < %v",
					slope, conflicts, h, prev)
			}
			prev = h
		}
	}
	// Stalled progress must score at least as hard as moving progress.
	if Hardness(1000, 0.4, time.Second) > Hardness(1000, 0, time.Second) {
		t.Fatal("progressing instance scored harder than a stalled one")
	}
	// Degenerate inputs score zero.
	if Hardness(100, 0, 0) != 0 || Hardness(0, 0, time.Second) != 0 {
		t.Fatal("degenerate hardness inputs must score 0")
	}
	// Slope clamps at 1/s: hardness never goes negative.
	if h := Hardness(10, 5, time.Second); h < 0 {
		t.Fatalf("hardness went negative under steep slope: %v", h)
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
			// One second later the three have run 3, 2 and 1 s: old and mid
			// at the same rate, hard at five times it.
			h.clock.advance(time.Second)
			h.s.Note(old, 300, 0)
			h.s.Note(mid, 200, 0)
			h.s.Note(hard, 500, 0)
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
			h.s.Requeue(twin)
			if a, _, _ := h.idle("w3"); a == nil || a.Cube != orig.Cube || a.Hedge {
				t.Fatalf("requeued cube not dispatched: %+v", a)
			}
		}},
		{"a requeued cube goes to a waiting executor first", SchedOptions{}, func(t *testing.T, h *schedHarness) {
			a := h.dispatch(rng(0, 0), "w1")
			waiting := h.acquireAsync("w2")
			h.parked(1)
			if !h.s.Release(a) {
				t.Fatal("a failed sole copy must be handed back")
			}
			h.s.Requeue(a)
			if got, _, _ := h.idle("w1"); got != nil {
				t.Fatalf("w1 took back the cube it gave up while w2 waits: %+v", got)
			}
			b := h.await(waiting)
			if b == nil || b.Cube != a.Cube || b.Worker != "w2" {
				t.Fatalf("the waiting executor got %+v", b)
			}
			// With nobody waiting, whoever gave a cube up takes it back.
			if !h.s.Release(b) {
				t.Fatal("a failed sole copy must be handed back")
			}
			h.s.Requeue(b)
			if c, _, _ := h.idle("w2"); c == nil || c.Cube != a.Cube {
				t.Fatalf("requeued cube not dispatched to its only executor: %+v", c)
			}
		}},
		{"a requeued cube is not passed between two executors of one name", SchedOptions{}, func(t *testing.T, h *schedHarness) {
			// A worker that redialled under its name while its old
			// connection still waits in Acquire.
			a := h.dispatch(rng(0, 0), "w1")
			old := h.acquireAsync("w1")
			h.parked(1)
			if !h.s.Release(a) {
				t.Fatal("a failed sole copy must be handed back")
			}
			h.requeueUnheard(a)
			got, _, _ := h.idle("w1")
			if got == nil || got.Cube != a.Cube {
				t.Fatalf("the only waiter has the same name, but the cube was passed over: %+v", got)
			}
			if !h.s.Claim(got) {
				t.Fatal("claim rejected")
			}
			if b := h.await(old); b != nil {
				t.Fatalf("Acquire returned %+v after the last leaf was decided", b)
			}
		}},
		{"a cube passed over is taken once the other waiter is served", SchedOptions{}, func(t *testing.T, h *schedHarness) {
			a := h.dispatch(rng(0, 0), "w1")
			b := h.dispatch(rng(1, 1), "w1")
			w2 := h.acquireAsync("w2")
			h.parked(1)
			for _, x := range []*Assignment{a, b} {
				if !h.s.Release(x) {
					t.Fatal("a failed sole copy must be handed back")
				}
				h.requeueUnheard(x)
			}
			if got, _, _ := h.idle("w1"); got != nil {
				t.Fatalf("w1 took back a cube it gave up while w2 waits: %+v", got)
			}
			w1 := h.acquireAsync("w1")
			h.parked(2)
			h.wakeAll()
			// w2 takes one cube; w1, parked again if it woke first, must
			// then take the other.
			got2, got1 := h.await(w2), h.await(w1)
			if got2 == nil || got1 == nil || got2.Worker != "w2" || got1.Worker != "w1" || got1.Cube == got2.Cube {
				t.Fatalf("w2 got %+v, w1 got %+v", got2, got1)
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
