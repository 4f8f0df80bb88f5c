package distrib

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/prog"
)

// giveUpWorker is a hand-rolled protocol worker that answers every job
// with UNKNOWN and the given cause — the wire shape of a solver that
// exhausted that budget, or of a worker that claims it did. It returns
// the budget carried by the first job it saw.
func giveUpWorker(t *testing.T, addr, name, cause string, maxJobs int) journal.Budget {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newConn(c, 5*time.Second)
	defer wc.close()
	if err := wc.send(&Message{Type: "hello", WorkerName: name}); err != nil {
		t.Fatal(err)
	}
	if welcome, err := wc.recv(10 * time.Second); err != nil || welcome.Type != "welcome" {
		t.Fatalf("expected welcome, got %v (%v)", welcome, err)
	}
	var budget journal.Budget
	for jobs := 0; jobs < maxJobs; {
		m, err := wc.recv(10 * time.Second)
		if err != nil {
			return budget // coordinator closed: run is over
		}
		switch m.Type {
		case "job":
			// The run's template follows the connection's first job: read
			// it, as a worker of this build does, before answering — left
			// unread, it makes the close that ends this worker a reset
			// that can beat the answer to the coordinator.
			if _, err := readChunks(func() (*Message, error) { return wc.recv(10 * time.Second) },
				"template", m.JobID, m.TemplateSize, maxTemplateBytes); err != nil {
				t.Fatal(err)
			}
			if jobs == 0 {
				budget = m.budget()
			}
			jobs++
			if err := wc.send(&Message{
				Type: "result", JobID: m.JobID,
				Verdict: sat.Unknown.String(), Winner: -1,
				Cause: cause, Millis: 1,
			}); err != nil {
				t.Fatal(err)
			}
		case "stop":
			return budget
		}
	}
	return budget
}

// memoryWorker is a giveUpWorker that gives up on memory; it returns the
// memory budget its first job carried.
func memoryWorker(t *testing.T, addr, name string, maxJobs int) int64 {
	return giveUpWorker(t, addr, name, "memory", maxJobs).MemMB
}

// A budgeted give-up is terminal only in a run that set the budget its
// cause names. Under a run that set the other two budgets and not that
// one, the give-up says nothing about the cube — a worker's own machine
// ran out, or the worker lies — so it is a failed attempt: re-queued and
// decided elsewhere, charged to the cube's attempt budget (with one
// attempt, the cube is quarantined), and never among Exhausted. Under
// the budget it names, the same word is journaled as terminal.
func TestGiveUpTerminalOnlyUnderItsBudget(t *testing.T) {
	p := prog.MustParse(fibSrc)
	for _, tc := range []struct {
		cause       string
		own, others journal.Budget
	}{
		{"timeout", journal.Budget{Timeout: time.Hour}, journal.Budget{Conflicts: 1 << 40, MemMB: 4096}},
		{"conflict-budget", journal.Budget{Conflicts: 1 << 40}, journal.Budget{Timeout: time.Hour, MemMB: 4096}},
		{"memory", journal.Budget{MemMB: 4096}, journal.Budget{Timeout: time.Hour, Conflicts: 1 << 40}},
	} {
		// run gives a run under budget up to giveUps give-ups, then the
		// cubes left to a real worker, if there is one.
		run := func(t *testing.T, budget journal.Budget, attempts, giveUps int, healthy bool) *CoordinatorResult {
			t.Helper()
			addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
				Unwind: 1, Contexts: 3, Partitions: 2, ChunkSize: 1,
				Budget: budget, MaxAttempts: attempts,
			}))
			if got := giveUpWorker(t, addr, "quitter", tc.cause, giveUps); got != budget {
				t.Fatalf("job carried budget %+v, want the run's %+v", got, budget)
			}
			if healthy {
				go func() {
					_, _ = Work(context.Background(), addr, WorkerOptions{Name: "healthy"})
				}()
			}
			return waitResult(t, resCh)
		}
		t.Run(tc.cause+"/unset", func(t *testing.T) {
			res := run(t, tc.others, 0, 1, true)
			if res.Verdict != core.Safe || res.ChunksDecided != 2 {
				t.Fatalf("verdict %v, %d chunks decided; want SAFE, 2", res.Verdict, res.ChunksDecided)
			}
			if len(res.Exhausted) != 0 || res.Reassigned < 1 || res.MemoryAborted != 0 {
				t.Fatalf("exhausted %+v, %d reassigned, %d memory aborts; want the give-up re-queued, nothing exhausted",
					res.Exhausted, res.Reassigned, res.MemoryAborted)
			}
		})
		t.Run(tc.cause+"/unset-charged", func(t *testing.T) {
			res := run(t, tc.others, 1, 2, false)
			if res.Verdict != core.Unknown || len(res.Quarantined) != 2 || len(res.Exhausted) != 0 || res.MemoryAborted != 0 {
				t.Fatalf("verdict %v, quarantined %+v, exhausted %+v, %d memory aborts; want UNKNOWN with both cubes quarantined, none exhausted",
					res.Verdict, res.Quarantined, res.Exhausted, res.MemoryAborted)
			}
		})
		t.Run(tc.cause+"/set", func(t *testing.T) {
			res := run(t, tc.own, 1, 2, false)
			if res.Verdict != core.Unknown || len(res.Exhausted) != 2 || len(res.Quarantined) != 0 {
				t.Fatalf("verdict %v, exhausted %+v, quarantined %+v; want UNKNOWN with both cubes exhausted, none charged",
					res.Verdict, res.Exhausted, res.Quarantined)
			}
			for _, ex := range res.Exhausted {
				if ex.Rec.Cause != tc.cause {
					t.Fatalf("chunk %v exhausted %q, want %q", ex.Cube, ex.Rec.Cause, tc.cause)
				}
			}
			if want := map[bool]int{true: 2}[tc.cause == "memory"]; res.MemoryAborted != want {
				t.Fatalf("MemoryAborted %d, want %d", res.MemoryAborted, want)
			}
		})
	}
}

// A real worker's OOM watchdog trips mid-job in a run that set a memory
// budget: the trip cancels the job, and the cube is re-queued and
// decided by the roomy worker, never journaled as a memory give-up. The
// squeezed worker's limit is below any heap, so its watchdog trips at
// its first sample; its first job is held past that sample, and it
// leaves on its second.
func TestWatchdogTripRequeuedUnderMemBudget(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 2, ChunkSize: 1,
		Budget: journal.Budget{MemMB: 512}, JournalPath: path,
	}))
	const held = time.Minute
	squeezed := &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultSlow, Slow: held}, {Job: 1, Kind: FaultDrop}}}
	holds := awaitFire(t, squeezed)
	sink := obs.NewCollectorSink()
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "squeezed", MemLimitBytes: 1 << 10, Faults: squeezed, Tracer: obs.NewTracer(sink)})
	}()
	holds()
	roomy := make(chan error, 1)
	go func() {
		_, err := Work(context.Background(), addr, WorkerOptions{Name: "roomy"})
		roomy <- err
	}()
	res := waitResult(t, resCh)
	if err := <-roomy; err != nil {
		t.Errorf("roomy worker: %v", err)
	}
	if res.Verdict != core.Safe || res.ChunksDecided != 2 {
		t.Fatalf("verdict %v, %d chunks decided; want SAFE, 2", res.Verdict, res.ChunksDecided)
	}
	if len(res.Exhausted) != 0 || res.MemoryAborted != 0 || res.Reassigned < 1 {
		t.Fatalf("exhausted %+v, %d memory aborts, %d reassigned; want the tripped cube re-queued",
			res.Exhausted, res.MemoryAborted, res.Reassigned)
	}
	if res.Wall >= held {
		t.Fatalf("the run took %v: the trip did not cut the held job short", res.Wall)
	}
	<-gone
	trips := 0
	for _, e := range sink.Events() {
		if e.Name == "worker_job" && e.Attrs["mem_trip"] != nil {
			trips++
		}
	}
	if trips == 0 {
		t.Fatal("no job span of the squeezed worker records a watchdog trip")
	}
	_, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if !rec.Unsat() {
			t.Fatalf("journal record %+v, want every cube refuted and no memory give-up", rec)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(recs))
	}
}

// A worker whose watchdog trips on every job does not take back the cube
// it just handed back while another worker waits for work: the waiting
// one decides it. The tripping worker holds the run's one cube first, so
// the roomy one is parked in Acquire by the trip, or by the next one if
// it was still connecting; the squeezed worker is charged at most those
// two attempts of the twenty.
func TestTrippedCubeGoesToTheWaitingWorker(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 1, ChunkSize: 1, MaxAttempts: 20,
	}))
	squeezed := SlowAt(time.Minute) // every job, past the watchdog's first sample
	holds := awaitFire(t, squeezed)
	sink := obs.NewCollectorSink()
	gone := make(chan error, 1)
	go func() {
		_, err := Work(context.Background(), addr, WorkerOptions{Name: "squeezed", MemLimitBytes: 1 << 10, Faults: squeezed, Tracer: obs.NewTracer(sink)})
		gone <- err
	}()
	holds()
	roomy := make(chan error, 1)
	go func() {
		_, err := Work(context.Background(), addr, WorkerOptions{Name: "roomy"})
		roomy <- err
	}()
	res := waitResult(t, resCh)
	for name, done := range map[string]chan error{"roomy": roomy, "squeezed": gone} {
		if err := <-done; err != nil {
			t.Errorf("%s worker: %v", name, err)
		}
	}
	if res.Verdict != core.Safe || res.ChunksDecided != 1 || len(res.Quarantined) != 0 {
		t.Fatalf("verdict %v, %d chunks decided, quarantined %+v; want SAFE, 1, none", res.Verdict, res.ChunksDecided, res.Quarantined)
	}
	if w := findWorker(res, "roomy"); w == nil || w.Jobs != 1 {
		t.Fatalf("roomy worker %+v, want it to have decided the cube", w)
	}
	trips := 0
	for _, e := range sink.Events() {
		if e.Name == "worker_job" && e.Attrs["mem_trip"] != nil {
			trips++
		}
	}
	if trips < 1 || trips > 2 || res.Reassigned != trips {
		t.Fatalf("%d watchdog trips, %d reassignments: want one or two, one each", trips, res.Reassigned)
	}
}

// With a configured memory budget the same wire result is a
// deterministic give-up: terminal, journaled with MemBudgetMB pinned,
// replayed on a same-budget resume, and re-queued (then decided) when a
// resume raises the budget.
func TestMemoryBudgetTerminalAndResume(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 2, ChunkSize: 1,
		Budget: journal.Budget{MemMB: 512}, JournalPath: path,
	}
	addr, resCh := startCoordinator(t, p, opts)
	if budget := memoryWorker(t, addr, "oomish", 2); budget != 512 {
		t.Fatalf("job carried memory budget %d, want 512", budget)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Unknown {
		t.Fatalf("verdict %v, want Unknown", res.Verdict)
	}
	if res.MemoryAborted != 2 {
		t.Fatalf("MemoryAborted %d, want 2", res.MemoryAborted)
	}
	if len(res.Exhausted) != 2 {
		t.Fatalf("exhausted %+v, want 2 chunks", res.Exhausted)
	}
	for _, ex := range res.Exhausted {
		if ex.Rec.Cause != "memory" {
			t.Fatalf("chunk %v exhausted %q, want memory", ex.Cube, ex.Rec.Cause)
		}
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("budgeted give-up burned the retry budget: %+v", res.Quarantined)
	}
	_, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Cause != "memory" || rec.MemBudgetMB != 512 {
			t.Fatalf("record %+v, want cause memory with MemBudgetMB 512", rec)
		}
	}

	// Same budget: both exhaustions replay, no worker needed.
	opts.Resume = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Coordinate(context.Background(), ln, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != core.Unknown || res2.Resumed != 2 || res2.Jobs != 0 {
		t.Fatalf("same-budget resume: verdict %v resumed %d jobs %d", res2.Verdict, res2.Resumed, res2.Jobs)
	}

	// Raised budget: the journaled give-ups are superseded; a real
	// worker decides both chunks and the run completes.
	raised := opts
	raised.Budget.MemMB = 1024
	addr, resCh = startCoordinator(t, p, raised)
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "roomy"})
	}()
	res3 := waitResult(t, resCh)
	if res3.Verdict != core.Safe {
		t.Fatalf("raised-budget resume: verdict %v, want SAFE", res3.Verdict)
	}
	if res3.Resumed != 0 || res3.Jobs != 2 {
		t.Fatalf("raised-budget resume: resumed %d jobs %d, want 0/2", res3.Resumed, res3.Jobs)
	}
}
