package distrib

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/prog"
)

// memoryWorker is a hand-rolled protocol worker that answers every job
// with UNKNOWN/cause=memory — the wire shape of a worker whose OOM
// watchdog tripped (no coordinator budget) or whose solver exhausted
// its memory budget (budget propagated on the job). It returns the
// MemBudgetMB carried by the first job it saw.
func memoryWorker(t *testing.T, addr, name string, maxJobs int) int64 {
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
	var budget int64
	for jobs := 0; jobs < maxJobs; {
		m, err := wc.recv(10 * time.Second)
		if err != nil {
			return budget // coordinator closed: run is over
		}
		switch m.Type {
		case "job":
			if jobs == 0 {
				budget = m.MemBudgetMB
			}
			jobs++
			if err := wc.send(&Message{
				Type: "result", JobID: m.JobID,
				Verdict: core.Unknown.String(), Winner: -1,
				Cause: "memory", Millis: 1,
			}); err != nil {
				t.Fatal(err)
			}
		case "stop":
			return budget
		}
	}
	return budget
}

// A "memory" result with no coordinator budget configured is a
// worker-local OOM abort: the chunk is not poison, so it must be
// re-queued (counted, charged to the attempt budget) and decided by a
// worker with headroom — the run still ends definite.
func TestMemoryWatchdogAbortRequeued(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 2, ChunkSize: 1,
	}))
	// One job aborted on memory, then the faker leaves; the healthy
	// worker decides everything, including the re-queued chunk.
	if budget := memoryWorker(t, addr, "oomish", 1); budget != 0 {
		t.Fatalf("job carried memory budget %d, want 0 (none configured)", budget)
	}
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "healthy"})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v, want SAFE", res.Verdict)
	}
	if res.MemoryAborted != 1 {
		t.Fatalf("MemoryAborted %d, want 1", res.MemoryAborted)
	}
	if len(res.Exhausted) != 0 {
		t.Fatalf("watchdog abort treated as terminal exhaustion: %+v", res.Exhausted)
	}
	if res.ChunksDecided != 2 {
		t.Fatalf("decided %d chunks, want 2", res.ChunksDecided)
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

// Heartbeat memory readings at or over the pause ratio must gate
// dispatch, and the gate must reopen once the pressure reading expires
// (a stale reading from an idle worker can never wedge the run).
func TestDispatchPausesUnderMemoryPressure(t *testing.T) {
	p := prog.MustParse(fibSrc)
	opts := fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 2, ChunkSize: 1,
		MemPauseRatio: 0.9,
	})
	addr, resCh := startCoordinator(t, p, opts)

	// A hand-rolled worker reports a near-OOM heartbeat during its first
	// job, then answers it and goes quiet: the pressure reading expires
	// at HeartbeatGrace and the paused dispatcher releases the second
	// chunk to the healthy worker.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newConn(c, 5*time.Second)
	defer wc.close()
	if err := wc.send(&Message{Type: "hello", WorkerName: "pressured"}); err != nil {
		t.Fatal(err)
	}
	if welcome, err := wc.recv(10 * time.Second); err != nil || welcome.Type != "welcome" {
		t.Fatalf("expected welcome, got %v (%v)", welcome, err)
	}
	job, err := wc.recv(10 * time.Second)
	if err != nil || job.Type != "job" {
		t.Fatalf("expected job, got %v (%v)", job, err)
	}
	if err := wc.send(&Message{
		Type: "heartbeat", JobID: job.JobID,
		MemBytes: 990, MemLimit: 1000, // ratio 0.99 >= 0.9: over pressure
	}); err != nil {
		t.Fatal(err)
	}
	// Give the coordinator a beat to fold the reading in before the
	// result frees the serve loop to dispatch the next chunk.
	time.Sleep(50 * time.Millisecond)
	if err := wc.send(&Message{
		Type: "result", JobID: job.JobID,
		Verdict: core.Safe.String(), Winner: -1, Millis: 1,
	}); err != nil {
		t.Fatal(err)
	}

	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "healthy"})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v, want SAFE", res.Verdict)
	}
	if res.DispatchPaused < 1 {
		t.Fatalf("DispatchPaused %d, want >= 1 (pressure never gated dispatch)", res.DispatchPaused)
	}
}
