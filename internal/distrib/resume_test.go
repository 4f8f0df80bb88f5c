package distrib

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/prog"
)

// The kill-and-resume scenario, in-process: the first coordinator loses
// its only worker after two committed chunks and drains out; a second
// coordinator resuming the same journal replays those two verdicts and
// hands out only the remaining chunks. A third, with everything
// committed, decides the run from the journal alone — no workers at all.
func TestDistributedJournalResume(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
		JournalPath: path,
	})
	opts.DrainTimeout = 200 * time.Millisecond

	// Run 1: worker completes jobs 0 and 1, dies on job 2, never returns.
	addr, resCh := startCoordinator(t, p, opts)
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{
			Name: "mortal", Faults: DropAt(2),
		})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Unknown || !res.Drained {
		t.Fatalf("first run: verdict %v drained %v", res.Verdict, res.Drained)
	}
	if res.Jobs != 2 {
		t.Fatalf("first run completed %d jobs, want 2", res.Jobs)
	}
	_, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records after the crash, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Verdict != core.Safe.String() {
			t.Fatalf("record %+v, want SAFE", rec)
		}
	}

	// Run 2: resume with a healthy worker. Only the two uncommitted
	// chunks may be re-solved.
	opts.Resume = true
	addr, resCh = startCoordinator(t, p, opts)
	workerJobs := make(chan int, 1)
	go func() {
		n, _ := Work(context.Background(), addr, WorkerOptions{Name: "healthy"})
		workerJobs <- n
	}()
	res2 := waitResult(t, resCh)
	if res2.Verdict != core.Safe {
		t.Fatalf("resumed run: verdict %v", res2.Verdict)
	}
	if res2.Resumed != 2 {
		t.Fatalf("resumed run replayed %d chunks, want 2", res2.Resumed)
	}
	if res2.Jobs != 2 {
		t.Fatalf("resumed run solved %d jobs, want 2 (committed chunks re-solved?)", res2.Jobs)
	}
	if n := <-workerJobs; n != 2 {
		t.Fatalf("worker ran %d jobs on resume, want 2", n)
	}
	if res2.ChunksTotal != 4 || res2.ChunksDecided != 4 {
		t.Fatalf("coverage %d/%d, want 4/4", res2.ChunksDecided, res2.ChunksTotal)
	}

	// Run 3: the journal is complete; the verdict needs no workers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Coordinate(context.Background(), ln, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Verdict != core.Safe || res3.Resumed != 4 || res3.Jobs != 0 {
		t.Fatalf("journal-only run: verdict %v resumed %d jobs %d", res3.Verdict, res3.Resumed, res3.Jobs)
	}
}

// An UNSAFE verdict is committed before the stop broadcast, so a resume
// replays straight to the counterexample without re-solving anything.
func TestDistributedJournalResumeUnsafe(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := CoordinatorOptions{
		Unwind: 1, Contexts: 4, Partitions: 8, ChunkSize: 2,
		JournalPath: path,
	}
	addr, resCh := startCoordinator(t, p, opts)
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "w"})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Unsafe {
		t.Fatalf("first run: verdict %v", res.Verdict)
	}

	opts.Resume = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Coordinate(context.Background(), ln, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != core.Unsafe || res2.Winner != res.Winner {
		t.Fatalf("resumed run: verdict %v winner %d, want UNSAFE winner %d",
			res2.Verdict, res2.Winner, res.Winner)
	}
	if res2.Jobs != 0 {
		t.Fatalf("resumed run re-solved %d jobs", res2.Jobs)
	}
}

// Reusing a journal path without Resume, or resuming under different
// bounds, is refused before any worker sees a job.
func TestDistributedJournalMismatchRejected(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
		JournalPath: path,
	}
	// Seed the journal with a complete healthy run.
	addr, resCh := startCoordinator(t, p, opts)
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "w"})
	}()
	if res := waitResult(t, resCh); res.Verdict != core.Safe {
		t.Fatalf("seed run: verdict %v", res.Verdict)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	if _, err := Coordinate(context.Background(), ln2, p, opts); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("err %v, want refusal without Resume", err)
	}

	mism := opts
	mism.Resume = true
	mism.Contexts = 4
	if _, err := Coordinate(context.Background(), ln2, p, mism); !errors.Is(err, journal.ErrManifestMismatch) {
		t.Fatalf("err %v, want ErrManifestMismatch", err)
	}
}

// A poison chunk under a per-chunk conflict budget: the worker returns
// a budgeted Unknown, the coordinator journals it and treats it as
// terminal — no retry burn, verdict Unknown with the chunk and budget
// named — and a resume replays the exhaustion instead of retrying it.
func TestDistributedBudgetExhaustedChunks(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	// At unwind 2 / contexts 3, partitions 0 and 1 need real search and
	// partitions 2 and 3 refute by propagation alone, so a 1-conflict
	// budget exhausts exactly two of the four single-partition chunks.
	opts := CoordinatorOptions{
		Unwind: 2, Contexts: 3, Partitions: 4, ChunkSize: 1,
		Budget: journal.Budget{Conflicts: 1}, JournalPath: path,
	}
	addr, resCh := startCoordinator(t, p, opts)
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "w"})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Unknown {
		t.Fatalf("verdict %v, want Unknown", res.Verdict)
	}
	if len(res.Exhausted) != 2 {
		t.Fatalf("exhausted %+v, want 2 chunks", res.Exhausted)
	}
	for _, ex := range res.Exhausted {
		if ex.Rec.Cause != "conflict-budget" {
			t.Fatalf("chunk %v exhausted %q, want conflict-budget", ex.Cube, ex.Rec.Cause)
		}
	}
	if res.ChunksDecided != 2 || res.ChunksTotal != 4 {
		t.Fatalf("coverage %d/%d, want 2/4", res.ChunksDecided, res.ChunksTotal)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("budget exhaustion burned the retry budget: %+v", res.Quarantined)
	}
	for ch, n := range res.Attempts {
		if n != 1 {
			t.Fatalf("chunk %v took %d attempts, want 1", ch, n)
		}
	}

	// Resume under the same budget: all four chunks (two SAFE, two
	// exhausted) replay from the journal; the poison chunks are not
	// retried.
	opts.Resume = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Coordinate(context.Background(), ln, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != core.Unknown || res2.Resumed != 4 || res2.Jobs != 0 {
		t.Fatalf("resumed run: verdict %v resumed %d jobs %d", res2.Verdict, res2.Resumed, res2.Jobs)
	}
	if len(res2.Exhausted) != 2 {
		t.Fatalf("resumed exhausted %+v, want 2 chunks", res2.Exhausted)
	}

	// Resume with the conflict budget lifted: the journaled exhaustions
	// are superseded — the two poison chunks are re-queued to a worker
	// and decide, completing the run the old budget starved.
	raised := opts
	raised.Budget.Conflicts = 0
	addr, resCh = startCoordinator(t, p, raised)
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "w2"})
	}()
	res3 := waitResult(t, resCh)
	if res3.Verdict != core.Safe {
		t.Fatalf("lifted-budget resume: verdict %v, want SAFE", res3.Verdict)
	}
	if res3.Resumed != 2 || res3.Jobs != 2 {
		t.Fatalf("lifted-budget resume: resumed %d jobs %d, want 2/2", res3.Resumed, res3.Jobs)
	}
	if len(res3.Exhausted) != 0 {
		t.Fatalf("lifted-budget resume still exhausted: %+v", res3.Exhausted)
	}
	if res3.ChunksDecided != 4 || res3.ChunksTotal != 4 {
		t.Fatalf("lifted-budget coverage %d/%d, want 4/4", res3.ChunksDecided, res3.ChunksTotal)
	}
}

// A resume counts the leaves and the depth of the tree it replays, not
// the splits that made it: those were the first run's. Here the journal —
// one single-partition SPLIT, every leaf certified Safe — decides the run
// by itself, no worker needed.
func TestJournalResumeCountsOnlyItsOwnSplits(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
		Split:       partition.SplitPolicy{Depth: 2},
		JournalPath: path, Resume: true,
	}
	j, err := journal.Open(path, journal.Manifest{
		ProgramSHA256: journal.HashProgram(prog.Format(p)),
		Unwind:        1, Contexts: 3, Partitions: 4, To: 4, ChunkSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	safe := func(part int, path string) journal.ChunkRecord {
		return journal.ChunkRecord{From: part, To: part, Path: path, Verdict: core.Safe.String(), Winner: -1, Certified: true}
	}
	for _, rec := range []journal.ChunkRecord{
		safe(0, ""),
		{From: 1, To: 1, Verdict: journal.VerdictSplit},
		safe(1, "1"), safe(2, ""), safe(1, "0"), safe(3, ""),
	} {
		if err := j.Commit(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	res, err := Coordinate(context.Background(), listen(t), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Safe || res.Jobs != 0 {
		t.Fatalf("verdict %v after %d jobs, want Safe from the journal alone", res.Verdict, res.Jobs)
	}
	if res.Splits != 0 || res.MaxCubeDepth != 1 {
		t.Fatalf("%d splits, depth %d: want no split of this run's and the replayed depth 1", res.Splits, res.MaxCubeDepth)
	}
	if res.Resumed != 5 || res.ChunksTotal != 5 || res.ChunksDecided != 5 {
		t.Fatalf("resumed %d, coverage %d/%d: want the five leaves", res.Resumed, res.ChunksDecided, res.ChunksTotal)
	}
}
