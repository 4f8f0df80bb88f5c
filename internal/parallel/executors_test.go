package parallel_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/prog"
)

const twoThreadSrc = `
int i, j;
void t1() { int k = 0; while (k < 2) { i = i + j; k = k + 1; } }
void t2() { int k = 0; while (k < 2) { j = j + i; k = k + 1; } }
void main() {
  int tid1, tid2;
  i = 1; j = 1;
  tid1 = create(t1); tid2 = create(t2);
  join(tid1); join(tid2);
  assert(j < 40); assert(i < 40);
}
`

// foldJournal resumes a scheduler from a finished run's journal over the
// whole-partition roots — the intake and the fold either executor runs —
// and requires a fully decided cube tree.
func foldJournal(t *testing.T, path string, nparts int) (verdict string, leaves, splits int) {
	t.Helper()
	m, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	roots := make([]partition.Cube, nparts)
	for i := range roots {
		roots[i] = partition.Cube{From: i, To: i}
	}
	sched := partition.NewScheduler(partition.SchedOptions{Journal: j, Paths: true})
	sched.Resume(roots)
	sum := sched.Summary()
	if sum.Live != 0 || len(sum.Exhausted) != 0 || sum.Resumed != sum.Total {
		t.Fatalf("%s: the replayed cube tree is not fully decided: %+v", path, sum)
	}
	return partition.Verdict(sum, "unsafe", "safe", "unknown"), sum.Total, sum.Total - nparts
}

// The two executors of the one cube scheduler must tell the same story:
// the same formula, split adaptively by the goroutine runner and by a
// loopback coordinator with two TCP workers, leaves two journals that
// both replay to fully decided cube trees with the same folded verdict.
func TestSplitJournalsAgreeAcrossExecutors(t *testing.T) {
	p := prog.MustParse(twoThreadSrc)
	const nparts = 4
	copts := core.Options{Unwind: 2, Contexts: 5, Partitions: nparts}
	enc, _, _, err := core.EncodeProgram(p, copts)
	if err != nil {
		t.Fatal(err)
	}
	parts, total, err := core.MakePartitions(enc, copts)
	if err != nil {
		t.Fatal(err)
	}
	splitLits := partition.SplitLits(enc, total)
	if len(parts) != nparts || len(splitLits) < 2 {
		t.Fatalf("%d partitions, %d split bits: the program no longer supports the scenario", len(parts), len(splitLits))
	}
	dir := t.TempDir()

	// Goroutine executor.
	local := filepath.Join(dir, "local.wal")
	jnl, err := journal.Open(local, journal.Manifest{
		ProgramSHA256: journal.HashProgram(prog.Format(p)),
		Unwind:        copts.Unwind, Contexts: copts.Contexts, Partitions: nparts, To: nparts,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := parallel.Solve(context.Background(), enc.Formula(), parts, parallel.Options{
		Workers: 2, Journal: jnl,
		Split: partition.SplitPolicy{Depth: 2, Grace: time.Millisecond}, SplitLits: splitLits,
	})
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	// TCP executor: loopback coordinator, one worker sleeping on its first
	// job so that the other one has a straggler to split.
	remote := filepath.Join(dir, "remote.wal")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, w := range []distrib.WorkerOptions{
		{Name: "slow", Cores: 1, Faults: distrib.SlowAt(2*time.Second, 0)},
		{Name: "fast", Cores: 1},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := distrib.Work(context.Background(), ln.Addr().String(), w); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	cres, err := distrib.Coordinate(context.Background(), ln, p, distrib.CoordinatorOptions{
		Unwind: copts.Unwind, Contexts: copts.Contexts, Partitions: nparts, ChunkSize: 1,
		Split:             partition.SplitPolicy{Depth: 2, Grace: 100 * time.Millisecond},
		HeartbeatInterval: 50 * time.Millisecond,
		JournalPath:       remote,
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	lv, lLeaves, lSplits := foldJournal(t, local, nparts)
	rv, rLeaves, rSplits := foldJournal(t, remote, nparts)
	t.Logf("goroutine executor: %s, %d leaves, %d splits; TCP executor: %s, %d leaves, %d splits",
		lv, lLeaves, lSplits, rv, rLeaves, rSplits)
	if lv != rv || lv != "safe" {
		t.Fatalf("folded verdicts: goroutine executor %s, TCP executor %s, want both safe", lv, rv)
	}
	if res.Status.String() != "UNSAT" || cres.Verdict != core.Safe {
		t.Fatalf("run results %v / %v disagree with their journals", res.Status, cres.Verdict)
	}
	if lSplits != res.Splits || rSplits != cres.Splits {
		t.Fatalf("journaled splits %d/%d, reported %d/%d", lSplits, rSplits, res.Splits, cres.Splits)
	}
	if cres.Splits < 1 {
		t.Fatalf("the TCP executor never split the 2s straggler's cube")
	}
}

// Kill the coordinator after any number of commits: for every k, a
// loopback coordinator resumed from the first k records of a finished
// run's journal — four one-partition chunks, certified — reaches the same
// verdict, replays exactly those k, hands out only the others and leaves
// a journal that replays to a fully decided tree. (The goroutine
// executor's cut, splits included, is TestJournalResumeAtEveryRecordBoundary
// beside the runner.)
func TestJournalResumeAtEveryRecordBoundaryDistributed(t *testing.T) {
	p := prog.MustParse(twoThreadSrc)
	const nparts = 4
	run := func(path string, resume bool) *distrib.CoordinatorResult {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// A journal that decides the run closes the listener before the
			// worker's dial: its error is not the test's business.
			_, _ = distrib.Work(context.Background(), ln.Addr().String(), distrib.WorkerOptions{Name: "w", Cores: 1})
		}()
		res, err := distrib.Coordinate(context.Background(), ln, p, distrib.CoordinatorOptions{
			Unwind: 2, Contexts: 5, Partitions: nparts, ChunkSize: 1,
			JournalPath: path, Resume: resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		<-done
		return res
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	first := run(full, false)
	m, recs, err := journal.Read(full)
	if err != nil {
		t.Fatal(err)
	}
	if first.Verdict != core.Safe || first.Jobs != nparts || len(recs) != nparts {
		t.Fatalf("first run: %v after %d jobs, %d records", first.Verdict, first.Jobs, len(recs))
	}
	for k := 0; k <= len(recs); k++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.wal", k))
		j, err := journal.Open(path, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs[:k] {
			if err := j.Commit(rec); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		res := run(path, true)
		if res.Verdict != first.Verdict || res.Resumed != k || res.Jobs != nparts-k {
			t.Fatalf("k=%d: %v with %d replayed and %d jobs, want %v with %d and %d",
				k, res.Verdict, res.Resumed, res.Jobs, first.Verdict, k, nparts-k)
		}
		if v, leaves, _ := foldJournal(t, path, nparts); v != "safe" || leaves != nparts {
			t.Fatalf("k=%d: final journal folds to %s over %d leaves", k, v, leaves)
		}
		if _, final, _ := journal.Read(path); len(final) != nparts {
			t.Fatalf("k=%d: final journal holds %d records, want one per chunk: %+v", k, len(final), final)
		}
	}
}
