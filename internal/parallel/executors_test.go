package parallel_test

import (
	"context"
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

// foldJournal replays a run journal over the four whole-partition roots
// and folds the leaves: every live leaf must carry a definite verdict,
// and the fold is "safe" iff all of them refute their cube.
func foldJournal(t *testing.T, path string, nparts int) (verdict string, leaves, splits int) {
	t.Helper()
	_, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]partition.Cube, nparts)
	for i := range roots {
		roots[i] = partition.Cube{From: i, To: i}
	}
	live := partition.Replay(roots, recs)
	verdict = "safe"
	for _, l := range live {
		if l.Rec == nil {
			t.Fatalf("%s: leaf %v of the replayed cube tree is undecided", path, l.Cube)
		}
		switch l.Rec.Verdict {
		case "UNSAT", "SAFE": // the runner journals solver statuses, the coordinator verdicts
		case "SAT", "UNSAFE":
			verdict = "unsafe"
		default:
			t.Fatalf("%s: leaf %v journaled %q", path, l.Cube, l.Rec.Verdict)
		}
	}
	return verdict, len(live), len(live) - nparts
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
