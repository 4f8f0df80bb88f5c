package parallel

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/sat"
)

// A memory-budget exhaustion is terminal only under its own budget,
// exactly like a conflict budget: journaled with the budget pinned,
// replayed on a same-budget resume, re-solved to a definite verdict
// when the budget is lifted.
func TestJournalMemBudgetRaiseResolves(t *testing.T) {
	// PHP(7) padded with a huge variable set: the irreducible base
	// footprint (14000 vars × 85 B of per-variable state) alone exceeds
	// the 1 MiB budget, so every instance must stop with CauseMemory at
	// its first conflict — learnt-DB shrinking cannot recover base
	// footprint, and the pass that would drop the padding does not fit
	// the budget either. The padding clause is a free unit, so the
	// lifted-budget verdict stays UNSAT.
	f := pigeonhole(7)
	f.AddClause(cnf.PosLit(14000))
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 4)
	res, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{MemMB: 1}, Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("first run: status %v, want Unknown", res.Status)
	}
	for _, inst := range res.Instances {
		if inst.Cause != sat.CauseMemory {
			t.Fatalf("partition %d: cause %v, want memory", inst.Partition, inst.Cause)
		}
	}
	if j.Commits() != 4 {
		t.Fatalf("first run committed %d records, want 4", j.Commits())
	}
	for _, rec := range j.Committed() {
		if rec.Verdict != "UNKNOWN" || rec.Cause != "memory" || rec.MemBudgetMB != 1 {
			t.Fatalf("record %+v, want UNKNOWN/memory with MemBudgetMB 1", rec)
		}
	}
	j.Close()

	// Same budget: the exhaustions replay, nothing is re-solved.
	j2 := openTestJournal(t, path, 4)
	res2, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{MemMB: 1}, Journal: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Unknown || res2.Resumed != 4 {
		t.Fatalf("same-budget resume: status %v resumed %d, want Unknown/4", res2.Status, res2.Resumed)
	}
	j2.Close()

	// Lifted budget: every exhausted partition is re-solved to UNSAT.
	j3 := openTestJournal(t, path, 4)
	res3, err := Solve(context.Background(), f, parts, Options{Workers: 2, Journal: j3})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Status != sat.Unsat {
		t.Fatalf("lifted-budget resume: status %v, want Unsat", res3.Status)
	}
	if res3.Resumed != 0 {
		t.Fatalf("lifted-budget resume replayed %d stale exhaustions", res3.Resumed)
	}
	j3.Close()
}

// TestSolveProgressCallback wires a live-progress hook through the
// runner down to the CDCL loop of every partition.
func TestSolveProgressCallback(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]sat.Stats{}
	res, err := Solve(context.Background(), pigeonhole(7), partitionsOn([]cnf.Var{1, 2}, 4), Options{
		Workers: 2, ProgressEvery: 1,
		Progress: func(partition int, st sat.Stats) {
			mu.Lock()
			seen[partition] = st
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("progress heard from %d of 4 partitions", len(seen))
	}
	for i, st := range seen {
		if st.Conflicts == 0 {
			t.Fatalf("partition %d: last snapshot has no conflicts: %+v", i, st)
		}
	}
}
