package parallel

import (
	"context"
	"path/filepath"
	"testing"
	"time"

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
	// footprint (≈12000 vars × 128 B) alone exceeds the 1 MiB budget, so
	// every instance must stop with CauseMemory at its first conflict —
	// learnt-DB shrinking cannot recover base footprint. The padding
	// clause is a free unit, so the lifted-budget verdict stays UNSAT.
	f := pigeonhole(7)
	f.AddClause(cnf.PosLit(12000))
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

// The external MemAbort kill-switch (an RSS watchdog trip) must stop
// every live instance with CauseMemory — distinguishable from both
// cancellation and the other budget causes — and win the race against
// instances that register after the switch fires.
func TestMemAbortKillSwitch(t *testing.T) {
	f := pigeonhole(9) // far beyond a 50ms head start
	parts := partitionsOn([]cnf.Var{1}, 2)
	memAbort := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(memAbort)
	}()
	res, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, MemAbort: memAbort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
	for _, inst := range res.Instances {
		if inst.Cause != sat.CauseMemory {
			t.Fatalf("partition %d: cause %v, want memory", inst.Partition, inst.Cause)
		}
	}
}
