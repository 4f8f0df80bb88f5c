package parallel

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

func testManifest(nparts int) journal.Manifest {
	return journal.Manifest{
		ProgramSHA256: journal.HashProgram("parallel-test"),
		Unwind:        1, Contexts: 2, Width: 8, Partitions: nparts,
	}
}

func openTestJournal(t *testing.T, path string, nparts int) *journal.Journal {
	t.Helper()
	j, err := journal.Open(path, testManifest(nparts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// A deliberately hard chunk under a tiny conflict budget: every
// instance must degrade to Unknown with the conflict budget named, and
// the run must complete instead of grinding through PHP search.
func TestChunkConflictBudgetExhausts(t *testing.T) {
	f := pigeonhole(7)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{Conflicts: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
	for _, inst := range res.Instances {
		if inst.Status != sat.Unknown {
			t.Fatalf("partition %d: status %v", inst.Partition, inst.Status)
		}
		if inst.Cause != sat.CauseConflictBudget {
			t.Fatalf("partition %d: cause %v, want conflict-budget", inst.Partition, inst.Cause)
		}
	}
}

// A deliberately hard chunk under a small wall-clock budget: the run
// completes within the budget (plus slack), reporting per-chunk Unknown
// with the timeout named — the acceptance scenario for poison chunks.
func TestChunkTimeoutExhausts(t *testing.T) {
	f := pigeonhole(9) // far beyond a 30ms budget
	parts := partitionsOn([]cnf.Var{1}, 2)
	start := time.Now()
	res, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{Timeout: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v: wall-clock budget did not bound the chunk", elapsed)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
	for _, inst := range res.Instances {
		if inst.Cause != sat.CauseTimeout {
			t.Fatalf("partition %d: cause %v, want timeout", inst.Partition, inst.Cause)
		}
	}
}

// onFirstProgress is a Progress hook that calls fire once, at the first
// report of any instance: once a search is under way, not after a guess
// at how long that takes.
func onFirstProgress(fire func()) func(int, sat.Stats) {
	var once sync.Once
	return func(int, sat.Stats) { once.Do(fire) }
}

// Context cancellation must be distinguishable from budget exhaustion:
// cancelled instances carry CauseCancelled, not a budget cause.
func TestCancelledCauseDistinct(t *testing.T) {
	f := pigeonhole(9)
	parts := partitionsOn([]cnf.Var{1}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Solve(ctx, f, parts, Options{Workers: 2, Progress: onFirstProgress(cancel), ProgressEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
	sawCancelled := false
	for _, inst := range res.Instances {
		if inst.Status != sat.Unknown {
			continue
		}
		if inst.Cause.Budgeted() {
			t.Fatalf("partition %d: cancellation misreported as %v", inst.Partition, inst.Cause)
		}
		if inst.Cause == sat.CauseCancelled {
			sawCancelled = true
		}
	}
	if !sawCancelled {
		t.Fatal("no instance reported CauseCancelled after context cancellation")
	}
}

// First run journals every UNSAT verdict; the resumed run replays them
// without re-solving (zero search statistics, Resumed flags set).
func TestJournalResumeSkipsCommitted(t *testing.T) {
	f := pigeonhole(5)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 4)
	res, err := Solve(context.Background(), f, parts, Options{Workers: 4, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat || res.Resumed != 0 {
		t.Fatalf("first run: status %v resumed %d", res.Status, res.Resumed)
	}
	if j.Commits() != 4 {
		t.Fatalf("first run committed %d records, want 4", j.Commits())
	}
	j.Close()

	j2 := openTestJournal(t, path, 4)
	res2, err := Solve(context.Background(), f, parts, Options{Workers: 4, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Unsat {
		t.Fatalf("resumed run: status %v", res2.Status)
	}
	if res2.Resumed != 4 {
		t.Fatalf("resumed run replayed %d instances, want 4", res2.Resumed)
	}
	for _, inst := range res2.Instances {
		if !inst.Resumed {
			t.Fatalf("partition %d was re-solved on resume", inst.Partition)
		}
		if inst.Stats.Decisions != 0 || inst.Stats.Conflicts != 0 {
			t.Fatalf("partition %d has search stats on resume: %+v", inst.Partition, inst.Stats)
		}
	}
	if j2.Commits() != 4 {
		t.Fatalf("resume re-committed: %d records", j2.Commits())
	}
}

// A journaled SAT verdict resumes to Sat with a freshly derived model
// (models are not journaled), preserving the winning partition.
func TestJournalResumeSatPartition(t *testing.T) {
	f := cnf.New()
	f.AddClause(cnf.PosLit(1)) // forces partition 1 (v1 true)
	f.AddClause(cnf.PosLit(2), cnf.PosLit(3))
	parts := partitionsOn([]cnf.Var{1}, 2)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 2)
	res, err := Solve(context.Background(), f, parts, Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat || res.Winner != 1 {
		t.Fatalf("first run: status %v winner %d", res.Status, res.Winner)
	}
	j.Close()

	j2 := openTestJournal(t, path, 2)
	res2, err := Solve(context.Background(), f, parts, Options{Workers: 1, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Sat || res2.Winner != 1 {
		t.Fatalf("resumed run: status %v winner %d", res2.Status, res2.Winner)
	}
	if res2.Model == nil || !res2.Model[0] {
		t.Fatalf("resumed run model %v, want v1 true", res2.Model)
	}
}

// Budget-exhausted verdicts are journaled (they are deterministic under
// the same budgets), cancelled ones are not (they are in-flight work a
// resume must redo).
func TestJournalCommitPolicy(t *testing.T) {
	f := pigeonhole(7)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 4)
	if _, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{Conflicts: 5}, Journal: j,
	}); err != nil {
		t.Fatal(err)
	}
	recs := j.Committed()
	if len(recs) != 4 {
		t.Fatalf("budget exhaustions committed %d records, want 4", len(recs))
	}
	for _, rec := range recs {
		if rec.Verdict != "UNKNOWN" || rec.Cause != "conflict-budget" {
			t.Fatalf("record %+v, want UNKNOWN/conflict-budget", rec)
		}
	}
	j.Close()

	// Cancelled instances: nothing further is committed.
	path2 := filepath.Join(t.TempDir(), "run2.wal")
	j2 := openTestJournal(t, path2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, pigeonhole(9), partitionsOn([]cnf.Var{1}, 2), Options{
		Workers: 2, Journal: j2,
	}); err != nil {
		t.Fatal(err)
	}
	if j2.Commits() != 0 {
		t.Fatalf("cancelled run committed %d records, want 0", j2.Commits())
	}
}

// Simulate honours the same budget/cause contract as Solve.
func TestSimulateConflictBudget(t *testing.T) {
	f := pigeonhole(7)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Simulate(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{Conflicts: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
	for _, inst := range res.Instances {
		if inst.Cause != sat.CauseConflictBudget {
			t.Fatalf("partition %d: cause %v", inst.Partition, inst.Cause)
		}
	}
}

// Simulate resumes from a journal written by Solve: the two paths share
// one record format.
func TestSimulateResumesFromSolveJournal(t *testing.T) {
	f := pigeonhole(5)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 4)
	if _, err := Solve(context.Background(), f, parts, Options{Workers: 4, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openTestJournal(t, path, 4)
	res, err := Simulate(context.Background(), f, parts, Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat || res.Resumed != 4 {
		t.Fatalf("simulate resume: status %v resumed %d", res.Status, res.Resumed)
	}
}

// Partial resume: committed records scattered among uncommitted
// partitions — the normal post-crash shape. The replay happens before
// any solver goroutine starts, so this is race-clean under -race, and
// the uncommitted partitions are the only ones re-solved.
func TestJournalPartialResumeScattered(t *testing.T) {
	f := pigeonhole(5)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	path := filepath.Join(t.TempDir(), "run.wal")

	// Hand-build a crash's journal: partitions 0 and 2 committed, 1 and
	// 3 in-flight (absent).
	j := openTestJournal(t, path, 4)
	for _, idx := range []int{0, 2} {
		if err := j.Commit(journal.ChunkRecord{
			From: idx, To: idx, Verdict: "UNSAT", Winner: -1, Millis: 3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2 := openTestJournal(t, path, 4)
	res, err := Solve(context.Background(), f, parts, Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status %v, want Unsat", res.Status)
	}
	if res.Resumed != 2 {
		t.Fatalf("resumed %d partitions, want 2", res.Resumed)
	}
	if len(res.Instances) != 4 {
		t.Fatalf("%d instances, want 4", len(res.Instances))
	}
	for _, inst := range res.Instances {
		replayed := inst.Partition == 0 || inst.Partition == 2
		if inst.Resumed != replayed {
			t.Fatalf("partition %d: Resumed = %v", inst.Partition, inst.Resumed)
		}
	}
	if j2.Commits() != 4 {
		t.Fatalf("journal holds %d records after resume, want 4", j2.Commits())
	}
}

// A journaled SAT verdict that does not re-derive (journal and formula
// disagree) must fail the run, not silently fall back to the UNSAT
// default — that would be a safety inversion.
func TestJournalSatRederiveMismatchFails(t *testing.T) {
	f := cnf.New()
	f.AddClause(cnf.PosLit(1)) // partition 0 (v1 false) is UNSAT
	f.AddClause(cnf.PosLit(2), cnf.PosLit(3))
	parts := partitionsOn([]cnf.Var{1}, 2)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 2)
	if err := j.Commit(journal.ChunkRecord{From: 0, To: 0, Verdict: "SAT", Winner: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(context.Background(), f, parts, Options{Workers: 1, Journal: j}); err == nil {
		t.Fatal("resume against a disagreeing SAT record succeeded")
	}
}

// The model re-derivation for a journaled SAT verdict must not be cut
// short by this run's budgets: a committed counterexample outranks a
// smaller -chunk-conflicts on the resume command line. The formula is
// pigeonhole(7) with every clause weakened by one guard literal:
// satisfiable (guard true), but only after the search has refuted the
// pigeonhole core, which takes far more than the one conflict allowed.
func TestRederiveUnbudgeted(t *testing.T) {
	php := pigeonhole(7)
	guard := cnf.PosLit(cnf.Var(php.NumVars + 1))
	f := cnf.New()
	for _, c := range php.Clauses {
		f.AddClause(append(append([]cnf.Lit{}, c...), guard)...)
	}
	parts := []partition.Partition{{Index: 0}}
	tight := Options{Workers: 1, Budget: journal.Budget{Conflicts: 1}}
	if res, err := Solve(context.Background(), f, parts, tight); err != nil || res.Status != sat.Unknown {
		t.Fatalf("under a 1-conflict budget: status %v, err %v; want Unknown (the test needs a model that costs conflicts)", res.Status, err)
	}

	j := openTestJournal(t, filepath.Join(t.TempDir(), "run.wal"), 1)
	if err := j.Commit(journal.ChunkRecord{From: 0, To: 0, Verdict: "SAT", Winner: 0}); err != nil {
		t.Fatal(err)
	}
	tight.Journal = j
	res, err := Solve(context.Background(), f, parts, tight)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat || res.Resumed != 1 || res.Model == nil || !res.Model[guard.Var()-1] {
		t.Fatalf("resumed SAT record: status %v resumed %d model %v, want Sat with the guard true", res.Status, res.Resumed, res.Model)
	}
}

// A journal written by the commit before journal.Budget existed (one
// UNSAT record, three conflict-budget give-ups pinned under
// -chunk-timeout 10m -chunk-conflicts 5 -mem-budget 4096) resumes: the
// pins still bind a run with the same budget and still yield to one that
// lifts the exhausted part.
func TestParentWrittenJournalResumes(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_run.wal"))
	if err != nil {
		t.Fatal(err)
	}
	f := pigeonhole(7)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	same := journal.Budget{Timeout: 10 * time.Minute, Conflicts: 5, MemMB: 4096}
	lifted := same
	lifted.Conflicts = 0
	for _, c := range []struct {
		name    string
		b       journal.Budget
		status  sat.Status
		resumed int
	}{
		{"same budget replays every record", same, sat.Unknown, 4},
		{"lifted conflict budget re-solves the give-ups", lifted, sat.Unsat, 1},
	} {
		path := filepath.Join(t.TempDir(), "run.wal")
		if err := os.WriteFile(path, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		j := openTestJournal(t, path, 4)
		if j.Commits() != 4 || j.TruncatedBytes() != 0 {
			t.Fatalf("%s: fixture loads %d records with %d torn bytes, want 4 and 0", c.name, j.Commits(), j.TruncatedBytes())
		}
		res, err := Solve(context.Background(), f, parts, Options{Workers: 2, Budget: c.b, Journal: j})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Status != c.status || res.Resumed != c.resumed {
			t.Errorf("%s: status %v resumed %d, want %v/%d", c.name, res.Status, res.Resumed, c.status, c.resumed)
		}
	}
}

// A budget-exhausted verdict is terminal only under its own budgets:
// replayed when resumed with the same budget, re-solved (to a definite
// verdict) when the budget is lifted.
func TestJournalBudgetRaiseResolves(t *testing.T) {
	f := pigeonhole(7)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 4)
	if _, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{Conflicts: 5}, Journal: j,
	}); err != nil {
		t.Fatal(err)
	}
	if j.Commits() != 4 {
		t.Fatalf("first run committed %d records, want 4", j.Commits())
	}
	for _, rec := range j.Committed() {
		if rec.Conflicts != 5 {
			t.Fatalf("record %+v does not pin the conflict budget", rec)
		}
	}
	j.Close()

	// Same budget: the exhaustions replay, nothing is re-solved.
	j2 := openTestJournal(t, path, 4)
	res, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, Budget: journal.Budget{Conflicts: 5}, Journal: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown || res.Resumed != 4 {
		t.Fatalf("same-budget resume: status %v resumed %d, want Unknown/4", res.Status, res.Resumed)
	}
	j2.Close()

	// Lifted budget: every exhausted partition is re-solved to UNSAT.
	j3 := openTestJournal(t, path, 4)
	res2, err := Solve(context.Background(), f, parts, Options{Workers: 2, Journal: j3})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Unsat {
		t.Fatalf("lifted-budget resume: status %v, want Unsat", res2.Status)
	}
	if res2.Resumed != 0 {
		t.Fatalf("lifted-budget resume replayed %d stale exhaustions", res2.Resumed)
	}
	j3.Close()
}

// Cancellation with a wall-clock budget armed must still report
// CauseCancelled and commit nothing: a cancelled partition is in-flight
// work a resume re-solves, never a terminal timeout.
func TestCancelWithTimerArmedStaysUncommitted(t *testing.T) {
	f := pigeonhole(9)
	parts := partitionsOn([]cnf.Var{1}, 2)
	path := filepath.Join(t.TempDir(), "run.wal")
	j := openTestJournal(t, path, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Solve(ctx, f, parts, Options{
		Workers: 2, Budget: journal.Budget{Timeout: 10 * time.Minute}, Journal: j,
		Progress: onFirstProgress(cancel), ProgressEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range res.Instances {
		if inst.Cause == sat.CauseTimeout {
			t.Fatalf("partition %d: cancellation misreported as timeout", inst.Partition)
		}
	}
	if j.Commits() != 0 {
		t.Fatalf("cancelled run committed %d records", j.Commits())
	}
}
