package parallel

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

// honours reports whether model satisfies every assumption literal.
func honours(model []bool, assume []cnf.Lit) bool {
	for _, a := range assume {
		if model[a.Var()-1] == a.Neg() {
			return false
		}
	}
	return true
}

// The verdict is invariant under how the partitions are run: for each
// formula, every combination of worker count, splitting on/off and
// Solve/Simulate must agree on the aggregate status, name a valid
// winner, report the per-partition statuses a sequential solve of each
// partition gives, and round-trip through the journal.
func TestRunnerMetamorphic(t *testing.T) {
	satOne := cnf.New() // satisfiable only where x1=1, x2=0: partition 1
	satOne.AddClause(cnf.PosLit(1))
	satOne.AddClause(cnf.NegLit(2))
	satOne.AddClause(cnf.PosLit(3), cnf.PosLit(4))

	formulas := []struct {
		name      string
		f         *cnf.Formula
		conflicts int64 // Budget.Conflicts
		want      sat.Status
	}{
		{"pigeonhole-unsat", pigeonhole(6), 0, sat.Unsat},
		{"one-partition-sat", satOne, 0, sat.Sat},
		{"conflict-budget-unknown", pigeonhole(7), 5, sat.Unknown},
	}
	for _, fc := range formulas {
		parts := partitionsOn([]cnf.Var{1, 2}, 4)
		splitLits := []cnf.Lit{cnf.PosLit(3), cnf.PosLit(4)}

		// Ground truth: each partition on its own solver.
		truth := map[int]sat.Status{}
		for _, pt := range parts {
			s := sat.NewFromFormula(fc.f, sat.Options{MaxConflicts: fc.conflicts})
			st, err := s.Solve(pt.Assumptions...)
			if err != nil {
				t.Fatal(err)
			}
			truth[pt.Index] = st
		}

		for _, workers := range []int{1, 2, len(parts)} {
			for _, depth := range []int{0, 2} {
				for _, mode := range []string{"solve", "simulate"} {
					name := fmt.Sprintf("%s/workers=%d/split=%d/%s", fc.name, workers, depth, mode)
					t.Run(name, func(t *testing.T) {
						opts := Options{Workers: workers, Budget: journal.Budget{Conflicts: fc.conflicts}}
						if depth > 0 {
							opts.Split = partition.SplitPolicy{Depth: depth, Grace: time.Millisecond}
							opts.SplitLits = splitLits
						}
						runFn := Solve
						if mode == "simulate" {
							runFn = Simulate
						}
						path := filepath.Join(t.TempDir(), "run.wal")

						opts.Journal = openTestJournal(t, path, len(parts))
						res, err := runFn(context.Background(), fc.f, parts, opts)
						if err != nil {
							t.Fatal(err)
						}
						checkAgainstTruth(t, "first run", res, parts, fc.want, truth, mode == "solve")
						if res.Resumed != 0 {
							t.Fatalf("first run resumed %d leaves", res.Resumed)
						}
						commits := opts.Journal.Commits()
						opts.Journal.Close()

						opts.Journal = openTestJournal(t, path, len(parts))
						res2, err := runFn(context.Background(), fc.f, parts, opts)
						if err != nil {
							t.Fatal(err)
						}
						checkAgainstTruth(t, "resumed run", res2, parts, fc.want, truth, mode == "solve")
						if res2.Splits != 0 {
							t.Fatalf("resumed run split %d more cubes", res2.Splits)
						}
						if res2.MaxCubeDepth != res.MaxCubeDepth {
							t.Fatalf("resumed cube depth %d, first run %d", res2.MaxCubeDepth, res.MaxCubeDepth)
						}
						// Every committed verdict replays; only cubes a SAT
						// win cancelled are left for the resume, and the
						// replayed SAT verdict cancels them again.
						if opts.Journal.Commits() != commits {
							t.Fatalf("resume re-committed: %d records, first run %d", opts.Journal.Commits(), commits)
						}
						if res2.Resumed != commits-res.Splits {
							t.Fatalf("resumed %d leaves, want the %d committed verdicts", res2.Resumed, commits-res.Splits)
						}
					})
				}
			}
		}
	}
}

// checkAgainstTruth asserts one run's aggregate status, winner and
// per-partition statuses. raced allows non-winning partitions of a SAT
// run to read cancelled instead of their own verdict.
func checkAgainstTruth(t *testing.T, what string, res *Result, parts []partition.Partition,
	want sat.Status, truth map[int]sat.Status, raced bool) {
	t.Helper()
	if res.Status != want {
		t.Fatalf("%s: status %v, want %v", what, res.Status, want)
	}
	if len(res.Instances) != len(parts) {
		t.Fatalf("%s: %d instances for %d partitions", what, len(res.Instances), len(parts))
	}
	for i, inst := range res.Instances {
		if inst.Partition != parts[i].Index {
			t.Fatalf("%s: instance %d is partition %d, want parts order", what, i, inst.Partition)
		}
		cancelled := inst.Status == sat.Unknown && inst.Cause == sat.CauseCancelled
		if cancelled && raced && want == sat.Sat && inst.Partition != res.Winner {
			continue
		}
		if inst.Status != truth[inst.Partition] {
			t.Fatalf("%s: partition %d is %v (cause %v), want %v", what, inst.Partition, inst.Status, inst.Cause, truth[inst.Partition])
		}
		if inst.Status == sat.Unknown && inst.Cause != sat.CauseConflictBudget {
			t.Fatalf("%s: partition %d Unknown by %v, want conflict-budget", what, inst.Partition, inst.Cause)
		}
	}
	if want != sat.Sat {
		if res.Winner != -1 || res.Model != nil {
			t.Fatalf("%s: winner %d model %v on a %v run", what, res.Winner, res.Model != nil, want)
		}
		return
	}
	if truth[res.Winner] != sat.Sat {
		t.Fatalf("%s: winner %d is not a satisfiable partition", what, res.Winner)
	}
	for _, pt := range parts {
		if pt.Index == res.Winner && !honours(res.Model, pt.Assumptions) {
			t.Fatalf("%s: model violates the assumptions of winning partition %d", what, pt.Index)
		}
	}
}

// A worker that runs out of queued cubes must not hold Solve back: with
// nothing left that could be split it returns at once, and with
// splitting on it is woken by the last cube's completion rather than by
// a poll tick (which at the default 15s grace was 500ms). The hard
// partition comes first so that one worker is still solving it when the
// other has drained the seven trivially UNSAT ones and gone idle.
func TestSolveDoesNotWaitOnIdleWorker(t *testing.T) {
	const holes = 6
	f := pigeonhole(holes)
	parts := []partition.Partition{{Index: 0}}
	for i := 1; i < 8; i++ {
		pt := partition.Partition{Index: i}
		for h := 0; h < holes; h++ { // pigeon 0 in no hole: UNSAT by propagation
			pt.Assumptions = append(pt.Assumptions, cnf.NegLit(cnf.Var(h+1)))
		}
		parts = append(parts, pt)
	}
	timeSolve := func(parts []partition.Partition, opts Options) time.Duration {
		t.Helper()
		start := time.Now()
		res, err := Solve(context.Background(), f, parts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sat.Unsat {
			t.Fatalf("status %v", res.Status)
		}
		return time.Since(start)
	}
	alone := timeSolve(parts[:1], Options{Workers: 1})
	for _, opts := range []Options{
		{Workers: 2},
		{Workers: 2, Split: partition.SplitPolicy{Depth: 2}, SplitLits: []cnf.Lit{cnf.PosLit(holes + 1), cnf.PosLit(holes + 2)}},
	} {
		if got := timeSolve(parts, opts); got > 2*alone+200*time.Millisecond {
			t.Fatalf("Split.Depth %d: Solve took %v with the hard partition alone taking %v: an idle worker held the run", opts.Split.Depth, got, alone)
		}
	}
}

// KeepProofs survives Split.Depth: a partition that was not split keeps
// its refutation proof, exactly as without splitting.
func TestKeepProofsOnUnsplitPartitions(t *testing.T) {
	f := pigeonhole(5)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Solve(context.Background(), f, parts, Options{
		Workers: 2, KeepProofs: true,
		Split: partition.SplitPolicy{Depth: 2, Grace: time.Hour}, SplitLits: []cnf.Lit{cnf.PosLit(6), cnf.PosLit(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat || res.Splits != 0 {
		t.Fatalf("status %v splits %d", res.Status, res.Splits)
	}
	for i, inst := range res.Instances {
		if inst.Proof == nil {
			t.Fatalf("partition %d lost its proof under Split.Depth", inst.Partition)
		}
		if err := sat.CheckRUP(f, parts[i].Assumptions, inst.Proof); err != nil {
			t.Fatalf("partition %d: kept proof does not check: %v", inst.Partition, err)
		}
	}
}

// A split partition has no single refutation proof: Solve must say so
// rather than return a SAFE verdict whose certificate would lack it.
func TestKeepProofsRefusesSplitPartition(t *testing.T) {
	f := pigeonhole(7)
	parts, lits := stragglerParts(7)
	opts := adaptiveOpts(lits)
	opts.KeepProofs = true
	_, err := Solve(context.Background(), f, parts, opts)
	if err == nil || !strings.Contains(err.Error(), "KeepProofs") {
		t.Fatalf("err %v, want a KeepProofs refusal for the split partition", err)
	}
}
