package parallel

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/flatten"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/prog"
)

// encodeCell builds the formula and partitions the pipeline hands the
// runner for one benchmark cell (8-bit words, as core.Verify's default).
func encodeCell(tb testing.TB, p *prog.Program, unwind, contexts, nparts int) (*cnf.Formula, []partition.Partition) {
	tb.Helper()
	up, err := unfold.Unfold(p, unfold.Options{Unwind: unwind})
	if err != nil {
		tb.Fatal(err)
	}
	fp, err := flatten.Flatten(up)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := vc.Encode(fp, vc.Options{Width: 8, Contexts: contexts})
	if err != nil {
		tb.Fatal(err)
	}
	parts, err := partition.Make(enc, nparts)
	if err != nil {
		tb.Fatal(err)
	}
	return enc.Formula(), parts
}

// esCell is eliminationstack u=2 c=4 in 8 partitions: a SAFE cell small
// enough to run many times over and large enough for the template's pass
// to eliminate thousands of variables.
func esCell(tb testing.TB) (*cnf.Formula, []partition.Partition) {
	return encodeCell(tb, bench.Eliminationstack(), 2, 4, 8)
}

// simplifiedTemplate builds by hand what a run of several cubes builds.
func simplifiedTemplate(f *cnf.Formula, parts []partition.Partition, opts Options) *sat.Solver {
	tpl := loadTemplate(f, &opts)
	freezeCubeVars(tpl, parts, opts.SplitLits)
	tpl.Simplify()
	return tpl
}

// scheduleFree is the part of a cube's statistics the benchmark holds
// equal between passes: a function of the formula and the cube alone.
type scheduleFree struct {
	conflicts, propagations, decisions, restarts, learntDeleted, peakMemBytes int64
}

func scheduleFreeOf(st sat.Stats) scheduleFree {
	return scheduleFree{st.Conflicts, st.Propagations, st.Decisions, st.Restarts, st.LearntDeleted, st.PeakMemBytes}
}

// A cube's counters are those of a clone of the template solved under
// the cube's assumptions — whatever the number of workers, whichever
// cubes its worker ran before, measured (Solve) or simulated — and a
// run of one partition is sat.NewFromFormula + Solve to the counter,
// which is what the benchmark's traced pass does in the runner's place.
func TestCubeCountersIndependentOfSchedule(t *testing.T) {
	f, parts := esCell(t)

	tpl := simplifiedTemplate(f, parts, Options{})
	if tpl.Stats().ElimVars == 0 {
		t.Fatal("the template's pass eliminated nothing: the cell does not exercise it")
	}
	want := make([]scheduleFree, len(parts))
	for i, pt := range parts {
		c := tpl.Clone()
		if st, err := c.Solve(pt.Assumptions...); err != nil || st != sat.Unsat {
			t.Fatalf("partition %d by hand: %v, %v", pt.Index, st, err)
		}
		want[i] = scheduleFreeOf(c.Stats())
	}

	type schedule struct {
		run     func(context.Context, *cnf.Formula, []partition.Partition, Options) (*Result, error)
		name    string
		workers int
	}
	var schedules []schedule
	for _, workers := range []int{1, 2, len(parts)} {
		schedules = append(schedules, schedule{Solve, "solve", workers}, schedule{Simulate, "simulate", workers})
	}
	// Once more where goroutines really interleave.
	schedules = append(schedules, schedule{Solve, "solve again", 2})
	for _, sc := range schedules {
		res, err := sc.run(context.Background(), f, parts, Options{Workers: sc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sat.Unsat || res.Template.Cubes != len(parts) {
			t.Fatalf("%s, %d workers: status %v, template %+v", sc.name, sc.workers, res.Status, res.Template)
		}
		for i, inst := range res.Instances {
			if got := scheduleFreeOf(inst.Stats); got != want[i] {
				t.Errorf("%s, %d workers: partition %d counters %+v, a clone of the template solved by hand %+v",
					sc.name, sc.workers, inst.Partition, got, want[i])
			}
			if inst.Stats.ElimVars != 0 || inst.Stats.Simplified != 0 {
				t.Errorf("%s, %d workers: partition %d claims the template's eliminations: %+v", sc.name, sc.workers, inst.Partition, inst.Stats)
			}
		}
	}

	for _, pt := range []partition.Partition{parts[0], parts[5]} {
		cold := sat.NewFromFormula(f, sat.Options{})
		if st, err := cold.Solve(pt.Assumptions...); err != nil || st != sat.Unsat {
			t.Fatalf("partition %d cold: %v, %v", pt.Index, st, err)
		}
		res, err := Solve(context.Background(), f, []partition.Partition{pt}, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Instances[0].Stats; got != cold.Stats() {
			t.Errorf("partition %d run alone:\n%+v\nsat.NewFromFormula + Solve:\n%+v", pt.Index, got, cold.Stats())
		}
		if res.Template.Cubes != 1 || res.Template.ClausesOut != res.Template.ClausesIn {
			t.Errorf("partition %d run alone: template %+v, want it loaded and left as it was", pt.Index, res.Template)
		}
	}
}

// With more cores than partitions the extra workers are what splits a
// straggler: clamped to the partition count they were never started, and
// a hard partition run alone was never split however long it took.
func TestMoreWorkersThanPartitionsSplit(t *testing.T) {
	f := pigeonhole(7)
	parts, lits := stragglerParts(7)
	opts := adaptiveOpts(lits)
	opts.Workers = 4
	res, err := Solve(context.Background(), f, parts[1:], opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if res.Splits < 1 {
		t.Fatalf("splits %d, want >= 1: three idle workers and a partition that runs ~100ms against a 20ms grace", res.Splits)
	}
	if got := res.Instances[0].Cubes; got != res.Splits+1 {
		t.Fatalf("partition folded %d cubes with %d splits, want splits+1", got, res.Splits)
	}
	// The cube and the children of its splits are clones of one template,
	// which the single queued cube did not get simplified.
	if tpl := res.Template; tpl.Cubes < res.Splits+1 || tpl.Stats.ElimVars != 0 {
		t.Fatalf("template %+v after %d splits", tpl, res.Splits)
	}
}

// A resume that finds one cube left to solve is a one-cube run: the
// cube is solved on the template itself, un-simplified, exactly as a
// cold solver would — and to the verdict the first run gave it.
func TestResumeWithOneCubeLeft(t *testing.T) {
	f := pigeonhole(6)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	first, err := Solve(context.Background(), f, parts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Template.Stats.ElimVars == 0 {
		t.Fatalf("first run's template %+v: want a simplified one", first.Template)
	}

	const left = 2
	path := filepath.Join(t.TempDir(), "run.wal")
	j := openTestJournal(t, path, len(parts))
	// The first run's verdicts, journaled the way a run journals them.
	sched := partition.NewScheduler(partition.SchedOptions{Journal: j})
	for _, inst := range first.Instances {
		if inst.Partition == left {
			continue
		}
		sched.Resume([]partition.Cube{{From: inst.Partition, To: inst.Partition}})
		a := sched.Acquire("", func(*partition.Assignment) {})
		if a == nil || !sched.Claim(a) {
			t.Fatalf("partition %d: no assignment to settle", inst.Partition)
		}
		if err := sched.Commit(a, partition.Outcome{Verdict: inst.Status.String(), Winner: inst.Partition, Cause: inst.Cause.String()}); err != nil {
			t.Fatalf("partition %d of the first run has nothing to journal: %+v: %v", inst.Partition, inst, err)
		}
	}
	j.Close()

	res, err := Solve(context.Background(), f, parts, Options{Workers: 2, Journal: openTestJournal(t, path, len(parts))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != first.Status || res.Resumed != len(parts)-1 {
		t.Fatalf("resumed run: status %v with %d replayed, first run %v", res.Status, res.Resumed, first.Status)
	}
	for i, inst := range res.Instances {
		if inst.Status != first.Instances[i].Status || inst.Resumed != (inst.Partition != left) {
			t.Fatalf("partition %d: %v (resumed %v), first run %v", inst.Partition, inst.Status, inst.Resumed, first.Instances[i].Status)
		}
	}
	cold := sat.NewFromFormula(f, sat.Options{})
	if _, err := cold.Solve(parts[left].Assumptions...); err != nil {
		t.Fatal(err)
	}
	if got := res.Instances[left].Stats; got != cold.Stats() {
		t.Fatalf("the one cube left:\n%+v\nsat.NewFromFormula + Solve:\n%+v", got, cold.Stats())
	}
	if tpl := res.Template; tpl.Cubes != 1 || tpl.Stats.ElimVars != 0 || tpl.ClausesOut != tpl.ClausesIn {
		t.Fatalf("template %+v, want it loaded for one cube and left as it was", tpl)
	}
}

// The template's pass is as interruptible as a cube: a run cancelled
// while the formula is being loaded and simplified comes back without
// finishing the pass, let alone starting a cube.
func TestCancelDuringTemplate(t *testing.T) {
	// 75 000 clauses: ten milliseconds end inside the load or the pass
	// (a fifth of a second together under the race detector's slowdown),
	// and the assertions hold wherever in them.
	f, parts := encodeCell(t, bench.Eliminationstack(), 2, 6, 8)
	whole := simplifiedTemplate(f, parts, Options{}).Stats().ElimVars

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Solve(ctx, f, parts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("a run cancelled after 10ms returned after %v", elapsed)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
	if got := res.Template.Stats.ElimVars; got >= whole {
		t.Fatalf("the cancelled template eliminated %d variables, an undisturbed pass %d: it ran to the end", got, whole)
	}
	for _, inst := range res.Instances {
		if inst.Status != sat.Unknown || inst.Cause != sat.CauseCancelled {
			t.Fatalf("partition %d: %v (%v), want cancelled", inst.Partition, inst.Status, inst.Cause)
		}
	}
}

// A memory budget with room for the cubes but not for the pass's tables
// beside them: the template skips the pass, as a cube's solver would its
// own, and the run still decides every cube.
func TestTemplatePassSkippedOverMemBudget(t *testing.T) {
	// 20 000 variables are 1.8 MB of solver and would be 1.1 MB more of
	// eliminator tables; the budget is 2 MiB.
	f := pigeonhole(5)
	f.AddClause(cnf.PosLit(20000))
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	for _, tc := range []struct {
		memMB      int64
		simplified bool
	}{{0, true}, {2, false}} {
		res, err := Solve(context.Background(), f, parts, Options{Workers: 2, Budget: journal.Budget{MemMB: tc.memMB}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sat.Unsat {
			t.Fatalf("budget %d MiB: status %v, want Unsat", tc.memMB, res.Status)
		}
		if tpl := res.Template; (tpl.Stats.ElimVars > 0) != tc.simplified || (tpl.ClausesOut != tpl.ClausesIn) != tc.simplified {
			t.Fatalf("budget %d MiB: template %+v, want simplified: %v", tc.memMB, tpl, tc.simplified)
		}
	}
}

// Certification by construction. The template's lemmas were derived
// under no assumption, so they are a prefix every cube's proof may
// stand on: prefix ++ tail must check against the formula as encoded —
// not as simplified — through the plain CheckRUP, and through Extend +
// Check, which is what a CertifyUnsat worker does, with the same
// answer; and a clone's model is a model of the formula as encoded,
// eliminated variables included, under its cube's assumptions.
func TestTemplateProofsAndModels(t *testing.T) {
	cells := []struct {
		name        string
		p           *prog.Program
		u, c, parts int
	}{
		{"es.u2.c4.p8", bench.Eliminationstack(), 2, 4, 8}, // SAFE
		{"fib2.u2.c6.p4", bench.Fibonacci(2), 2, 6, 4},     // UNSAFE
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			f, parts := encodeCell(t, cell.p, cell.u, cell.c, cell.parts)
			tpl := simplifiedTemplate(f, parts, Options{CertifyUnsat: true})
			prefix := tpl.ProofLog()
			if tpl.Stats().ElimVars == 0 || len(prefix.Lemmas) == 0 {
				t.Fatalf("the template eliminated %d variables and logged %d lemmas", tpl.Stats().ElimVars, len(prefix.Lemmas))
			}
			checker := sat.NewProofChecker(f)
			if err := checker.Extend(prefix); err != nil {
				t.Fatalf("the template's lemmas rejected: %v", err)
			}
			verdicts := map[sat.Status]int{}
			for _, pt := range parts {
				c := tpl.Clone()
				st, err := c.Solve(pt.Assumptions...)
				if err != nil {
					t.Fatal(err)
				}
				verdicts[st]++
				switch st {
				case sat.Unsat:
					tail := c.ProofLog()
					// The one-shot check re-reads the prefix per proof: the
					// first and the last partition stand for the rest.
					if pt.Index == parts[0].Index || pt.Index == parts[len(parts)-1].Index {
						whole := &sat.Proof{Lemmas: append(slices.Clone(prefix.Lemmas), tail.Lemmas...)}
						if err := sat.CheckRUP(f, pt.Assumptions, whole); err != nil {
							t.Fatalf("partition %d: prefix ++ tail rejected against the encoding: %v", pt.Index, err)
						}
					}
					if err := checker.Check(pt.Assumptions, tail); err != nil {
						t.Fatalf("partition %d: tail rejected after Extend(prefix): %v", pt.Index, err)
					}
				case sat.Sat:
					model := c.Model()
					assign := make([]bool, f.NumVars+1)
					copy(assign[1:], model)
					if !f.Eval(assign) {
						t.Fatalf("partition %d: the clone's model does not satisfy the formula as encoded", pt.Index)
					}
					if !honours(model, pt.Assumptions) {
						t.Fatalf("partition %d: the clone's model violates the cube's assumptions", pt.Index)
					}
				}
			}
			t.Logf("%d lemmas in the prefix, verdicts %v", len(prefix.Lemmas), verdicts)

			// One literal of one template lemma flipped: no longer a
			// consequence, and Extend must say so rather than let every
			// cube stand on it.
			forged := &sat.Proof{Lemmas: slices.Clone(prefix.Lemmas)}
			at := len(forged.Lemmas) / 2
			forged.Lemmas[at] = slices.Clone(forged.Lemmas[at])
			forged.Lemmas[at][0] = forged.Lemmas[at][0].Not()
			fresh := sat.NewProofChecker(f)
			if err := fresh.Extend(forged); err == nil {
				t.Fatalf("Extend accepted the prefix with lemma %d forged", at+1)
			}
			// And the checker it was offered to is still good for the truth.
			if err := fresh.Extend(prefix); err != nil {
				t.Fatalf("after rejecting a forged prefix the checker rejects the real one: %v", err)
			}
		})
	}
}

// A template its caller holds (Prepare) is the run's, sized for all of
// its partitions whichever of them a call is handed: the first call
// builds it, the others find it built; a partition's counters are those
// of the whole run's (TestCubeCountersIndependentOfSchedule) handed
// over alone, in pairs or all at once; a kept proof is the cube's own
// log and checks on what the template logged before it; and a holder
// that wants the digest of that log, not the log, nor the formula once
// it is loaded, gets the same digest and the same searches.
func TestHeldTemplateServesCallsAlike(t *testing.T) {
	f, parts := esCell(t)
	whole, err := Solve(context.Background(), f, parts, Options{Workers: 2})
	if err != nil || whole.Status != sat.Unsat {
		t.Fatalf("%v, %v", whole, err)
	}
	opts := Options{Workers: 1, KeepProofs: true}
	held := Prepare(f, parts, opts)
	digested := Prepare(f, parts, opts)
	digested.DigestPrefix(nil)
	digested.LoadOnce()
	if !held.Ready() || !digested.Ready() {
		t.Fatal("a template that has yet to be built is not ready to be")
	}
	var checker *sat.ProofChecker
	builds := 0
	for _, call := range [][]partition.Partition{parts[3:4], parts[0:2], parts[6:8], parts} {
		res, err := held.Solve(context.Background(), call, opts)
		if err != nil || res.Status != sat.Unsat {
			t.Fatalf("partitions %d..%d: %v, %v", call[0].Index, call[len(call)-1].Index, res, err)
		}
		alike, err := digested.Solve(context.Background(), call, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Template.Time > 0 {
			builds++
		}
		if res.Template.Stats.ElimVars != whole.Template.Stats.ElimVars || res.Template.Cubes != len(call) {
			t.Fatalf("template %+v, of the whole run %+v", res.Template, whole.Template)
		}
		if checker == nil {
			prefix, err := held.Prefix(context.Background())
			if err != nil || len(prefix.Lemmas) == 0 {
				t.Fatalf("prefix %v, %v", prefix, err)
			}
			if got, err := digested.PrefixDigest(context.Background()); err != nil || got != prefix.Digest() {
				t.Fatalf("digest %+v, %v; of the kept prefix %+v", got, err, prefix.Digest())
			}
			if _, err := digested.Prefix(context.Background()); err == nil {
				t.Fatal("a digested prefix was kept all the same")
			}
			checker = sat.NewProofChecker(f)
			if err := checker.Extend(prefix); err != nil {
				t.Fatal(err)
			}
		}
		for i, inst := range res.Instances {
			if got, want := scheduleFreeOf(inst.Stats), scheduleFreeOf(whole.Instances[inst.Partition].Stats); got != want {
				t.Errorf("partition %d: %+v, in the whole run %+v", inst.Partition, got, want)
			}
			if scheduleFreeOf(alike.Instances[i].Stats) != scheduleFreeOf(inst.Stats) {
				t.Errorf("partition %d: %+v on the template that keeps neither log nor formula", inst.Partition, alike.Instances[i].Stats)
			}
			if inst.Proof == nil || checker.Check(call[i].Assumptions, inst.Proof) != nil {
				t.Errorf("partition %d: its own log does not check on the template's: %v", inst.Partition, inst.Proof.NumLemmas())
			}
			if sat.CheckRUP(f, call[i].Assumptions, inst.Proof) == nil && inst.Proof.NumLemmas() > 0 && inst.Stats.Conflicts > 50 {
				t.Errorf("partition %d: a tail of %d lemmas checks without the prefix: is it one?", inst.Partition, inst.Proof.NumLemmas())
			}
		}
	}
	if builds != 1 {
		t.Fatalf("the template was built %d times", builds)
	}

	// One partition, nothing to split: the run's only cube is solved on a
	// solver loaded for it, every time, and the prefix is empty.
	single := Prepare(f, parts[2:3], opts)
	cold := sat.NewFromFormula(f, sat.Options{})
	if _, err := cold.Solve(parts[2].Assumptions...); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		res, err := single.Solve(context.Background(), parts[2:3], opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Instances[0].Stats; got != cold.Stats() {
			t.Fatalf("a run of one partition:\n%+v\nsat.NewFromFormula + Solve:\n%+v", got, cold.Stats())
		}
		if err := sat.CheckRUP(f, parts[2].Assumptions, res.Instances[0].Proof); err != nil {
			t.Fatalf("its proof is not whole: %v", err)
		}
	}
	if prefix, err := single.Prefix(context.Background()); err != nil || len(prefix.Lemmas) != 0 {
		t.Fatalf("prefix of a run of one partition: %v, %v", prefix, err)
	}
}
