package parallel

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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
	tpl := loadTemplate(f, &opts, nil)
	freezeCubeVars(tpl, parts, opts.SplitLits)
	tpl.Simplify()
	return tpl
}

// flipped returns p with the first literal of lemma number at, from 0,
// negated (none for -1), logged again step by step (sat.FlatLog.Step),
// and p's lemma and deletion counts.
func flipped(p sat.Proof, at int) (forged sat.Proof, lemmas, deletions int) {
	var log sat.FlatLog
	p.Steps(func(deleted bool, clause, ids []uint32) error {
		if deleted {
			deletions++
		} else {
			if lemmas == at && len(clause) > 0 {
				clause[0] ^= 1
			}
			lemmas++
		}
		log.Step(deleted, clause, ids)
		return nil
	})
	return sat.Proof(log), lemmas, deletions
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
		if err := sched.Commit(a, partition.Outcome{Status: inst.Status, Winner: inst.Partition, Cause: inst.Cause.String()}); err != nil {
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

	// Certifying, the build derives its checker on a goroutine of its own,
	// beside the pass: a build cut short ends that goroutine, and the
	// template keeps neither the solver nor the checker.
	goroutines := runtime.NumGoroutine()
	opts := Options{Workers: 2, CertifyUnsat: true}
	held := Prepare(f, nil, parts, opts)
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if res, err = held.Solve(ctx, parts, opts); err != nil || res.Status != sat.Unknown {
		t.Fatalf("certifying, cancelled: %v, %v", res, err)
	}
	held.mu.Lock()
	kept := held.solver != nil || held.checker != nil
	held.mu.Unlock()
	if kept {
		t.Fatal("a template whose build was cut short kept its solver or its checker")
	}
	// What the run started ends as Solve returns, or just after (the
	// cancel's AfterFunc): yielding, not sleeping, lets it.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the cancelled build, %d after it", goroutines, runtime.NumGoroutine())
		}
	}
}

// A memory budget with room for the cubes but not for the pass's tables
// beside them: the template skips the pass, as a cube's solver would its
// own, and the run still decides every cube.
func TestTemplatePassSkippedOverMemBudget(t *testing.T) {
	// 20 000 variables are 1.7 MB of solver and would be 1.1 MB more of
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
// not as simplified — through the plain CheckRUP, and through
// Template.Check (Extend + Check), which is what a CertifyUnsat run
// does, with the same answer; and a clone's model is a model of the
// formula as encoded, eliminated variables included, under its cube's
// assumptions.
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
			held := Prepare(f, nil, parts, Options{CertifyUnsat: true, KeepProofs: true})
			tpl, err := held.build(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			prefix := tpl.ProofLog()
			if tpl.Stats().ElimVars == 0 || prefix.NumLemmas() == 0 {
				t.Fatalf("the template eliminated %d variables and logged %d lemmas", tpl.Stats().ElimVars, prefix.NumLemmas())
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
						if err := sat.CheckRUP(f, pt.Assumptions, append(prefix, tail...)); err != nil {
							t.Fatalf("partition %d: prefix ++ tail rejected against the encoding: %v", pt.Index, err)
						}
					}
					if _, err := held.Check(pt.Assumptions, tail); err != nil {
						t.Fatalf("partition %d: tail rejected on the template's checker: %v", pt.Index, err)
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
			t.Logf("%d lemmas in the prefix, verdicts %v", prefix.NumLemmas(), verdicts)

			// One literal of one template lemma flipped: no longer a
			// consequence, and extending by it must say so rather than let
			// every cube stand on it.
			at := prefix.NumLemmas() / 2
			forged, _, _ := flipped(prefix, at)
			fresh := sat.NewProofChecker(f)
			fresh.Extend(forged)
			if err := fresh.ExtendDone(); lemmaIndex(err) != at+1 {
				t.Fatalf("extending by the prefix with lemma %d forged: %v", at+1, err)
			}
			// And the checker it was offered to is still good for the truth.
			fresh.Extend(prefix)
			if err := fresh.ExtendDone(); err != nil {
				t.Fatalf("after rejecting a forged prefix the checker rejects the real one: %v", err)
			}
		})
	}
}

// The run's checker is derived beside the pass, a stretch at a time as
// the pass logs them (passSink), not extended by the kept log afterwards; it
// must be the checker that is. On both cells every honest tail and every
// tail with a lemma flipped gets the same answer from Template.Check as
// from a checker extended by Prefix, with the same work, derivation
// included — and so does a template that keeps no proofs, which keeps
// no log either, as a distributed run's coordinator's does.
func TestCheckerDerivedBesideThePass(t *testing.T) {
	for _, cell := range []struct {
		name        string
		p           *prog.Program
		u, c, parts int
	}{
		{"es.u2.c4.p8", bench.Eliminationstack(), 2, 4, 8},
		{"fib2.u2.c6.p4", bench.Fibonacci(2), 2, 6, 4},
	} {
		t.Run(cell.name, func(t *testing.T) {
			ctx := context.Background()
			f, parts := encodeCell(t, cell.p, cell.u, cell.c, cell.parts)
			held := Prepare(f, nil, parts, Options{CertifyUnsat: true, KeepProofs: true})
			tpl, err := held.build(ctx)
			if err != nil {
				t.Fatal(err)
			}
			prefix, err := held.Prefix(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, lemmas, deletions := flipped(prefix, -1); lemmas == 0 || deletions == 0 {
				t.Fatalf("prefix of %d lemmas and %d deletions", lemmas, deletions)
			}
			after := sat.NewProofChecker(f)
			after.Extend(prefix)
			if err := after.ExtendDone(); err != nil {
				t.Fatal(err)
			}
			checking := Prepare(f, nil, parts, Options{CertifyUnsat: true})
			if kept, err := checking.Prefix(ctx); err != nil || kept == nil || len(kept) != 0 {
				t.Fatalf("a template that keeps no proofs kept %d bytes of its log: %v", len(kept), err)
			}

			var work, checkingWork sat.ProofCheckerStats
			checked := 0
			for _, pt := range parts {
				c := tpl.Clone()
				if st, err := c.Solve(pt.Assumptions...); err != nil || st != sat.Unsat {
					continue // a SAT cube has no tail to check
				}
				tail := c.ProofLog()
				lie, _, _ := flipped(tail, tail.NumLemmas()/2)
				for _, p := range []sat.Proof{tail, lie} {
					want := after.Check(pt.Assumptions, p)
					got, err := held.Check(pt.Assumptions, p)
					work.Add(got)
					if (err == nil) != (want == nil) || lemmaIndex(err) != lemmaIndex(want) {
						t.Errorf("partition %d: derived beside the pass: %v; extended afterwards: %v", pt.Index, err, want)
					}
					got, err = checking.Check(pt.Assumptions, p)
					checkingWork.Add(got)
					if (err == nil) != (want == nil) || lemmaIndex(err) != lemmaIndex(want) {
						t.Errorf("partition %d: not keeping its log, derived beside the pass: %v; extended afterwards: %v", pt.Index, err, want)
					}
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no cube of the cell is UNSAT")
			}
			if all := after.Stats(); work != all || checkingWork != all {
				t.Fatalf("the checks reported %+v, not keeping %+v; the checker extended afterwards did %+v", work, checkingWork, all)
			}
		})
	}
}

// A template restored from another's snapshot is that template: a run
// on it — two workers, proofs kept — solves every cube with the counters
// and the tail the built one gives it, never loads the formula into a
// solver and lets the formula go; the tails check on the builder's
// checker, and under a memory budget with no room for the pass (which
// the builder then skips) the same holds of the unsimplified solver. A
// run's only cube uses its restored solver up: the template is not
// Ready until it is restored again, and then solves it alike.
func TestRestoredTemplateSolvesAsBuilt(t *testing.T) {
	f, parts := esCell(t)
	for _, memMB := range []int64{0, 4} {
		t.Run(fmt.Sprintf("mem=%d", memMB), func(t *testing.T) {
			opts := Options{Workers: 2, KeepProofs: true, Budget: journal.Budget{MemMB: memMB}}
			built := Prepare(f, nil, parts, Options{Workers: 2, CertifyUnsat: true, Budget: opts.Budget})
			data, err := built.Snapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if elim := built.built.Stats.ElimVars; (elim == 0) != (memMB != 0) {
				t.Fatalf("%d variables eliminated under a %d MiB budget", elim, memMB)
			}
			// Logging too: a logging solver's clauses carry IDs, and its
			// footprint with them.
			want, err := Solve(context.Background(), f, parts, Options{Workers: 2, KeepProofs: true, Budget: opts.Budget})
			if err != nil || want.Status != sat.Unsat {
				t.Fatalf("built: %v, %v", want, err)
			}
			restored := Prepare(f, nil, parts, opts)
			if err := restored.Restore(data); err != nil {
				t.Fatal(err)
			}
			if _, err := restored.Formula(); !errors.Is(err, errSpent) {
				t.Fatalf("the restored template has a formula: %v", err)
			}
			res, err := restored.Solve(context.Background(), parts, opts)
			if err != nil || res.Status != sat.Unsat || res.Template.Time != 0 {
				t.Fatalf("restored: %v, %v", res, err)
			}
			for i, inst := range res.Instances {
				if got, w := scheduleFreeOf(inst.Stats), scheduleFreeOf(want.Instances[i].Stats); got != w {
					t.Errorf("partition %d: %+v, built %+v", inst.Partition, got, w)
				}
				if _, err := built.Check(parts[i].Assumptions, inst.Proof); err != nil {
					t.Errorf("partition %d: its tail does not check on the builder's checker: %v", inst.Partition, err)
				}
			}
		})
	}

	single := Prepare(f, nil, parts[2:3], Options{KeepProofs: true})
	data, err := single.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold := sat.New(f.NumVars, sat.Options{})
	cold.EnableProof()
	cold.AddFormula(f)
	if _, err := cold.Solve(parts[2].Assumptions...); err != nil {
		t.Fatal(err)
	}
	restored := Prepare(f, nil, parts[2:3], Options{KeepProofs: true})
	for range 2 {
		if err := restored.Restore(data); err != nil {
			t.Fatal(err)
		}
		res, err := restored.Solve(context.Background(), parts[2:3], Options{KeepProofs: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Instances[0].Stats; got != cold.Stats() {
			t.Fatalf("a restored run of one partition:\n%+v\nsat.NewFromFormula + Solve:\n%+v", got, cold.Stats())
		}
		if err := sat.CheckRUP(f, parts[2].Assumptions, tailOf(t, res.Instances[0])); err != nil {
			t.Fatalf("its proof is not whole: %v", err)
		}
		if restored.Ready() {
			t.Fatal("the only cube left its restored solver in the template")
		}
	}
	if _, err := restored.Solve(context.Background(), parts[2:3], Options{}); !errors.Is(err, errSpent) {
		t.Fatalf("a used-up restored template solved: %v", err)
	}
}

// lemmaIndex is the lemma a checker's rejection names ("lemma N of M"),
// 0 if it names none.
func lemmaIndex(err error) int {
	m := regexp.MustCompile(`lemma (\d+) `).FindStringSubmatch(fmt.Sprint(err))
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// The run's one checker serves every worker that checks. Goroutines put
// es.u2.c4.p8's tails to Template.Check at once: each honest tail gets
// the answer CheckRUP gives prefix ++ tail, a tail with one lemma flipped
// is rejected at the lemma CheckRUP rejects, the honest tails still check
// after it, and the work the checks report adds up to all the checker
// did, its derivation included.
func TestTemplateCheckConcurrent(t *testing.T) {
	f, parts := esCell(t)
	held := Prepare(f, nil, parts, Options{CertifyUnsat: true, KeepProofs: true})
	tpl, err := held.build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prefix := tpl.ProofLog()
	type cube struct {
		assume []cnf.Lit
		tail   sat.Proof
		want   error
		at     int // the tail's lemma CheckRUP rejects, counted from 1
	}
	var honest, forged []cube
	for i, pt := range parts {
		c := tpl.Clone()
		if st, err := c.Solve(pt.Assumptions...); err != nil || st != sat.Unsat {
			t.Fatalf("partition %d: %v, %v", pt.Index, st, err)
		}
		tail := c.ProofLog()
		honest = append(honest, cube{pt.Assumptions, tail, sat.CheckRUP(f, pt.Assumptions, append(prefix, tail...)), 0})
		if i%4 != 0 {
			continue // the one-shot check re-reads the prefix: two forgeries stand for the rest
		}
		at := tail.NumLemmas() / 2
		lie, _, _ := flipped(tail, at)
		want := sat.CheckRUP(f, pt.Assumptions, append(prefix, lie...))
		if lemmaIndex(want) <= prefix.NumLemmas() {
			t.Fatalf("partition %d, lemma %d of the tail flipped: CheckRUP says %v", pt.Index, at+1, want)
		}
		forged = append(forged, cube{pt.Assumptions, lie, want, lemmaIndex(want) - prefix.NumLemmas()})
	}

	var mu sync.Mutex
	var reported sat.ProofCheckerStats
	check := func(c cube) error {
		work, err := held.Check(c.assume, c.tail)
		mu.Lock()
		reported.Add(work)
		mu.Unlock()
		return err
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range honest {
				c := honest[(i+g)%len(honest)]
				if err := check(c); (err == nil) != (c.want == nil) {
					t.Errorf("honest tail: %v, CheckRUP on prefix ++ tail: %v", err, c.want)
				}
				if g%2 == 1 && i < len(forged) {
					c := forged[i]
					if err := check(c); lemmaIndex(err) != c.at {
						t.Errorf("a tail with a flipped lemma: %v; CheckRUP rejects lemma %d of it: %v", err, c.at, c.want)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range honest {
		if err := check(c); err != nil {
			t.Fatalf("an honest tail after the forgeries: %v", err)
		}
	}
	if all := held.checker.Stats(); reported != all || all.Lemmas <= int64(prefix.NumLemmas()) {
		t.Fatalf("the checks reported %+v, the checker did %+v over a prefix of %d lemmas", reported, all, prefix.NumLemmas())
	}
}

// A template its caller holds (Prepare) is the run's, sized for all of
// its partitions whichever of them a call is handed: the first call
// builds it, the others find it built; a partition's counters are those
// of the whole run's (TestCubeCountersIndependentOfSchedule) handed
// over alone, in pairs or all at once; a kept proof is the cube's own
// log and checks on what the template logged before it; and a template
// restored from the held one's snapshot, with neither log nor formula,
// gets the same searches.
func TestHeldTemplateServesCallsAlike(t *testing.T) {
	f, parts := esCell(t)
	whole, err := Solve(context.Background(), f, parts, Options{Workers: 2, KeepProofs: true})
	if err != nil || whole.Status != sat.Unsat {
		t.Fatalf("%v, %v", whole, err)
	}
	opts := Options{Workers: 1, KeepProofs: true}
	held := Prepare(f, nil, parts, opts)
	if !held.Ready() {
		t.Fatal("a template that has yet to be built is not ready to be")
	}
	var restored *Template
	var checker *sat.ProofChecker
	builds := 0
	for _, call := range [][]partition.Partition{parts[3:4], parts[0:2], parts[6:8], parts} {
		res, err := held.Solve(context.Background(), call, opts)
		if err != nil || res.Status != sat.Unsat {
			t.Fatalf("partitions %d..%d: %v, %v", call[0].Index, call[len(call)-1].Index, res, err)
		}
		if restored == nil {
			restored = Prepare(f, nil, parts, opts)
			data, err := held.Snapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(data); err != nil {
				t.Fatal(err)
			}
		}
		alike, err := restored.Solve(context.Background(), call, opts)
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
			if err != nil || prefix.NumLemmas() == 0 {
				t.Fatalf("prefix of %d bytes, %v", len(prefix), err)
			}
			if rp, err := restored.Prefix(context.Background()); err != nil || rp.NumLemmas() != 0 {
				t.Fatalf("a restored template logged %d lemmas, %v before its clones", rp.NumLemmas(), err)
			}
			checker = sat.NewProofChecker(f)
			checker.Extend(prefix)
			if err := checker.ExtendDone(); err != nil {
				t.Fatal(err)
			}
		}
		for i, inst := range res.Instances {
			if got, want := scheduleFreeOf(inst.Stats), scheduleFreeOf(whole.Instances[inst.Partition].Stats); got != want {
				t.Errorf("partition %d: %+v, in the whole run %+v", inst.Partition, got, want)
			}
			if scheduleFreeOf(alike.Instances[i].Stats) != scheduleFreeOf(inst.Stats) {
				t.Errorf("partition %d: %+v on the restored template", inst.Partition, alike.Instances[i].Stats)
			}
			tail := tailOf(t, inst)
			if checker.Check(call[i].Assumptions, tail) != nil {
				t.Errorf("partition %d: its own log does not check on the template's: %v", inst.Partition, tail.NumLemmas())
			}
			if sat.CheckRUP(f, call[i].Assumptions, tail) == nil && tail.NumLemmas() > 0 && inst.Stats.Conflicts > 50 {
				t.Errorf("partition %d: a tail of %d lemmas checks without the prefix: is it one?", inst.Partition, tail.NumLemmas())
			}
		}
	}
	if builds != 1 {
		t.Fatalf("the template was built %d times", builds)
	}

	// One partition, nothing to split: the run's only cube is solved on a
	// solver loaded for it, every time, and the prefix is empty.
	single := Prepare(f, nil, parts[2:3], opts)
	cold := sat.New(f.NumVars, sat.Options{})
	cold.EnableProof()
	cold.AddFormula(f)
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
		if err := sat.CheckRUP(f, parts[2].Assumptions, tailOf(t, res.Instances[0])); err != nil {
			t.Fatalf("its proof is not whole: %v", err)
		}
	}
	if prefix, err := single.Prefix(context.Background()); err != nil || prefix.NumLemmas() != 0 {
		t.Fatalf("prefix of a run of one partition: %d lemmas, %v", prefix.NumLemmas(), err)
	}
}

// A template lets its formula go once its solver — and the run's
// checker, when the run certifies — has loaded it, in every run: plain,
// certified or keeping proofs, of many cubes or of one. Whoever reads it
// after that gets it from Prepare's again, as does a build after a pass
// cut short or a Drop; a restored template, which has no again, has
// nothing to build from once its solver is used up. What it let go it no
// longer needs: a held template clones its cubes from the solver it
// keeps, and reports the variables the pass left them.
func TestTemplateLetsTheFormulaGo(t *testing.T) {
	f, parts := esCell(t)
	var derived atomic.Int32
	again := func() (*cnf.Formula, error) {
		derived.Add(1)
		return f.Clone(), nil
	}
	holds := func(tpl *Template) bool {
		tpl.mu.Lock()
		defer tpl.mu.Unlock()
		return tpl.f != nil
	}
	for _, opts := range []Options{{Workers: 2}, {Workers: 2, CertifyUnsat: true}, {Workers: 2, KeepProofs: true}} {
		for _, cubes := range [][]partition.Partition{parts, parts[2:3]} {
			tpl := Prepare(f, again, cubes, opts)
			derived.Store(0)
			for range 2 {
				res, err := tpl.Solve(context.Background(), cubes, opts)
				if err != nil || res.Status != sat.Unsat || (opts.CertifyUnsat && !res.Certified) {
					t.Fatalf("%+v, %d cubes: %v, %v", opts, len(cubes), res, err)
				}
				if holds(tpl) || !tpl.Ready() {
					t.Fatalf("%+v, %d cubes: after the build the template holds its formula (%v) or is not ready (%v)",
						opts, len(cubes), holds(tpl), tpl.Ready())
				}
			}
			// A run's only cube uses its solver up, and the second call
			// builds another from the formula derived again.
			want := int32(len(cubes) % 2)
			if derived.Load() != want {
				t.Fatalf("%+v, %d cubes: the formula was derived again %d times, want %d", opts, len(cubes), derived.Load(), want)
			}
			if got, err := tpl.Formula(); err != nil || got.NumClauses() != f.NumClauses() || derived.Load() != want+1 {
				t.Fatalf("%+v, %d cubes: Formula after the build: %v, %d derivations", opts, len(cubes), err, derived.Load())
			}
		}
	}
	plain := Prepare(f, again, parts, Options{Workers: 2})
	if _, err := plain.Solve(context.Background(), parts, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	tpl := plain.Result()
	if tpl.VarsIn != f.NumVars || tpl.VarsOut != tpl.VarsIn-int(tpl.Stats.ElimVars) || tpl.VarsOut >= tpl.VarsIn/2 {
		t.Fatalf("template of %d variables: %d -> %d, %d eliminated", f.NumVars, tpl.VarsIn, tpl.VarsOut, tpl.Stats.ElimVars)
	}

	// A pass cut short: the next call builds again, from the formula
	// derived again.
	cut := Prepare(f, again, parts, Options{Workers: 2})
	derived.Store(0)
	if s, _, _, err := cut.get(len(parts), func(s *sat.Solver) func() { s.Interrupt(); return func() {} }); err != nil || s.Stats().ElimVars != 0 {
		t.Fatalf("an interrupted pass: %v", err)
	}
	if holds(cut) {
		t.Fatal("a template whose pass was cut short kept the formula")
	}
	if res, err := cut.Solve(context.Background(), parts, Options{Workers: 2}); err != nil || res.Status != sat.Unsat || res.Template.Time == 0 || derived.Load() != 1 {
		t.Fatalf("after a pass cut short: %v, %v, %d derivations", res, err, derived.Load())
	}

	// A formula that cannot be derived again fails the build that needs
	// it, and never builds from anything else.
	refused := Prepare(f, func() (*cnf.Formula, error) { return nil, errors.New("digest mismatch") }, parts[2:3], Options{})
	for i := range 2 {
		if _, err := refused.Solve(context.Background(), parts[2:3], Options{}); (i == 1) != (err != nil) {
			t.Fatalf("call %d on a template whose formula cannot be derived again: %v", i, err)
		}
	}

	// A restored template has no formula, and nothing to build from once
	// its only cube has used its solver up.
	data, err := Prepare(f, nil, parts[2:3], Options{}).Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Restored(data, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := single.Solve(context.Background(), parts[2:3], Options{}); err != nil || res.Status != sat.Unsat {
		t.Fatalf("one cube: %v, %v", res, err)
	}
	if single.Ready() {
		t.Fatal("a restored template whose only cube used its solver up is ready")
	}
	if _, err := single.Solve(context.Background(), parts[2:3], Options{}); !errors.Is(err, errSpent) {
		t.Fatalf("a second call on a spent template: %v", err)
	}
}

// tailOf is the kept proof of a held template's cube.
func tailOf(t *testing.T, inst InstanceResult) sat.Proof {
	t.Helper()
	if inst.Proof.NumLemmas() == 0 {
		t.Fatalf("partition %d: kept tail of %d bytes and no lemma", inst.Partition, len(inst.Proof))
	}
	return inst.Proof
}

// Honest chains are the proof: every lemma of a certified run of
// es.u2.c5.p16 — the template's pass, streamed to the run's checker
// beside it (passSink), and every cube's tail — is accepted along the
// chain its solver logged, which the checker walks and never goes
// beyond. (TestLongTailsNeverFallBack holds the same of a cell whose
// tails are twice as long, outside the repeated race step.)
func TestChainsNeverFallBack(t *testing.T) {
	checkNoFallback(t, 5, 16)
}

// The 8 tails of es.u2.c6.p8, with their prefix, as
// TestChainsNeverFallBack.
func TestLongTailsNeverFallBack(t *testing.T) {
	checkNoFallback(t, 6, 8)
}

// checkNoFallback runs eliminationstack u=2 at the given contexts in n
// partitions, certified, and requires every lemma the run's checker
// took, the prefix's and every tail's, to be accepted.
func checkNoFallback(t *testing.T, contexts, n int) {
	t.Helper()
	f, parts := encodeCell(t, bench.Eliminationstack(), 2, contexts, n)
	res, err := Solve(context.Background(), f, parts, Options{Workers: 2, CertifyUnsat: true})
	if err != nil || res.Status != sat.Unsat {
		t.Fatalf("es.u2.c%d.p%d: %v, %v", contexts, n, res, err)
	}
	var tails int64
	for _, inst := range res.Instances {
		tails += inst.Stats.Learnt
	}
	if w := res.CertifyWork; !res.Certified || tails == 0 || w.Lemmas <= tails || w.ChainClauses < w.Lemmas {
		t.Errorf("es.u2.c%d.p%d: certified %v, the checker did %+v over %d lemmas of tails and a prefix; want every lemma accepted along its chain",
			contexts, n, res.Certified, w, tails)
	}
}

// A run's only cube is solved on a template whose load logs lemmas when
// the formula gives it any — a unit that propagates, a clause a unit
// shortens (the encoder's formulas give none). The run's checker holds
// the load as it holds a pass, and the cube's log starts after it: in
// process, where the kept proof is the load's log and then the cube's,
// and on a worker that restored the template from its snapshot.
func TestOneCubeProofContinuesTheLoad(t *testing.T) {
	ctx := context.Background()
	f := cnf.New()
	f.AddClause(cnf.NegLit(1))
	f.AddClause(cnf.PosLit(1), cnf.PosLit(40))
	pigeonhole(5).Each(func(c cnf.Clause) { f.AddClause(c...) })
	load := sat.New(f.NumVars, sat.Options{})
	load.EnableProof()
	load.AddFormula(f)
	if n := load.ProofLog().NumLemmas(); n < 2 {
		t.Fatalf("the load logged %d lemmas", n)
	}
	parts := []partition.Partition{{Index: 0}}
	res, err := Solve(ctx, f, parts, Options{CertifyUnsat: true, KeepProofs: true})
	if err != nil || res.Status != sat.Unsat || !res.Certified {
		t.Fatalf("in process: %+v, %v", res, err)
	}
	if err := sat.CheckRUP(f, nil, res.Instances[0].Proof); err != nil {
		t.Fatalf("the kept proof does not check: %v", err)
	}
	built := Prepare(f, nil, parts, Options{CertifyUnsat: true})
	data, err := built.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restored(data, 1, Options{KeepProofs: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Solve(ctx, parts, Options{KeepProofs: true})
	if err != nil || got.Status != sat.Unsat {
		t.Fatalf("restored: %+v, %v", got, err)
	}
	if _, err := built.Check(nil, got.Instances[0].Proof); err != nil {
		t.Fatalf("the restored template's tail does not check on the builder's checker: %v", err)
	}
}
