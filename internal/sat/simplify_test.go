package sat

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/trace"
	"repro/prog"
)

// simplifyAndSolve is the up-front pipeline a Simplifier user runs:
// simplify with the assumption variables frozen and solve the output
// under the assumptions. On SAT the model comes from a solver that ran
// the same pass on f itself, which extends it to the variables the
// pass eliminated.
func simplifyAndSolve(t *testing.T, f *cnf.Formula, assumptions ...cnf.Lit) (Status, []bool) {
	t.Helper()
	sp := NewSimplifier()
	sp.FreezeLits(assumptions...)
	simplified, st := sp.Simplify(f)
	if st == Unsat {
		return Unsat, nil
	}
	if simplified.NumVars < f.NumVars {
		t.Fatalf("output has %d variables, input %d", simplified.NumVars, f.NumVars)
	}
	solver := NewFromFormula(simplified, Options{})
	status, err := solver.Solve(assumptions...)
	if err != nil {
		t.Fatal(err)
	}
	if status != Sat {
		return status, nil
	}
	s := NewFromFormula(f, Options{})
	s.Freeze(assumptions...)
	if !s.Simplify() {
		t.Fatal("the pass refuted a formula whose simplified output is satisfiable")
	}
	if st, err := s.Solve(assumptions...); st != Sat || err != nil {
		t.Fatalf("solved after its own pass: %v, %v; the simplified output is satisfiable", st, err)
	}
	return Sat, s.Model()
}

func TestSimplifyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for iter := 0; iter < 400; iter++ {
		nv := 1 + rng.Intn(10)
		f := randomFormula(rng, nv, rng.Intn(40), 1+rng.Intn(4))
		want := bruteForceSat(f)
		st, model := simplifyAndSolve(t, f)
		if (st == Sat) != want {
			t.Fatalf("iter %d: simplified=%v bruteforce=%v\n%v", iter, st, want, f)
		}
		if st == Sat {
			assign := make([]bool, f.NumVars+1)
			copy(assign[1:], model)
			if !f.Eval(assign) {
				t.Fatalf("iter %d: reconstructed model invalid", iter)
			}
		}
	}
}

func TestSimplifyUnderAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for iter := 0; iter < 200; iter++ {
		nv := 2 + rng.Intn(8)
		f := randomFormula(rng, nv, rng.Intn(30), 1+rng.Intn(4))
		var assumps []cnf.Lit
		seen := map[int]bool{}
		for i := 0; i <= rng.Intn(3); i++ {
			v := 1 + rng.Intn(nv)
			if seen[v] {
				continue
			}
			seen[v] = true
			assumps = append(assumps, cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0))
		}
		ref := f.Clone()
		for _, a := range assumps {
			ref.AddUnit(a)
		}
		want := bruteForceSat(ref)
		st, model := simplifyAndSolve(t, f, assumps...)
		if (st == Sat) != want {
			t.Fatalf("iter %d: simplified=%v want=%v assumps=%v", iter, st, want, assumps)
		}
		if st == Sat {
			assign := make([]bool, f.NumVars+1)
			copy(assign[1:], model)
			if !f.Eval(assign) {
				t.Fatalf("iter %d: model invalid", iter)
			}
			for _, a := range assumps {
				if assign[a.Var()] == a.Neg() {
					t.Fatalf("iter %d: assumption %v violated", iter, a)
				}
			}
		}
	}
}

func TestSimplifyTrivialCases(t *testing.T) {
	// Empty formula: SAT.
	st, _ := simplifyAndSolve(t, cnf.New())
	if st != Sat {
		t.Fatalf("empty: %v", st)
	}
	// Single unit.
	f := cnf.New()
	f.AddUnit(cnf.PosLit(1))
	st, model := simplifyAndSolve(t, f)
	if st != Sat || !model[0] {
		t.Fatalf("unit: %v %v", st, model)
	}
	// Contradiction.
	f2 := cnf.New()
	f2.AddUnit(cnf.PosLit(1))
	f2.AddUnit(cnf.NegLit(1))
	if st, _ := simplifyAndSolve(t, f2); st != Unsat {
		t.Fatalf("contradiction: %v", st)
	}
	// Empty clause.
	f3 := cnf.New()
	f3.AddClause()
	if st, _ := simplifyAndSolve(t, f3); st != Unsat {
		t.Fatalf("empty clause: %v", st)
	}
}

func TestSimplifyReducesPigeonhole(t *testing.T) {
	f := pigeonhole(5)
	sp := NewSimplifier()
	simplified, st := sp.Simplify(f)
	if st == Sat {
		t.Fatal("pigeonhole cannot be satisfiable")
	}
	if st == Unknown && simplified.NumClauses() > f.NumClauses() {
		t.Fatalf("simplification grew the formula: %d -> %d",
			f.NumClauses(), simplified.NumClauses())
	}
}

func TestSimplifyEliminatesVariables(t *testing.T) {
	// x3 occurs once positively and once negatively: eliminated by
	// resolution, leaving (x1 ∨ x2 ∨ x4).
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(3))
	f.AddClause(cnf.NegLit(3), cnf.PosLit(2), cnf.PosLit(4))
	s := NewFromFormula(f, Options{})
	if !s.Simplify() {
		t.Fatal("unexpected UNSAT")
	}
	if s.Stats().ElimVars == 0 {
		t.Fatal("no variables eliminated")
	}
}

func TestFrozenVariablesSurvive(t *testing.T) {
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(2), cnf.PosLit(3))
	s := NewFromFormula(f, Options{})
	s.Freeze(mk(2, false))
	if !s.Simplify() {
		t.Fatal("unexpected UNSAT")
	}
	// Variable 2 may be left in the solver or be absent (if its clauses
	// vanished), but it must not be on the elimination stack.
	if s.Stats().ElimVars == 0 {
		t.Fatal("nothing eliminated: the stack check below is vacuous")
	}
	for _, chunk := range s.elimStack.chunks {
		for i := len(chunk); i > 0; i -= int(chunk[i-1]) + 1 {
			if first := chunk[i-1-int(chunk[i-1])]; first>>1 == 2 {
				t.Fatal("frozen variable eliminated")
			}
		}
	}
}

func TestSubsumptionRemovesWeakerClause(t *testing.T) {
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2), cnf.PosLit(3)) // subsumed
	f.AddClause(cnf.NegLit(1), cnf.PosLit(4))
	f.AddClause(cnf.NegLit(2), cnf.NegLit(4))
	sp := NewSimplifier()
	sp.FreezeLits(mk(1, false), mk(2, false), mk(3, false), mk(4, false)) // isolate subsumption from elimination
	simplified, _ := sp.Simplify(f)
	if simplified.NumClauses() >= f.NumClauses() {
		t.Fatalf("subsumed clause not removed: %d clauses", simplified.NumClauses())
	}
}

func TestSelfSubsumingResolutionStrengthens(t *testing.T) {
	// (1 2) and (1 ¬2 3): the second strengthens to (1 3) via
	// self-subsumption with the first... check at least equisatisfiable
	// output with brute force on a targeted instance.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.PosLit(1), cnf.NegLit(2), cnf.PosLit(3))
	f.AddClause(cnf.NegLit(1))
	want := bruteForceSat(f)
	st, model := simplifyAndSolve(t, f)
	if (st == Sat) != want {
		t.Fatalf("verdict %v want sat=%v", st, want)
	}
	if st == Sat {
		assign := make([]bool, f.NumVars+1)
		copy(assign[1:], model)
		if !f.Eval(assign) {
			t.Fatal("model invalid")
		}
	}
}

func TestReconstructModelHandlesChains(t *testing.T) {
	// Chain of equivalences x1 = x2 = x3 = x4 with x1 forced: the
	// eliminated middle variables must reconstruct consistently.
	f := cnf.New()
	for v := 1; v <= 3; v++ {
		f.AddClause(cnf.NegLit(cnf.Var(v)), cnf.PosLit(cnf.Var(v+1)))
		f.AddClause(cnf.PosLit(cnf.Var(v)), cnf.NegLit(cnf.Var(v+1)))
	}
	f.AddUnit(cnf.PosLit(1))
	st, model := simplifyAndSolve(t, f)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	for v := 0; v < 4; v++ {
		if !model[v] {
			t.Fatalf("x%d false in reconstructed model", v+1)
		}
	}
}

func TestSimplifierPreservesBenchVerdicts(t *testing.T) {
	// Random larger instances: simplifier + solver must agree with the
	// plain solver.
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 30; iter++ {
		f := randomFormula(rng, 40, 150, 3)
		plain := NewFromFormula(f, Options{})
		want, err := plain.Solve()
		if err != nil {
			t.Fatal(err)
		}
		st, _ := simplifyAndSolve(t, f)
		if st != want {
			t.Fatalf("iter %d: simplified %v, plain %v", iter, st, want)
		}
	}
}

// gateChain is a formula made for the pass: n-1 AND gates chained from
// two inputs (gate v+2 = v ∧ v+1), nearly every variable eliminable.
func gateChain(n int) *cnf.Formula {
	f := cnf.New()
	for v := 1; v+2 <= n; v += 2 {
		f.AddClause(mk(v+2, true), mk(v, false))
		f.AddClause(mk(v+2, true), mk(v+1, false))
		f.AddClause(mk(v+2, false), mk(v, true), mk(v+1, true))
	}
	return f
}

// Simplified counts the original clauses the pass removed and ElimVars
// the variables it eliminated, each once: against a recount from the
// eliminator's own clause flags, Simplified = clauses in − clauses out
// + resolvents kept. (The map-based simplifier counted a subsumed
// clause twice.) The in-solver pass fills both.
func TestSimplifiedCountsRemovedOriginals(t *testing.T) {
	f := encodeBench(t, bench.Fibonacci(2), 2, 6)
	s := NewFromFormula(f, Options{})
	in := len(s.clauses)
	e := newEliminator(s)
	if !e.load() || !e.run() || !e.applyUnits() {
		t.Fatal("the pass refuted a satisfiable formula")
	}
	out, resolventsKept := 0, 0
	for c, end := e.first(), cref(len(e.arena))+2; c != end; c = e.next(c) {
		if e.removed(c) {
			continue
		}
		out++
		if e.arena[c-1]&elimDerived != 0 {
			resolventsKept++
		}
	}
	if resolventsKept == 0 || out >= in {
		t.Fatalf("%d clauses in, %d out, %d of them resolvents: the pass did nothing to count", in, out, resolventsKept)
	}
	if got, want := s.stats.Simplified, int64(in-out+resolventsKept); got != want {
		t.Errorf("Simplified = %d, want %d (%d in − %d out + %d resolvents kept)", got, want, in, out, resolventsKept)
	}
	eliminated := 0
	for _, gone := range e.elim {
		if gone {
			eliminated++
		}
	}
	if got := s.stats.ElimVars; got == 0 || got != int64(eliminated) {
		t.Errorf("ElimVars = %d, %d variables flagged", got, eliminated)
	}
	if !e.install(true) || len(s.clauses) != out {
		t.Fatalf("installed %d clauses, the eliminator held %d", len(s.clauses), out)
	}

	solved := NewFromFormula(f, Options{})
	solved.simplifyAt = 0
	if st, err := solved.Solve(); err != nil || st != Sat {
		t.Fatalf("solve: %v, %v", st, err)
	}
	if got := solved.Stats(); got.Simplified != s.stats.Simplified || got.ElimVars != s.stats.ElimVars {
		t.Errorf("in-solver pass reports %d removed, %d eliminated; the pass alone %d, %d",
			got.Simplified, got.ElimVars, s.stats.Simplified, s.stats.ElimVars)
	}
}

// With the pass forced before the first search, the benchmark's
// UNSAFE cells still decode to a counterexample the interpreter
// replays: trace.Decode reads variables the pass eliminated, so this
// is model extension end to end.
func TestSimplifiedModelsDecodeToValidTraces(t *testing.T) {
	for _, tc := range []struct {
		name             string
		prog             *prog.Program
		unwind, contexts int
	}{
		{"bb.u2.c6", bench.Boundedbuffer(), 2, 6},
		{"ws.u3.c7", bench.Workstealingqueue(), 3, 7},
		{"fib2.u2.c6", bench.Fibonacci(2), 2, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := encodeBenchCell(t, tc.prog, tc.unwind, tc.contexts)
			s, st := solveSimplified(t, enc.Formula(), nil, Options{})
			if st != Sat || s.Stats().ElimVars == 0 {
				t.Fatalf("%v with %d variables eliminated, want SAT after an elimination", st, s.Stats().ElimVars)
			}
			viol, err := trace.Validate(enc, trace.Decode(enc, s.Model()))
			if err != nil {
				t.Fatalf("decoded trace rejected: %v", err)
			}
			if viol == nil {
				t.Fatal("decoded trace replays without a violation")
			}
		})
	}
}

// The same for refutations and for cubes: partitions of an encoded
// SAFE cell, each simplified under its own assumptions, are refuted
// with proofs that check against the un-simplified formula, and agree
// with the plain search counter for counter on a repeat.
func TestSimplifiedRefutationsCheckAgainstOriginal(t *testing.T) {
	enc := encodeBenchCell(t, bench.Fibonacci(1), 2, 3)
	parts := encodedCubes(t, enc, 4)
	simplified := 0
	for _, pt := range parts {
		s, st := checkSimplifiedAgainstPlain(t, enc.Formula(), pt.Assumptions, Options{})
		if st != Unsat {
			t.Fatalf("partition %d: %v, want UNSAT", pt.Index, st)
		}
		if s.Stats().ElimVars == 0 {
			continue // refuted by propagating the assumptions
		}
		simplified++
		for _, a := range pt.Assumptions {
			if s.isEliminated(a.Var()) {
				t.Fatalf("partition %d: assumption variable %d eliminated", pt.Index, a.Var())
			}
		}
	}
	if simplified < 2 {
		t.Fatalf("the pass ran on %d of %d partitions", simplified, len(parts))
	}
}

// Eliminated variables count as decided: the pass must raise the
// progress estimate by at least their share, not leave it capped at
// the share of variables the search can still assign.
func TestProgressEstimateAcrossSimplification(t *testing.T) {
	s := NewFromFormula(encodeBench(t, bench.Fibonacci(2), 2, 6), Options{})
	before := s.ProgressEstimate()
	if !s.simplify() {
		t.Fatal("the pass refuted a satisfiable formula")
	}
	after := s.ProgressEstimate()
	share := float64(s.stats.ElimVars) / float64(s.NumVars())
	if share < 0.25 {
		t.Fatalf("only %.0f%% of the variables eliminated", 100*share)
	}
	if after < before+share-1e-9 || after > 1 {
		t.Fatalf("estimate %.3f before the pass, %.3f after it eliminated %.0f%% of the variables", before, after, 100*share)
	}
	if st, err := s.Solve(); err != nil || st != Sat {
		t.Fatalf("solve: %v, %v", st, err)
	}
	if final := s.Stats().Progress; final < after || final > 1 {
		t.Fatalf("estimate %.3f at the model, %.3f after the pass", final, after)
	}
}

// An eliminated variable's clauses are gone for good, so what names
// one afterwards is handled on purpose: Solve refuses the assumption,
// AddClause panics, and an imported clause is dropped.
func TestEliminatedVariablesNeverLeak(t *testing.T) {
	// A satisfiable core that takes a few restarts, plus one gate over
	// it that nothing else mentions: variable 201 is eliminated.
	f := random3SAT(3, 200, 4.1)
	f.AddClause(mk(201, true), mk(1, false))
	f.AddClause(mk(201, true), mk(2, false))
	f.AddClause(mk(201, false), mk(1, true), mk(2, true))
	s := NewFromFormula(f, Options{})
	s.simplifyAt = 0
	imports := 0
	s.Import = func() [][]cnf.Lit {
		imports++
		// Contradictory if taken; over an eliminated variable, so not.
		return [][]cnf.Lit{{mk(201, false)}, {mk(201, true)}, {mk(201, false), mk(3, false)}}
	}
	st, err := s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("solve: %v, %v", st, err)
	}
	if !s.isEliminated(201) || imports == 0 {
		t.Fatalf("variable 201 eliminated: %v, Import polled %d times; the test needs both", s.isEliminated(201), imports)
	}
	assign := make([]bool, f.NumVars+1)
	copy(assign[1:], s.Model())
	if !f.Eval(assign) {
		t.Fatal("model does not satisfy the formula")
	}

	if st, err := s.Solve(mk(201, false)); st != Unknown || !errors.Is(err, ErrEliminated) {
		t.Fatalf("assumption over an eliminated variable: %v, %v; want Unknown, ErrEliminated", st, err)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "eliminated variable") {
				t.Fatalf("AddClause over an eliminated variable: panic %q", msg)
			}
		}()
		s.AddClause(mk(201, false), mk(5, true))
	}()
	// The solver is still good for what it can answer.
	if st, err := s.Solve(mk(5, s.Model()[4])); err != nil || st == Unknown {
		t.Fatalf("solve after the refusals: %v, %v", st, err)
	}
	s.cancelUntil(0)
	s.AddClause(mk(202, false), mk(5, true))
	if st, err := s.Solve(mk(202, false)); err != nil || st == Unknown {
		t.Fatalf("solve over a variable added after the pass: %v, %v", st, err)
	}
}

// A pass that finds the solver interrupted stops at once, and one
// interrupted half-way stops where it is; either way what it installs
// is a consistent clause set, and the solver goes on to the right
// answer, with a proof or a model of the original formula, once the
// interrupt is cleared.
func TestSimplifyStopsWhenInterrupted(t *testing.T) {
	f := encodeBench(t, bench.Fibonacci(1), 1, 3)
	finish := func(t *testing.T, s *Solver) {
		t.Helper()
		checkStore(t, s)
		clearInterrupt(s)
		if st, err := s.Solve(); err != nil || st != Unsat {
			t.Fatalf("solve after the interrupted pass: %v, %v", st, err)
		}
		if err := CheckRUP(f, nil, s.ProofLog()); err != nil {
			t.Fatalf("refutation rejected: %v", err)
		}
	}
	t.Run("before", func(t *testing.T) {
		s := newLogging(f, Options{})
		s.simplifyAt = 0
		s.Interrupt()
		if st, err := s.Solve(); st != Unknown || err != ErrInterrupted {
			t.Fatalf("pre-armed interrupt: %v, %v", st, err)
		}
		if !s.simplified || s.Stats().ElimVars != 0 {
			t.Fatalf("pass ran: %v, eliminated %d variables under a standing interrupt", s.simplified, s.Stats().ElimVars)
		}
		finish(t, s)
		if s.Stats().ElimVars != 0 {
			t.Fatal("the pass ran a second time")
		}
	})
	t.Run("midway", func(t *testing.T) {
		s := newLogging(f, Options{})
		e := newEliminator(s)
		ok := e.load() && e.backwardSubsume()
		for n := 0; ok && n < 40; {
			if len(e.heap) == 0 {
				t.Fatal("ran out of variables to eliminate")
			}
			if v := e.pop(); e.candidate(v) {
				ok = e.eliminate(v)
				n++
			}
		}
		s.Interrupt()
		before := s.stats.ElimVars
		if before == 0 || !ok || !e.run() {
			t.Fatalf("%d variables eliminated, ok %v", before, ok)
		}
		if s.stats.ElimVars != before || !e.stopped {
			t.Fatalf("the interrupted pass went on: %d variables eliminated, then %d", before, s.stats.ElimVars)
		}
		if !e.install(true) {
			t.Fatal("install refuted the formula")
		}
		s.simplified = true
		finish(t, s)
	})
}

// The pass is skipped, for good, when its own tables would not fit
// the memory budget; when it runs, the footprint counts what it leaves
// behind and the peak what it used.
func TestSimplifyUnderMemBudget(t *testing.T) {
	f := random3SAT(1, 4000, 2.5)
	s := NewFromFormula(f, Options{MemBudgetMB: 1})
	s.simplifyAt = 0
	if live, pass := s.LiveBytes(), s.eliminatorBytes(); live >= 1<<20 || live+pass <= 1<<20 {
		t.Fatalf("setup: %d bytes live, %d for the pass; want the budget of 1 MiB between", live, pass)
	}
	if st, err := s.Solve(); err != nil || st != Sat {
		t.Fatalf("solve: %v, %v", st, err)
	}
	if !s.simplified || s.numElim != 0 || s.Stats().ElimVars != 0 {
		t.Fatalf("the pass ran (%d variables eliminated) under a budget it does not fit", s.Stats().ElimVars)
	}

	s = NewFromFormula(f, Options{})
	s.simplifyAt = 0
	before, pass := s.LiveBytes(), s.eliminatorBytes()
	if st, err := s.Solve(); err != nil || st != Sat {
		t.Fatalf("solve: %v, %v", st, err)
	}
	if s.elimStack.words == 0 {
		t.Fatal("nothing eliminated")
	}
	if got, want := s.LiveBytes(), liveBytesByHand(s); got != want {
		t.Fatalf("LiveBytes %d, recounted with the elimination stack %d", got, want)
	}
	if got := s.Stats().PeakMemBytes; got < before+pass {
		t.Fatalf("peak %d bytes, below the %d live + %d the pass used", got, before, pass)
	}
}

// Compacting the eliminator's arena moves clauses and nothing else: a
// pass whose arena has no room to spare, and so compacts whenever a
// sixteenth of it is waste, must end with the clause set, elimination
// stack and proof of a pass that never had to.
func TestEliminatorCompactionIsTransparent(t *testing.T) {
	f := encodeBench(t, bench.Fibonacci(2), 2, 6)
	// pass returns the solver after the pass and how long the arena was
	// when it ended: everything ever stored, unless it was compacted.
	pass := func(tight bool) (*Solver, int) {
		s := newLogging(f, Options{})
		e := newEliminator(s)
		if !e.load() {
			t.Fatal("load refuted a satisfiable formula")
		}
		if tight {
			e.arena = slices.Clip(e.arena)
		} else {
			e.arena = slices.Grow(e.arena, 4*len(e.arena))
		}
		if !e.run() {
			t.Fatal("the pass refuted a satisfiable formula")
		}
		words := len(e.arena)
		if !e.install(true) {
			t.Fatal("install refuted a satisfiable formula")
		}
		return s, words
	}
	roomy, stored := pass(false)
	tight, left := pass(true)
	if left >= stored {
		t.Fatalf("the tight arena ended at %d words, the roomy one at %d: it was never compacted", left, stored)
	}
	if !slices.Equal(roomy.arena, tight.arena) {
		t.Fatalf("clause sets differ: %d words against %d", len(roomy.arena), len(tight.arena))
	}
	if !slices.EqualFunc(roomy.elimStack.chunks, tight.elimStack.chunks, slices.Equal[[]uint32]) {
		t.Fatal("elimination stacks differ")
	}
	if !slices.EqualFunc(draftOf(roomy.ProofLog()).Lemmas, draftOf(tight.ProofLog()).Lemmas, slices.Equal[cnf.Clause]) {
		t.Fatal("proofs differ")
	}
}

// The differential test of FuzzSimplifySolve on a few hundred random
// formulas of mixed clause lengths, with and without assumptions: the
// shapes where whole chains of variables are eliminated and the model
// has to be rebuilt through all of them.
func TestSimplifiedSearchAgreesWithPlainOnRandomFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	eliminated := int64(0)
	for iter := 0; iter < 400; iter++ {
		nv := 3 + rng.Intn(40)
		f := randomFormula(rng, nv, rng.Intn(3*nv), 1+rng.Intn(4))
		var assumptions []cnf.Lit
		for v := 1; v <= nv && len(assumptions) < 3; v++ {
			if rng.Intn(8) == 0 {
				assumptions = append(assumptions, mk(v, rng.Intn(2) == 0))
			}
		}
		s, st := checkSimplifiedAgainstPlain(t, f, assumptions, Options{})
		if nv <= 12 {
			ref := f.Clone()
			for _, a := range assumptions {
				ref.AddUnit(a)
			}
			if want := bruteForceSat(ref); (st == Sat) != want {
				t.Fatalf("iter %d: %v, brute force says satisfiable: %v\n%v under %v", iter, st, want, f, assumptions)
			}
		}
		eliminated += s.Stats().ElimVars
	}
	if eliminated < 1000 {
		t.Fatalf("only %d variables eliminated over the whole run", eliminated)
	}
}
