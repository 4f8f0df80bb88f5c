package sat

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/cnf"
)

// The three states a solver is cloned in: as loaded; simplified up
// front with the assumption variables frozen, which is what the
// partition runner's template is; and as loaded with the pass due at the
// clone's first restart, so that the clone itself runs it — on tables
// of its own, or the other clones and the template would see it.
type cloneMode int

const (
	cloneLoaded cloneMode = iota
	cloneSimplified
	clonePassDue
)

func (m cloneMode) String() string {
	return [...]string{"loaded", "simplified", "pass-due"}[m]
}

func buildForClone(f *cnf.Formula, assumptions []cnf.Lit, opts Options, mode cloneMode) *Solver {
	s := NewFromFormula(f, opts)
	s.EnableProof()
	switch mode {
	case cloneSimplified:
		s.Freeze(assumptions...)
		s.Simplify()
	case clonePassDue:
		s.simplifyAt = 0
	}
	return s
}

// since is what the counters of after count beyond those of before; the
// levels (depth, footprint, progress) are after's.
func (after Stats) since(before Stats) Stats {
	after.Decisions -= before.Decisions
	after.Conflicts -= before.Conflicts
	after.Propagations -= before.Propagations
	after.Restarts -= before.Restarts
	after.Backjumps -= before.Backjumps
	after.Learnt -= before.Learnt
	after.LearntLits -= before.LearntLits
	after.Minimised -= before.Minimised
	after.Simplified -= before.Simplified
	after.ElimVars -= before.ElimVars
	after.LearntDeleted -= before.LearntDeleted
	after.MemShrinks -= before.MemShrinks
	return after
}

type solveOutcome struct {
	st    Status
	err   error
	stats Stats
	model []bool
	log   []cnf.Clause
}

func solveOutcomeOf(s *Solver, assumptions []cnf.Lit) solveOutcome {
	st, err := s.Solve(assumptions...)
	out := solveOutcome{st: st, err: err, stats: s.Stats(), log: s.ProofLog().Lemmas}
	if st == Sat {
		out.model = s.Model()
	}
	return out
}

// checkCloneSolve is the differential test of Clone: a solver built
// like the template and solved itself says what every clone must.
func checkCloneSolve(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, opts Options, mode cloneMode) {
	t.Helper()
	tpl := buildForClone(f, assumptions, opts, mode)
	ref := buildForClone(f, assumptions, opts, mode)
	built, refuted := ref.Stats(), !ref.ok
	prefix := slices.Clone(tpl.ProofLog().Lemmas)

	// Two clones solved at once: what they share with each other and
	// with the template they may only read (the race detector's part).
	clones := [2]*Solver{tpl.Clone(), tpl.Clone()}
	var got [2]solveOutcome
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = solveOutcomeOf(c, assumptions)
		}()
	}
	want := solveOutcomeOf(ref, assumptions)
	wg.Wait()
	if want.err != nil && !errors.Is(want.err, ErrMemBudget) {
		t.Fatalf("%v: solve: %v", mode, want.err)
	}

	for i, c := range clones {
		g := got[i]
		if g.st != want.st || g.err != want.err {
			t.Fatalf("%v: clone %d says %v, %v; the solver it copies %v, %v", mode, i, g.st, g.err, want.st, want.err)
		}
		// A clone's counters start at the clone. Its high-water mark too,
		// so it lies below the original's exactly when that has a
		// simplification pass behind it.
		wantStats := want.stats.since(built)
		if refuted {
			// Loading or the pass refuted the formula, and Solve says so
			// without touching a counter or a level.
			wantStats = Stats{}
		}
		if mode == cloneSimplified {
			if g.stats.PeakMemBytes > wantStats.PeakMemBytes {
				t.Fatalf("%v: clone %d peaked at %d bytes, the solver it copies at %d", mode, i, g.stats.PeakMemBytes, wantStats.PeakMemBytes)
			}
			wantStats.PeakMemBytes = g.stats.PeakMemBytes
		}
		if g.stats != wantStats {
			t.Fatalf("%v: clone %d searched differently:\n%+v\nthe solver it copies:\n%+v", mode, i, g.stats, wantStats)
		}
		if !slices.Equal(g.model, want.model) {
			t.Fatalf("%v: clone %d found another model", mode, i)
		}
		// The template's log and the clone's are the original's, cut at
		// the clone.
		whole := &Proof{Lemmas: append(slices.Clone(prefix), g.log...)}
		if !slices.EqualFunc(whole.Lemmas, want.log, func(a, b cnf.Clause) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%v: clone %d logged %d+%d lemmas, not the %d of the solver it copies", mode, i, len(prefix), len(g.log), len(want.log))
		}
		switch g.st {
		case Sat:
			// A model of the formula as loaded, eliminated variables included.
			assign := make([]bool, max(f.NumVars, c.NumVars())+1)
			copy(assign[1:], g.model)
			if !f.Eval(assign) {
				t.Fatalf("%v: clone %d: model does not satisfy the formula as loaded", mode, i)
			}
			for _, a := range assumptions {
				if !c.ModelValue(a) {
					t.Fatalf("%v: clone %d: model violates assumption %v", mode, i, a)
				}
			}
		case Unsat:
			if err := CheckRUP(f, assumptions, whole); err != nil {
				t.Fatalf("%v: clone %d: prefix ++ tail rejected: %v", mode, i, err)
			}
			checker := NewProofChecker(f)
			if err := checker.Extend(&Proof{Lemmas: prefix}); err != nil {
				t.Fatalf("%v: the template's lemmas rejected: %v", mode, err)
			}
			if err := checker.Check(assumptions, &Proof{Lemmas: g.log}); err != nil {
				t.Fatalf("%v: clone %d: tail rejected after Extend(prefix): %v", mode, i, err)
			}
		}
		checkStore(t, c)
	}

	// Solving the clones left the template as it was built: solved now,
	// it is the reference to the last counter.
	if after := solveOutcomeOf(tpl, assumptions); after.st != want.st || after.err != want.err || after.stats != want.stats ||
		!slices.Equal(after.model, want.model) ||
		!slices.EqualFunc(after.log, want.log, func(a, b cnf.Clause) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%v: the template changed under its clones: %v, %v\n%+v\nbuilt afresh: %v, %v\n%+v",
			mode, after.st, after.err, after.stats, want.st, want.err, want.stats)
	}
	checkStore(t, tpl)
}

// FuzzCloneSolve puts FuzzSolve's inputs through the differential test
// in each of the three states. (Its two long seeds, four solves in three
// states each, are left to TestCloneReduceDB, which gets to the arena
// compaction they are there for in a tenth of the conflicts.)
func FuzzCloneSolve(f *testing.F) {
	small, _, _ := fuzzSeeds()
	for _, seed := range small {
		f.Add(seed)
	}
	// What the pass works on: chained definitions, nearly all eliminable.
	gates := cnf.New()
	for v := 1; v+2 <= 40; v += 2 {
		gates.AddClause(mk(v+2, true), mk(v, false))
		gates.AddClause(mk(v+2, true), mk(v+1, false))
		gates.AddClause(mk(v+2, false), mk(v, true), mk(v+1, true))
	}
	gates.AddClause(mk(39, false), mk(41, false))
	f.Add(encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(41, true), mk(2, false)}, gates))
	f.Add(encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(7, false), mk(30, true)}, random3SAT(2, 100, 4.0)))
	// An assumption over a variable the formula does not have.
	f.Add(encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(1, true), mk(90, false)}, pigeonhole(5)))
	// Refuted by the pass itself: the clones are born inconsistent.
	f.Add(encodeFuzzInput(0, nil, pigeonhole(2)))

	f.Fuzz(func(t *testing.T, data []byte) {
		formula, assumptions, opts := decodeFuzzInput(data)
		for _, mode := range []cloneMode{cloneLoaded, cloneSimplified, clonePassDue} {
			checkCloneSolve(t, formula, assumptions, opts, mode)
		}
	})
}

// reduceDB compacts the arena and rewrites the clause list and every
// watcher and reason in place: two clones doing so at once, and then
// searching on, must leave each other and the template alone.
func TestCloneReduceDB(t *testing.T) {
	f := pigeonhole(7)
	build := func() *Solver {
		s := NewFromFormula(f, Options{MaxConflicts: 2000})
		s.EnableProof()
		return s
	}
	run := func(s *Solver) solveOutcome {
		if st, err := s.Solve(); st != Unknown || err != nil {
			t.Errorf("got %v, %v after 2000 conflicts; want the budget to end the search", st, err)
		}
		before := len(s.learnts)
		s.reduceDB()
		if len(s.learnts) >= before {
			t.Errorf("reduceDB kept all %d learnt clauses", before)
		}
		s.opts.MaxConflicts = 0
		return solveOutcomeOf(s, nil)
	}
	tpl := build()
	clones := [2]*Solver{tpl.Clone(), tpl.Clone()}
	var got [2]solveOutcome
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(c)
		}()
	}
	want := run(build())
	wg.Wait()
	if want.st != Unsat || want.stats.LearntDeleted == 0 {
		t.Fatalf("reference: %v with %d learnt clauses deleted", want.st, want.stats.LearntDeleted)
	}
	for i, c := range clones {
		if got[i].st != want.st || got[i].stats != want.stats {
			t.Fatalf("clone %d: %v\n%+v\nthe solver it copies: %v\n%+v", i, got[i].st, got[i].stats, want.st, want.stats)
		}
		if err := CheckRUP(f, nil, &Proof{Lemmas: got[i].log}); err != nil {
			t.Fatalf("clone %d: refutation rejected: %v", i, err)
		}
		checkStore(t, c)
	}
	if after := run(tpl); after.st != want.st || after.stats != want.stats {
		t.Fatalf("the template changed under its clones: %v\n%+v\nbuilt afresh: %v\n%+v", after.st, after.stats, want.st, want.stats)
	}
}

// A clone of a solver that has a model behind it — above decision level
// 0, its trail full — is as good as one of a fresh solver.
func TestCloneAfterSolve(t *testing.T) {
	f := random3SAT(3, 60, 3.5)
	s := NewFromFormula(f, Options{})
	if st, err := s.Solve(); err != nil || st != Sat {
		t.Fatalf("got %v, %v; want SAT", st, err)
	}
	c := s.Clone()
	stC, errC := c.Solve(mk(1, !s.ModelValue(mk(1, false))))
	stS, errS := s.Solve(mk(1, !s.ModelValue(mk(1, false))))
	if stC != stS || errC != errS {
		t.Fatalf("clone says %v, %v; the solver it copies %v, %v", stC, errC, stS, errS)
	}
	if stC == Sat && !slices.Equal(c.Model(), s.Model()) {
		t.Fatal("clone found another model")
	}
	checkStore(t, c)
}
