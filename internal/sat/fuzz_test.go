package sat

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// Fuzz inputs are a flag byte followed by literals, one per byte in
// cnf.Lit's own 2v+sign encoding (variables 1..127); a byte below 2
// ends a clause. The flags pick what the run exercises besides the
// search itself.
const (
	fuzzMemBudget = 1 << 0 // solve under MemBudgetMB = 1
	fuzzLongRun   = 1 << 1 // 30000 conflicts instead of 3000: room for reduceDB
	fuzzAssumeTwo = 1 << 2 // the first two literals are assumptions, not a clause
)

func decodeFuzzInput(data []byte) (f *cnf.Formula, assumptions []cnf.Lit, opts Options) {
	f = cnf.New()
	if len(data) == 0 {
		return f, nil, opts
	}
	flags, body := data[0], data[1:]
	opts.MaxConflicts = 3000
	if flags&fuzzLongRun != 0 {
		opts.MaxConflicts = 30000
	}
	if flags&fuzzMemBudget != 0 {
		opts.MemBudgetMB = 1
	}
	if flags&fuzzAssumeTwo != 0 {
		for len(assumptions) < 2 && len(body) > 0 {
			if body[0] >= 2 {
				assumptions = append(assumptions, cnf.Lit(body[0]))
			}
			body = body[1:]
		}
	}
	var clause []cnf.Lit
	for _, b := range body {
		if b >= 2 {
			clause = append(clause, cnf.Lit(b))
			continue
		}
		f.AddClause(clause...)
		clause = nil
	}
	if clause != nil {
		f.AddClause(clause...)
	}
	return f, assumptions, opts
}

func encodeFuzzInput(flags byte, assumptions []cnf.Lit, f *cnf.Formula) []byte {
	data := []byte{flags}
	for _, a := range assumptions {
		data = append(data, byte(a))
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			data = append(data, byte(l))
		}
		data = append(data, 0)
	}
	return data
}

// checkStore verifies what the clause store promises after any amount
// of search: the arena holds exactly the listed clauses, the byte
// accounting matches a recount, and each clause is watched exactly
// twice, through its first two literals, with the binary tag set on
// clauses of two literals and on no others.
func checkStore(t *testing.T, s *Solver) {
	t.Helper()
	if got, want := len(s.arena), arenaWordsByHand(s); got != want {
		t.Fatalf("arena holds %d words, its listed clauses %d", got, want)
	}
	if got, want := s.LiveBytes(), liveBytesByHand(s); got != want {
		t.Fatalf("LiveBytes %d, recounted %d", got, want)
	}
	watched := map[cref]int{}
	for l, ws := range s.watches {
		for _, w := range ws {
			c := w.ref &^ binTag
			if c == crefUndef || int(c) >= len(s.arena) {
				t.Fatalf("watcher on literal %d refers outside the arena: %d", l, c)
			}
			if (w.ref&binTag != 0) != (s.size(c) == 2) {
				t.Fatalf("clause %v: binary tag %v", s.lits(c), w.ref&binTag != 0)
			}
			if own := lit(l) ^ 1; s.arena[c] != own && s.arena[c+1] != own {
				t.Fatalf("clause %v is on the watch list of %d but does not watch it", s.lits(c), own)
			}
			watched[c]++
		}
	}
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if watched[c] != 2 {
				t.Fatalf("clause %v at %d has %d watchers", s.lits(c), c, watched[c])
			}
		}
	}
	for _, l := range s.trail {
		if r := s.reason[vidx(l)]; r != crefUndef && watched[r] != 2 {
			t.Fatalf("reason of literal %d is not a live clause: %d", l, r)
		}
	}
}

// solveFuzzInput runs one input and checks everything that can be
// checked without a second solver: a model against the formula and the
// assumptions, a refutation by CheckRUP, and the store either way.
func solveFuzzInput(t *testing.T, data []byte) (Status, Stats) {
	t.Helper()
	f, assumptions, opts := decodeFuzzInput(data)
	s := NewFromFormula(f, opts)
	s.EnableProof()
	st, err := s.Solve(assumptions...)
	if err != nil && !errors.Is(err, ErrMemBudget) {
		t.Fatalf("solve: %v", err)
	}
	switch st {
	case Sat:
		assign := make([]bool, max(f.NumVars, s.NumVars())+1)
		copy(assign[1:], s.Model())
		if !f.Eval(assign) {
			t.Fatalf("model does not satisfy the formula %v", f)
		}
		for _, a := range assumptions {
			if !s.ModelValue(a) {
				t.Fatalf("model violates assumption %v", a)
			}
		}
	case Unsat:
		if err := CheckRUP(f, assumptions, s.ProofLog()); err != nil {
			t.Fatalf("refutation rejected: %v", err)
		}
	}
	checkStore(t, s)
	return st, s.Stats()
}

// The seeds: small formulas of every verdict, and one for each of the
// store's two rare paths. PHP(9,8) under two assumptions is refuted
// after a learnt-DB reduction, which compacts the arena, and PHP(10,9)
// under a 1 MiB budget has to shrink its learnt DB to keep going.
func fuzzSeeds() (small [][]byte, compacting, shrinking []byte) {
	sat := cnf.New()
	sat.AddClause(mk(1, false), mk(2, false), mk(3, true))
	sat.AddClause(mk(1, true), mk(2, false))
	sat.AddClause(mk(2, true), mk(3, true))
	small = [][]byte{
		{},
		{0, 2, 3}, // x ∨ ¬x
		{0, 2, 0, 3, 0},
		encodeFuzzInput(0, nil, sat),
		encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(3, false), mk(1, false)}, sat),
		encodeFuzzInput(0, nil, pigeonhole(4)),
		encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(1, false), mk(7, true)}, pigeonhole(5)),
	}
	return small,
		encodeFuzzInput(fuzzLongRun|fuzzAssumeTwo, []cnf.Lit{mk(1, true), mk(2, true)}, pigeonhole(8)),
		encodeFuzzInput(fuzzLongRun|fuzzMemBudget, nil, pigeonhole(9))
}

func FuzzSolve(f *testing.F) {
	small, compacting, shrinking := fuzzSeeds()
	for _, seed := range append(small, compacting, shrinking) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, stats := solveFuzzInput(t, data)
		// The two long seeds must reach the paths they are here for.
		if bytes.Equal(data, compacting) && (st != Unsat || stats.LearntDeleted == 0) {
			t.Errorf("compaction seed: %v with %d learnt clauses deleted", st, stats.LearntDeleted)
		}
		if bytes.Equal(data, shrinking) && stats.MemShrinks == 0 {
			t.Error("memory seed never shrank its learnt DB under the budget")
		}
	})
}

// solveSimplified solves f with the simplification pass run before the
// first search (the simplifyAt seam at 0) and holds the answer to the
// formula as it was loaded, not as the pass left it: a model must
// satisfy every clause of f, eliminated variables included, and the
// assumptions; a refutation must pass a ProofChecker built from f.
func solveSimplified(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, opts Options) (*Solver, Status) {
	t.Helper()
	s := NewFromFormula(f, opts)
	s.simplifyAt = 0
	s.EnableProof()
	st, err := s.Solve(assumptions...)
	if err != nil && !errors.Is(err, ErrMemBudget) {
		t.Fatalf("solve: %v", err)
	}
	switch st {
	case Sat:
		assign := make([]bool, max(f.NumVars, s.NumVars())+1)
		copy(assign[1:], s.Model())
		if !f.Eval(assign) {
			t.Fatalf("extended model does not satisfy the original formula (%d variables eliminated)", s.Stats().ElimVars)
		}
		for _, a := range assumptions {
			if !s.ModelValue(a) {
				t.Fatalf("model violates assumption %v", a)
			}
		}
	case Unsat:
		if err := NewProofChecker(f).Check(assumptions, s.ProofLog()); err != nil {
			t.Fatalf("refutation rejected against the original formula (%d variables eliminated): %v", s.Stats().ElimVars, err)
		}
	}
	checkStore(t, s)
	return s, st
}

// checkSimplifiedAgainstPlain is the differential test of the pass: the
// same input solved with the pass forced and with the pass off must
// agree whenever both reach a verdict, and the forced run must repeat
// counter for counter.
func checkSimplifiedAgainstPlain(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, opts Options) (*Solver, Status) {
	t.Helper()
	s, st := solveSimplified(t, f, assumptions, opts)
	plain := NewFromFormula(f, opts)
	plain.simplified = true // the pass has had its one chance
	want, err := plain.Solve(assumptions...)
	if err != nil && !errors.Is(err, ErrMemBudget) {
		t.Fatalf("plain solve: %v", err)
	}
	if st != Unknown && want != Unknown && st != want {
		t.Fatalf("simplified search says %v, plain search %v (%d variables eliminated)", st, want, s.Stats().ElimVars)
	}
	if again, _ := solveSimplified(t, f, assumptions, opts); again.Stats() != s.Stats() {
		t.Fatalf("two runs, two sets of counters:\n%+v\n%+v", s.Stats(), again.Stats())
	}
	return s, st
}

// FuzzSimplifySolve puts FuzzSolve's inputs through the differential
// test, seeded with what the pass works on: formulas with variables to
// eliminate, clauses to subsume, units to find — and none of them.
func FuzzSimplifySolve(f *testing.F) {
	small, _, _ := fuzzSeeds()
	for _, seed := range small {
		f.Add(seed)
	}
	// Tseitin-style definitions chained to a contradiction, satisfiable
	// without the last clause: nearly every variable is eliminable.
	gates := cnf.New()
	for v := 1; v+2 <= 40; v += 2 {
		// v+2 = v ∧ v+1
		gates.AddClause(mk(v+2, true), mk(v, false))
		gates.AddClause(mk(v+2, true), mk(v+1, false))
		gates.AddClause(mk(v+2, false), mk(v, true), mk(v+1, true))
	}
	gates.AddClause(mk(39, false), mk(41, false))
	f.Add(encodeFuzzInput(0, nil, gates))
	f.Add(encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(41, true), mk(2, false)}, gates))
	gates.AddClause(mk(1, true))
	gates.AddClause(mk(41, true))
	f.Add(encodeFuzzInput(0, nil, gates))
	// Random 3-SAT near the threshold, either side of it.
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(encodeFuzzInput(0, nil, random3SAT(seed, 60, 4.26)))
		f.Add(encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(7, false), mk(30, true)}, random3SAT(seed, 100, 4.0)))
	}
	f.Add(encodeFuzzInput(fuzzLongRun, nil, random3SAT(5, 120, 4.3)))
	// A few thousand conflicts after the pass: restarts, imports of
	// nothing, learnt clauses over the variables that are left.
	f.Add(encodeFuzzInput(fuzzLongRun|fuzzAssumeTwo, []cnf.Lit{mk(1, true), mk(2, true)}, pigeonhole(7)))

	f.Fuzz(func(t *testing.T, data []byte) {
		formula, assumptions, opts := decodeFuzzInput(data)
		checkSimplifiedAgainstPlain(t, formula, assumptions, opts)
	})
}

// A FuzzCheckRUP input is a FuzzSolve input, then a byte 1, then the
// steps of a claimed proof in the same clause encoding: a clause ended
// by a byte 0 is a lemma, one ended by a byte 1 a deletion logged where
// it stands. Without the separator the proof is empty.
func decodeFuzzProofInput(data []byte) (f *cnf.Formula, assumptions []cnf.Lit, opts Options, claimed *Proof) {
	claimed = &Proof{}
	if len(data) > 1 {
		if cut := bytes.IndexByte(data[1:], 1); cut >= 0 {
			var clause cnf.Clause
			for _, b := range data[cut+2:] {
				switch b {
				case 0:
					claimed.Lemmas = append(claimed.Lemmas, clause)
					clause = nil
				case 1:
					claimed.Deletes = append(claimed.Deletes, Deletion{At: len(claimed.Lemmas), Clause: clause})
					clause = nil
				default:
					clause = append(clause, cnf.Lit(b))
				}
			}
			if clause != nil {
				claimed.Lemmas = append(claimed.Lemmas, clause)
			}
			data = data[:cut+1]
		}
	}
	f, assumptions, opts = decodeFuzzInput(data)
	return f, assumptions, opts, claimed
}

// withFuzzProof appends p to a FuzzSolve input whose clauses end in 0.
// A deletion whose At is out of order is encoded where its turn comes.
func withFuzzProof(input []byte, p *Proof) []byte {
	out := append(input[:len(input):len(input)], 1)
	_ = p.steps(func(deleted bool, c cnf.Clause) error {
		for _, l := range c {
			out = append(out, byte(l))
		}
		if deleted {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		return nil
	})
	return out
}

// scrambledHints gives every lemma of p a hint cut from noise, which
// comes round as often as it takes: bytes that may or may not be
// uvarints, over variables the formula may or may not have.
func scrambledHints(p *Proof, noise []byte) *Proof {
	q := &Proof{Lemmas: p.Lemmas, Deletes: p.Deletes, Hints: make([]Hint, len(p.Lemmas))}
	for i := range q.Hints {
		if len(noise) == 0 {
			break
		}
		from := 7 * i % len(noise)
		q.Hints[i] = noise[from:min(from+1+i%9, len(noise))]
	}
	return q
}

// checkFuzzProof puts one proof to a checker that has checked others, a
// fresh checker and the reference engine — with the hints it came with,
// with none, and with hints cut from noise. The two checkers must agree
// to the letter on all three, down to the lemma they reject: hints are
// advice. What the hint-blind reference accepts the checker must accept,
// and nothing may be accepted against a formula the solver satisfied —
// whatever the proof deletes.
func checkFuzzProof(t *testing.T, reused *ProofChecker, f *cnf.Formula, assumptions []cnf.Lit, p *Proof, solved Status, noise []byte) error {
	t.Helper()
	fresh := CheckRUP(f, assumptions, &Proof{Lemmas: p.Lemmas, Deletes: p.Deletes})
	for name, hinted := range map[string]*Proof{"as it came": p, "under scrambled hints": scrambledHints(p, noise)} {
		if got := CheckRUP(f, assumptions, hinted); errText(got) != errText(fresh) {
			t.Fatalf("fresh checker, the proof %s: %s\nwithout hints: %s", name, errText(got), errText(fresh))
		}
		if got := reused.Check(assumptions, hinted); errText(got) != errText(fresh) {
			t.Fatalf("reused checker, the proof %s: %s\nfresh checker: %s", name, errText(got), errText(fresh))
		}
	}
	if fresh != nil && referenceCheckRUP(f, assumptions, p) == nil {
		t.Fatalf("the reference engine accepts what the checker rejects: %v", fresh)
	}
	if fresh == nil && solved == Sat {
		t.Fatalf("accepted a refutation of a satisfiable formula: %v under %v, lemmas %v, deletions %v", f, assumptions, p.Lemmas, p.Deletes)
	}
	// A deletion can only take clauses away: what checks with them
	// checks without.
	if fresh == nil && len(p.Deletes) > 0 {
		if err := CheckRUP(f, assumptions, &Proof{Lemmas: p.Lemmas}); err != nil {
			t.Fatalf("accepted with its %d deletions, rejected without: %v", len(p.Deletes), err)
		}
	}
	return fresh
}

// cutProof splits p before lemma number cut: the deletions that take
// effect before it go with the prefix, the rest count from the tail's
// first lemma; each lemma's hint goes where the lemma goes.
func cutProof(p *Proof, cut int) (prefix, tail *Proof) {
	prefix, tail = &Proof{Lemmas: p.Lemmas[:cut]}, &Proof{Lemmas: p.Lemmas[cut:]}
	if hints := min(cut, len(p.Hints)); len(p.Hints) > 0 {
		prefix.Hints, tail.Hints = p.Hints[:hints], p.Hints[hints:]
	}
	dels := p.Deletes
	for ; len(dels) > 0 && dels[0].At <= cut; dels = dels[1:] {
		prefix.Deletes = append(prefix.Deletes, dels[0])
	}
	for _, d := range dels {
		tail.Deletes = append(tail.Deletes, Deletion{At: d.At - cut, Clause: d.Clause})
	}
	return prefix, tail
}

// checkExtendLaw cuts a proof into a prefix and a tail at both ends and
// in the middle, and holds Extend to its contract on a fresh checker and
// on one that has been through the whole proof before. Where the prefix
// stands under no assumption, Extend(prefix) then Check(tail) — twice,
// the second from the base Extend moved — accepts exactly when Check of
// the whole does, deletions included: those of the prefix leave the base
// for good, those of the tail come back with every reset. Where a lemma
// of the prefix does not stand, Extend says so and the checker answers
// for the whole proof as if nothing had been tried.
func checkExtendLaw(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, p *Proof) {
	t.Helper()
	whole := CheckRUP(f, assumptions, p)
	for _, cut := range []int{0, len(p.Lemmas) / 2, len(p.Lemmas)} {
		prefix, tail := cutProof(p, cut)
		if got := CheckRUP(f, assumptions, JoinProofs(prefix, tail)); errText(got) != errText(whole) {
			t.Fatalf("cut at %d of %d and joined again: %s, the proof itself %s", cut, len(p.Lemmas), errText(got), errText(whole))
		}
		reused := NewProofChecker(f)
		_ = reused.Check(assumptions, p)
		for _, c := range []*ProofChecker{NewProofChecker(f), reused} {
			if err := c.Extend(prefix); err != nil {
				if got := c.Check(assumptions, p); errText(got) != errText(whole) {
					t.Fatalf("after a rejected Extend (%v) the checker says %s of the whole proof, a fresh one %s",
						err, errText(got), errText(whole))
				}
				continue
			}
			for range 2 {
				if got := c.Check(assumptions, tail); (got == nil) != (whole == nil) {
					t.Fatalf("cut at %d of %d: Extend then Check says %s, Check of the whole %s",
						cut, len(p.Lemmas), errText(got), errText(whole))
				}
			}
		}
	}
}

func FuzzCheckRUP(f *testing.F) {
	small, _, _ := fuzzSeeds()
	for _, seed := range small {
		f.Add(seed)
		// Each refutable seed again with its proof, and with the proof
		// cut short, reversed and weakened by an unknown variable; then
		// with the proof of a search simplified before it began, which
		// deletes what the pass removed, and that one corrupted: every
		// deletion twice, clauses of the formula deleted before the first
		// lemma, the deletions without the lemmas. The solver's own proofs
		// of every input — of the search as it went, and of one that began
		// with the pass — come with its hints; a claimed proof has the
		// scrambled ones. (Hints and deletions logged after a reduceDB
		// take ten thousand conflicts to come by, and this body solves its
		// input three times and checks each proof six ways: fuzzSeeds'
		// compacting input as a seed here was measured at 49 s. The fuzzer
		// finds them behind fuzzLongRun; TestHintsChangeNoAnswer and
		// TestProofDeletesWhatTheSolverDropped hold one such proof, and a
		// forgery of it, to the reference engine under every hint variant.)
		formula, assumptions, opts := decodeFuzzInput(seed)
		s := NewFromFormula(formula, opts)
		s.EnableProof()
		if st, _ := s.Solve(assumptions...); st != Unsat || s.ProofLog().NumLemmas() == 0 {
			continue
		}
		lemmas := s.ProofLog().Lemmas
		f.Add(withFuzzProof(seed, s.ProofLog()))
		f.Add(withFuzzProof(seed, &Proof{Lemmas: lemmas[:len(lemmas)/2]}))
		reversed := slices.Clone(lemmas)
		slices.Reverse(reversed)
		f.Add(withFuzzProof(seed, &Proof{Lemmas: reversed}))
		f.Add(withFuzzProof(seed, &Proof{Lemmas: []cnf.Clause{append(cnf.Clause{mk(120, false)}, lemmas[0]...)}}))

		simplified := NewFromFormula(formula, opts)
		simplified.simplifyAt = 0
		simplified.EnableProof()
		if st, _ := simplified.Solve(assumptions...); st != Unsat || len(simplified.ProofLog().Deletes) == 0 {
			continue
		}
		p := simplified.ProofLog()
		f.Add(withFuzzProof(seed, p))
		twice := &Proof{Lemmas: p.Lemmas}
		for _, d := range p.Deletes {
			twice.Deletes = append(twice.Deletes, d, d)
		}
		f.Add(withFuzzProof(seed, twice))
		robbed := &Proof{Lemmas: p.Lemmas, Deletes: slices.Clone(p.Deletes)}
		for _, c := range formula.Clauses[:min(4, len(formula.Clauses))] {
			robbed.Deletes = slices.Insert(robbed.Deletes, 0, Deletion{Clause: c})
		}
		f.Add(withFuzzProof(seed, robbed))
		f.Add(withFuzzProof(seed, &Proof{Deletes: p.Deletes}))
	}
	// TestCheckRUPLemmaUnitUnderRoot's formula and proof, the lemmas
	// with a duplicate literal and a tautology among them, and the
	// deletion of a tautology, a unit and a clause nobody has.
	unitUnderRoot := cnf.New()
	for _, c := range [][]int{{-1}, {2, 3, 4}, {2, 3, -4}, {-3, 5}, {-3, -5}, {-2, 6}, {-2, -6}} {
		var clause cnf.Clause
		for _, d := range c {
			clause = append(clause, cnf.FromDimacs(d))
		}
		unitUnderRoot.AddClause(clause...)
	}
	f.Add(withFuzzProof(encodeFuzzInput(0, nil, unitUnderRoot), &Proof{
		Lemmas: []cnf.Clause{
			{mk(1, false), mk(2, false), mk(3, false), mk(2, false)},
			{mk(5, false), mk(5, true)},
			{mk(2, false)}},
		Deletes: []Deletion{
			{At: 0, Clause: cnf.Clause{mk(5, false), mk(5, true)}},
			{At: 1, Clause: cnf.Clause{mk(1, true)}},
			{At: 1, Clause: cnf.Clause{mk(90, false), mk(2, false)}},
			{At: 2, Clause: cnf.Clause{mk(4, false), mk(2, false), mk(3, false)}}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		formula, assumptions, opts, claimed := decodeFuzzProofInput(data)
		s := NewFromFormula(formula, opts)
		s.EnableProof()
		solved, err := s.Solve(assumptions...)
		if err != nil && !errors.Is(err, ErrMemBudget) {
			t.Fatalf("solve: %v", err)
		}
		reused := NewProofChecker(formula)
		first := checkFuzzProof(t, reused, formula, assumptions, claimed, solved, data)
		// The solver's own refutations: of the search as it went, and of
		// one simplified before it began, whose log deletes what the pass
		// removed.
		simplified, simplifiedSt := solveSimplified(t, formula, assumptions, opts)
		if solved == Unsat {
			if err := checkFuzzProof(t, reused, formula, assumptions, s.ProofLog(), solved, data); err != nil {
				t.Fatalf("the solver's refutation rejected: %v", err)
			}
		}
		if simplifiedSt == Unsat {
			if err := checkFuzzProof(t, reused, formula, assumptions, simplified.ProofLog(), simplifiedSt, data); err != nil {
				t.Fatalf("the simplified solver's refutation rejected: %v", err)
			}
		}
		// The same answer again, now that the checker has been through
		// a whole proof or a rejection.
		if again := checkFuzzProof(t, reused, formula, assumptions, claimed, solved, data); errText(again) != errText(first) {
			t.Fatalf("claimed proof: first %s, then %s", errText(first), errText(again))
		}
		checkExtendLaw(t, formula, assumptions, claimed)
		if solved == Unsat {
			checkExtendLaw(t, formula, assumptions, s.ProofLog())
		}
		if simplifiedSt == Unsat {
			checkExtendLaw(t, formula, assumptions, simplified.ProofLog())
		}
	})
}
