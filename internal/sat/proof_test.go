package sat

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/prog"
)

func TestProofPigeonhole(t *testing.T) {
	for holes := 3; holes <= 6; holes++ {
		f := pigeonhole(holes)
		s := newLogging(f, Options{})
		st, err := s.Solve()
		if err != nil || st != Unsat {
			t.Fatalf("PHP(%d): %v %v", holes, st, err)
		}
		checkRefutation(t, f, nil, s.ProofLog())
	}
}

func TestProofRandomUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	certified := 0
	for iter := 0; iter < 300; iter++ {
		nv := 1 + rng.Intn(10)
		f := randomFormula(rng, nv, 10+rng.Intn(40), 1+rng.Intn(3))
		s := newLogging(f, Options{})
		st, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if st != Unsat {
			continue
		}
		checkRefutation(t, f, nil, s.ProofLog())
		certified++
	}
	if certified < 30 {
		t.Fatalf("too few UNSAT instances certified: %d", certified)
	}
}

func TestProofUnderAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	certified := 0
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
		s := newLogging(f, Options{})
		st, err := s.Solve(assumps...)
		if err != nil {
			t.Fatal(err)
		}
		if st != Unsat {
			continue
		}
		checkRefutation(t, f, assumps, s.ProofLog())
		certified++
	}
	if certified < 20 {
		t.Fatalf("too few assumption-UNSAT instances certified: %d", certified)
	}
}

// checkRefutation holds a refutation the solver logged to what every one
// must be: it ends in the empty lemma and is accepted, and without that
// lemma it is rejected — unless the assumptions contradict each other or
// the formula holds the empty clause, which need no lemma.
func checkRefutation(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, p Proof) {
	t.Helper()
	d := draftOf(p)
	n := len(d.Lemmas)
	if n == 0 || len(d.Lemmas[n-1]) != 0 {
		t.Fatalf("a log of %d lemmas that does not end in the empty one", n)
	}
	if err := CheckRUP(f, assumptions, p); err != nil {
		t.Fatalf("refutation rejected: %v", err)
	}
	cut := &draft{Lemmas: d.Lemmas[:n-1], Deletes: d.Deletes, Chains: d.Chains[:n-1]}
	if CheckRUP(f, assumptions, (&draft{}).flat()) != nil && CheckRUP(f, assumptions, cut.flat()) == nil {
		t.Fatal("accepted without its empty lemma")
	}
}

// The empty proof, nil or zero bytes, refutes only what needs no lemma:
// a formula that holds the empty clause, or assumptions that contradict
// each other — not a formula unit propagation alone refutes.
func TestCheckRUPEmptyProof(t *testing.T) {
	formula := func(clauses ...cnf.Clause) *cnf.Formula {
		f := cnf.New()
		f.NewVar()
		f.NewVar()
		for _, c := range clauses {
			f.AddClause(c...)
		}
		return f
	}
	x, y := cnf.PosLit(1), cnf.PosLit(2)
	open := formula(cnf.Clause{x, y})
	for _, tc := range []struct {
		name        string
		f           *cnf.Formula
		assumptions []cnf.Lit
		ok          bool
	}{
		{"a satisfiable formula", open, nil, false},
		{"consistent assumptions", open, []cnf.Lit{x.Not(), y.Not()}, false},
		{"assumptions that contradict each other", open, []cnf.Lit{y, x, y.Not()}, true},
		{"the empty clause", formula(cnf.Clause{x, y}, cnf.Clause{}), nil, true},
		{"contradicting units", formula(cnf.Clause{x}, cnf.Clause{x.Not()}), nil, false},
	} {
		for _, p := range []Proof{nil, {}} {
			if err := CheckRUP(tc.f, tc.assumptions, p); (err == nil) != tc.ok {
				t.Errorf("%s, the empty proof as %#v: %v", tc.name, p, err)
			}
		}
	}
}

func TestProofRejectsBogusLemma(t *testing.T) {
	// A satisfiable formula cannot have a valid refutation; a fabricated
	// proof must be rejected.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(1), cnf.PosLit(2))
	bogus := &draft{Lemmas: []cnf.Clause{
		{cnf.NegLit(2)}, // not a consequence: x2 can be true
	}}
	if err := CheckRUP(f, nil, bogus.flat()); err == nil {
		t.Fatal("bogus lemma accepted")
	}
}

func TestProofOutOfRangeVariables(t *testing.T) {
	// Solve accepts assumptions over variables the formula never
	// mentions, so the checker must too.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(1))
	assumptions := []cnf.Lit{cnf.NegLit(2), cnf.PosLit(9)}
	s := newLogging(f, Options{})
	if st, err := s.Solve(assumptions...); err != nil || st != Unsat {
		t.Fatalf("got %v, %v; want UNSAT", st, err)
	}
	if err := CheckRUP(f, assumptions, s.ProofLog()); err != nil {
		t.Fatalf("valid proof under an out-of-formula assumption rejected: %v", err)
	}
	// A lemma over a variable nothing mentions (or over none at all) is
	// malformed: rejected, not indexed with.
	f = cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	for _, lemma := range []cnf.Clause{{cnf.PosLit(1), cnf.PosLit(40)}, {cnf.LitUndef}, {cnf.Lit(-6)}} {
		if err := CheckRUP(f, nil, (&draft{Lemmas: []cnf.Clause{lemma}}).flat()); err == nil {
			t.Fatalf("malformed lemma %v accepted", []cnf.Lit(lemma))
		}
	}
	// So is an assumption that is no literal at all.
	for _, a := range []cnf.Lit{cnf.LitUndef, cnf.Lit(1), cnf.Lit(-6)} {
		if err := CheckRUP(f, []cnf.Lit{a}, (&draft{}).flat()); err == nil {
			t.Fatalf("malformed assumption %d accepted", int(a))
		}
	}
}

func TestProofRejectsIncomplete(t *testing.T) {
	// Valid lemmas that never reach the empty clause must be rejected.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.PosLit(1), cnf.NegLit(2))
	proof := &draft{Lemmas: []cnf.Clause{
		{cnf.PosLit(1)}, // genuine RUP consequence, but f is SAT
	}, Chains: [][]uint32{{0, 1}}}
	if err := CheckRUP(f, nil, proof.flat()); err == nil {
		t.Fatal("incomplete proof accepted")
	}
}

func TestProofTrivialConflicts(t *testing.T) {
	// Two units that contradict each other need the empty lemma, derived
	// from both: the checker does not propagate.
	f := cnf.New()
	f.AddUnit(cnf.PosLit(1))
	f.AddUnit(cnf.NegLit(1))
	if err := CheckRUP(f, nil, (&draft{}).flat()); err == nil {
		t.Fatal("accepted without the empty lemma")
	}
	if err := CheckRUP(f, nil, (&draft{Lemmas: []cnf.Clause{{}}, Chains: [][]uint32{{0, 1}}}).flat()); err != nil {
		t.Fatalf("root conflict rejected: %v", err)
	}
	// Contradictory assumptions need no lemmas at all.
	f2 := cnf.New()
	f2.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	if err := CheckRUP(f2, []cnf.Lit{cnf.PosLit(1), cnf.NegLit(1)}, (&draft{}).flat()); err != nil {
		t.Fatalf("assumption conflict rejected: %v", err)
	}
	// Empty clause in the input.
	f3 := cnf.New()
	f3.AddClause()
	if err := CheckRUP(f3, nil, (&draft{}).flat()); err != nil {
		t.Fatalf("empty input clause rejected: %v", err)
	}
}

func TestProofAgreesWithPartitioning(t *testing.T) {
	// Certify each partition's UNSAT verdict of a pigeonhole split on
	// two variables, mirroring how core certifies Safe verdicts.
	f := pigeonhole(5)
	for mask := 0; mask < 4; mask++ {
		assumps := []cnf.Lit{
			cnf.MkLit(1, mask&1 == 0),
			cnf.MkLit(2, mask&2 == 0),
		}
		s := newLogging(f, Options{})
		st, err := s.Solve(assumps...)
		if err != nil || st != Unsat {
			t.Fatalf("mask %d: %v %v", mask, st, err)
		}
		checkRefutation(t, f, assumps, s.ProofLog())
	}
}

func TestCheckRUPLemmaUnitUnderRoot(t *testing.T) {
	// With 1 false at the root the lemma (1∨2∨3) is the clause (2∨3)
	// from the moment it is added, and the check of the lemma (2) needs
	// it to propagate 3 — along its chain here, and the reference
	// engine's propagation too. A walk that takes the root-false literal
	// for an open one rejects a valid proof. The root literal comes from
	// the formula, then from an assumption, which leaves the formula's
	// clause IDs one lower: a unit of the formula is cited by its ID, as
	// the solver cites what it fixed at level 0, an assumption by none.
	// The empty lemma follows from (2) and the clauses over 2 and 6.
	clauses := []cnf.Clause{
		{mk(2, false), mk(3, false), mk(4, false)},
		{mk(2, false), mk(3, false), mk(4, true)},
		{mk(3, true), mk(5, false)},
		{mk(3, true), mk(5, true)},
		{mk(2, true), mk(6, false)},
		{mk(2, true), mk(6, true)},
	}
	proof := func(shift uint32, units ...uint32) *draft {
		return &draft{Lemmas: []cnf.Clause{
			{mk(1, false), mk(2, false), mk(3, false)},
			{mk(2, false)},
			{},
		}, Chains: [][]uint32{{shift, shift + 1}, append(units, shift+6, shift+2, shift+3), {shift + 7, shift + 4, shift + 5}}}
	}
	unit := cnf.New()
	unit.AddClause(mk(1, true))
	assumed := cnf.New()
	for _, c := range clauses {
		unit.AddClause(c...)
		assumed.AddClause(c...)
	}
	for name, check := range map[string]func(*cnf.Formula, []cnf.Lit, Proof) error{"checker": CheckRUP, "reference engine": referenceCheckRUP} {
		if err := check(unit, nil, proof(1, 0).flat()); err != nil {
			t.Errorf("%s, root literal from a unit clause: valid proof rejected: %v", name, err)
		}
		if err := check(assumed, []cnf.Lit{mk(1, true)}, proof(0).flat()); err != nil {
			t.Errorf("%s, root literal from an assumption: valid proof rejected: %v", name, err)
		}
	}
}

// errText makes two checkers' answers comparable.
func errText(err error) string {
	if err == nil {
		return "accepted"
	}
	return err.Error()
}

func TestProofCheckerReuseMatchesFresh(t *testing.T) {
	// One checker takes the per-partition proofs of an encoded instance
	// and tampered copies of them in shuffled order. Whatever a check
	// left behind — lemmas, assumptions, variables it grew by, a
	// rejection half way through a proof — the next answer must be the
	// one a fresh checker gives.
	enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 4)
	f := enc.Formula()
	parts := encodedCubes(t, enc, 8)
	type input struct {
		name        string
		assumptions []cnf.Lit
		proof       *draft
	}
	beyond := cnf.PosLit(cnf.Var(f.NumVars + 3))
	var honest, inputs []input
	for _, pt := range parts {
		s := newLogging(f, Options{})
		if st, err := s.Solve(pt.Assumptions...); err != nil || st != Unsat {
			t.Fatalf("partition %d: %v, %v; want UNSAT", pt.Index, st, err)
		}
		log := draftOf(s.ProofLog())
		lemmas := log.Lemmas
		if len(lemmas) < 2 {
			continue
		}
		// Each tampered copy keeps the chains of the lemmas it keeps.
		chains := log.Chains
		tamper := func(kind string, edit func(*draft)) input {
			q := &draft{Lemmas: make([]cnf.Clause, len(lemmas)), Chains: slices.Clone(chains)}
			for i, l := range lemmas {
				q.Lemmas[i] = slices.Clone(l)
			}
			edit(q)
			return input{fmt.Sprintf("p%d/%s", pt.Index, kind), pt.Assumptions, q}
		}
		mid := len(lemmas) / 2
		h := input{fmt.Sprintf("p%d/honest", pt.Index), pt.Assumptions, log}
		honest = append(honest, h)
		inputs = append(inputs, h,
			tamper("dropped-lemma", func(q *draft) {
				q.Lemmas, q.Chains = slices.Delete(q.Lemmas, mid, mid+1), slices.Delete(q.Chains, mid, mid+1)
			}),
			tamper("flipped-literal", func(q *draft) {
				q.Lemmas[mid][0] = q.Lemmas[mid][0].Not()
			}),
			// Weakened by a variable nothing mentions: a RUP consequence
			// only to a checker that kept the variable from the check of
			// an assumption over it.
			tamper("lemma-beyond-numvars", func(q *draft) {
				q.Lemmas[0] = append(q.Lemmas[0], beyond)
			}),
			input{fmt.Sprintf("p%d/assumption-beyond-numvars", pt.Index),
				append(append([]cnf.Lit{}, pt.Assumptions...), beyond), log},
		)
	}
	if len(honest) < 4 {
		t.Fatalf("only %d partitions have a proof worth tampering with", len(honest))
	}
	rng := rand.New(rand.NewSource(16))
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	reused := NewProofChecker(f)
	accepted, rejected := 0, 0
	for _, in := range inputs {
		got := reused.Check(in.assumptions, in.proof.flat())
		if want := CheckRUP(f, in.assumptions, in.proof.flat()); errText(got) != errText(want) {
			t.Fatalf("%s: reused checker: %s\nfresh checker: %s", in.name, errText(got), errText(want))
		}
		if got == nil {
			accepted++
			if ref := referenceCheckRUP(f, in.assumptions, (&draft{Lemmas: in.proof.Lemmas}).flat()); ref != nil {
				t.Fatalf("%s: accepted, rejected by the reference engine: %v", in.name, ref)
			}
			continue
		}
		rejected++
		h := honest[rng.Intn(len(honest))]
		if err := reused.Check(h.assumptions, h.proof.flat()); err != nil {
			t.Fatalf("%s right after the rejection of %s: %v", h.name, in.name, err)
		}
	}
	if accepted < len(honest) || rejected < len(honest) {
		t.Fatalf("%d accepted, %d rejected of %d inputs: the tampering lost its bite", accepted, rejected, len(inputs))
	}
	if got := reused.Stats(); got.Lemmas == 0 || got.ChainClauses == 0 {
		t.Fatalf("stats after %d checks: %+v", len(inputs), got)
	}
	t.Logf("%d inputs: %d accepted, %d rejected; %+v", len(inputs), accepted, rejected, reused.Stats())
}

// deletingProofs returns refutations that log both kinds of deletion: a
// search the simplification pass ran before (what it removed and
// replaced), and one under a memory budget its 20 000 idle variables
// nearly fill, so that reduceDB throws learnt clauses away within a few
// hundred conflicts.
func deletingProofs(t *testing.T) []struct {
	name string
	f    *cnf.Formula
	p    Proof
} {
	t.Helper()
	simplified := pigeonhole(6)
	pass := newLogging(simplified, Options{})
	pass.simplifyAt = 0
	if st, err := pass.Solve(); err != nil || st != Unsat || pass.Stats().Simplified == 0 {
		t.Fatalf("simplified search: %v, %v, %d clauses removed", st, err, pass.Stats().Simplified)
	}
	padded := pigeonhole(7)
	padded.AddClause(cnf.PosLit(20000))
	reducing := newLogging(padded, Options{MemBudgetMB: 2})
	reducing.simplified = true // the budget has no room for the pass
	if st, err := reducing.Solve(); err != nil || st != Unsat || reducing.Stats().LearntDeleted == 0 {
		t.Fatalf("search under a memory budget: %v, %v, %d learnt clauses deleted", st, err, reducing.Stats().LearntDeleted)
	}
	return []struct {
		name string
		f    *cnf.Formula
		p    Proof
	}{{"pass", simplified, pass.ProofLog()}, {"reduceDB", padded, reducing.ProofLog()}}
}

// baseOf lists what a checker at rest holds: its live clauses, each as
// its sorted literals, in sorted order.
func baseOf(c *ProofChecker) (clauses []string) {
	for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]&^delTag) + 1 {
		if c.arena[ref-1]&delTag == 0 {
			lits := slices.Clone(c.arena[ref : ref+int(c.arena[ref-1])])
			slices.Sort(lits)
			clauses = append(clauses, fmt.Sprint(lits))
		}
	}
	slices.Sort(clauses)
	return clauses
}

// What the solver logs as dropped the checker drops — all of it: a
// deletion names its clause by its ID, under which the checker holds the
// literals the solver held — and the proof checks, on the checker and
// the reference engine; it checks again on the same checker, whose base
// comes back from every check clause for clause, whatever the proof
// deleted from it; and cut in two it obeys the law of extending.
func TestProofDeletesWhatTheSolverDropped(t *testing.T) {
	for _, tc := range deletingProofs(t) {
		t.Run(tc.name, func(t *testing.T) {
			f, p, d := tc.f, tc.p, draftOf(tc.p)
			if len(d.Deletes) == 0 {
				t.Fatal("the proof deletes nothing")
			}
			c := NewProofChecker(f)
			base := baseOf(c)
			if err := c.Check(nil, p); err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if err := referenceCheckRUP(f, nil, p); err != nil {
				t.Fatalf("rejected by the reference engine: %v", err)
			}
			if err := CheckRUP(f, nil, (&draft{Lemmas: d.Lemmas, Chains: d.Chains}).flat()); err != nil {
				t.Fatalf("rejected without its deletions: %v", err)
			}

			// The clauses gone when the last lemma is in, before reset
			// brings the base back.
			refuted := false
			p.Steps(func(deleted bool, clause, ids []uint32) error {
				r, _ := c.step(deleted, clause, ids)
				refuted = refuted || r
				return nil
			})
			if !refuted {
				t.Fatal("the steps taken one by one derive no empty clause")
			}
			dropped := 0
			for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]&^delTag) + 1 {
				if c.arena[ref-1]&delTag != 0 {
					dropped++
				}
			}
			c.reset()
			if dropped != len(d.Deletes) {
				t.Errorf("the checker dropped %d clauses for %d deletions", dropped, len(d.Deletes))
			}
			// A proof that deletes the formula away before it starts, then
			// the honest one again: every answer from the same base.
			robbed := &draft{Lemmas: d.Lemmas, Chains: d.Chains}
			f.BuildClauses()
			for id, cl := range f.Clauses {
				robbed.Deletes = append(robbed.Deletes, deletion{ID: uint32(id), Clause: cl})
			}
			if err := c.Check(nil, robbed.flat()); err == nil {
				t.Fatal("accepted with the formula deleted ahead of the first lemma")
			}
			if after := baseOf(c); !slices.Equal(after, base) {
				t.Fatalf("the base holds %d clauses after the checks, %d before, or not the same ones", len(after), len(base))
			}
			if err := c.Check(nil, p); err != nil {
				t.Fatalf("rejected by the checker that had accepted it: %v", err)
			}
			checkExtendLaw(t, f, nil, d)
			t.Logf("%d lemmas, %d deletions, %d clauses dropped", len(d.Lemmas), len(d.Deletes), dropped)
		})
	}
}

// A deletion whose ID does not name a clause the checker holds with
// exactly its literals is ignored, wherever it says it stands, and
// changes no answer: one over literals nothing has, a unit, a
// tautology, an ID past every clause or noID — and one whose literals
// are a clause of the formula under another clause's ID, which the
// checker does not look up by its literals.
func TestProofDeletionsThatNameNothing(t *testing.T) {
	f := pigeonhole(5)
	s := newLogging(f, Options{})
	if st, err := s.Solve(); err != nil || st != Unsat {
		t.Fatalf("%v, %v", st, err)
	}
	log := draftOf(s.ProofLog())
	f.BuildClauses()
	last := uint32(len(f.Clauses) - 1)
	binary := f.Clauses[last]
	// Every clause of the formula first, each under the next one's ID.
	var noise []deletion
	for id := range f.Clauses {
		noise = append(noise, deletion{ID: uint32(id+1) % uint32(len(f.Clauses)), Clause: f.Clauses[id]})
	}
	noise = append(noise, []deletion{
		{At: -7, Clause: nil},
		{At: 0, Clause: cnf.Clause{0}},
		{At: 0, ID: last, Clause: cnf.Clause{cnf.Lit(1<<31 - 1), binary[0]}},
		{At: 1, ID: last, Clause: cnf.Clause{cnf.PosLit(cnf.Var(f.NumVars + 1)), binary[0]}},
		{At: 1, ID: last, Clause: cnf.Clause{binary[0]}},
		{At: 1 << 40, ID: last, Clause: cnf.Clause{binary[0], binary[0].Not()}},
		{At: 2, ID: last, Clause: cnf.Clause{binary[0], binary[1], binary[1].Not()}},
		{At: 2, ID: 1 << 30, Clause: binary},
		{At: 3, ID: noID, Clause: binary},
	}...)
	half := len(log.Lemmas) / 2
	for _, p := range []*draft{
		{Lemmas: log.Lemmas, Chains: log.Chains, Deletes: noise},
		{Lemmas: log.Lemmas[:half], Chains: log.Chains[:half], Deletes: noise},
		{Deletes: noise},
	} {
		want := CheckRUP(f, nil, (&draft{Lemmas: p.Lemmas, Chains: p.Chains}).flat())
		if got := CheckRUP(f, nil, p.flat()); errText(got) != errText(want) {
			t.Fatalf("%d lemmas: %s with the deletions, %s without", len(p.Lemmas), errText(got), errText(want))
		}
		if (len(p.Lemmas) == len(log.Lemmas)) != (want == nil) {
			t.Fatalf("%d lemmas of %d: %s", len(p.Lemmas), len(log.Lemmas), errText(want))
		}
	}
	// One that names a clause twice over takes it once: the second entry
	// finds nothing, and the first is enough to break the proof.
	twice := &draft{Lemmas: log.Lemmas, Chains: log.Chains}
	for id, c := range f.Clauses {
		d := deletion{ID: uint32(id), Clause: c}
		twice.Deletes = append(twice.Deletes, d, d)
	}
	if err := CheckRUP(f, nil, twice.flat()); err == nil {
		t.Fatal("accepted with the whole formula deleted")
	}
}

// A log handed out in stretches is the log kept: a template-style
// solver — loaded, simplified, not searched — that streams its log
// (StreamProof) hands out stretches of whole steps, each a proof Steps
// accepts on its own, that appended are the bytes its twin kept
// (EnableProof), and never writes to them again; it keeps only what it
// has not handed out, and a checker extended by the stretches one at a
// time (Extend, ExtendDone) holds the base of one extended by the whole
// log. Its clones log their own searches as any clone does. A lemma
// forged in one stretch is reported when the stream is done, however
// many stretches follow it, and the checker is then where it was.
func TestStreamedProofIsTheKeptOne(t *testing.T) {
	enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 4)
	f := enc.Formula()
	parts := encodedCubes(t, enc, 8)
	template := func(arm func(*Solver)) *Solver {
		s := New(f.NumVars, Options{})
		arm(s)
		s.AddFormula(f)
		for _, pt := range parts {
			s.Freeze(pt.Assumptions...)
		}
		if !s.Simplify() || s.Stats().ElimVars == 0 {
			t.Fatalf("the pass eliminated %d variables", s.Stats().ElimVars)
		}
		return s
	}
	kept := template((*Solver).EnableProof)
	log := kept.ProofLog()
	if d := draftOf(log); len(d.Lemmas) == 0 || len(d.Deletes) == 0 {
		t.Fatalf("%d lemmas, %d deletions kept", len(d.Lemmas), len(d.Deletes))
	}

	// The stretches cross to a goroutine of their own, as a template's
	// do, which gives each buffer back once it has read it: the solver
	// must not write to one before, which -race and the copy taken on
	// receipt would both see, and it makes a new one only when none is
	// free, so there are at most the queue's depth and two.
	var stretches []Proof // as handed out, copied on receipt
	var handed []byte
	var written []int
	buffers := map[*byte]bool{}
	streamedTo := NewProofChecker(f)
	stream, free, done := make(chan Proof, 1), make(chan FlatLog, 3), make(chan struct{})
	go func() {
		defer close(done)
		for p := range stream {
			stretches = append(stretches, bytes.Clone(p))
			handed = append(handed, p...)
			streamedTo.Extend(p)
			if !bytes.Equal(p, stretches[len(stretches)-1]) {
				written = append(written, len(stretches)-1)
			}
			select {
			case free <- FlatLog(p):
			default:
			}
		}
	}()
	streaming := template(func(s *Solver) {
		s.StreamProof(func(p Proof) FlatLog {
			buffers[&p[0]] = true
			stream <- p
			select {
			case b := <-free:
				return b
			default:
				return nil
			}
		})
	})
	close(stream)
	<-done
	if len(written) > 0 || len(buffers) > cap(stream)+2 {
		t.Fatalf("stretches %v written to before they were given back; %d buffers for %d stretches", written, len(buffers), len(stretches))
	}
	t.Logf("%d stretches in %d buffers", len(stretches), len(buffers))
	if len(stretches) < 2 {
		t.Fatalf("a log of %d bytes handed out in %d stretches", len(log), len(stretches))
	}
	for i, p := range stretches {
		steps := 0
		if err := p.Steps(func(bool, []uint32, []uint32) error { steps++; return nil }); err != nil || steps == 0 {
			t.Fatalf("stretch %d of %d bytes, %d steps, on its own: %v", i, len(p), steps, err)
		}
	}
	rest := streaming.ProofLog()
	if len(rest) >= proofStretch || len(handed)+len(rest) != len(log) {
		t.Fatalf("the streaming solver keeps %d bytes after handing out %d, of a log of %d", len(rest), len(handed), len(log))
	}
	streamedTo.Extend(rest)
	if err := streamedTo.ExtendDone(); err != nil {
		t.Fatalf("the streamed prefix rejected: %v", err)
	}
	if got := append(handed, rest...); !bytes.Equal(got, log) {
		t.Fatalf("%d bytes streamed, %d kept, or not the same ones", len(got), len(log))
	}
	extended := NewProofChecker(f)
	extended.Extend(log)
	if err := extended.ExtendDone(); err != nil {
		t.Fatal(err)
	}
	want := baseOf(extended)
	if got := baseOf(streamedTo); !slices.Equal(got, want) {
		t.Fatalf("the checker fed by stretches holds %d clauses, the one extended by the log %d, or not the same ones", len(got), len(want))
	}
	// The clones' tails check on either, and are kept.
	for _, pt := range []cube{parts[0], parts[5]} {
		c := streaming.Clone()
		if st, err := c.Solve(pt.Assumptions...); err != nil || st != Unsat || c.ProofLog().NumLemmas() == 0 {
			t.Fatalf("partition %d on a clone: %v, %v, %d lemmas kept", pt.Index, st, err, c.ProofLog().NumLemmas())
		}
		for name, checker := range map[string]*ProofChecker{"streamed": streamedTo, "extended": extended} {
			if err := checker.Check(pt.Assumptions, c.ProofLog()); err != nil {
				t.Fatalf("partition %d: tail rejected by the %s checker: %v", pt.Index, name, err)
			}
		}
	}

	// One literal of one lemma in the first stretch flipped, which keeps
	// the length of every number, so the stretches are cut where they were.
	fresh := NewProofChecker(f)
	base := baseOf(fresh)
	at := stretches[0].NumLemmas() / 2
	var forged FlatLog
	lemma := 0
	log.Steps(func(deleted bool, clause, ids []uint32) error {
		if !deleted {
			if lemma == at {
				clause[0] ^= 1
			}
			lemma++
		}
		forged.Step(deleted, clause, ids)
		return nil
	})
	for _, p := range stretches {
		fresh.Extend(Proof(forged[:len(p)]))
		forged = forged[len(p):]
	}
	fresh.Extend(Proof(forged))
	if err := fresh.ExtendDone(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("lemma %d ", at+1)) {
		t.Fatalf("stream with lemma %d forged: %v", at+1, err)
	}
	if after := baseOf(fresh); !slices.Equal(after, base) {
		t.Fatal("a rejected stream left the checker's base changed")
	}
	fresh.Extend(log)
	if err := fresh.ExtendDone(); err != nil {
		t.Fatalf("after rejecting a forged stream the checker rejects the real prefix: %v", err)
	}
}

// newLogging is NewFromFormula for a solver that logs its proof from the
// first clause.
func newLogging(f *cnf.Formula, opts Options) *Solver {
	s := New(f.NumVars, opts)
	s.EnableProof()
	s.AddFormula(f)
	return s
}

// A draft is a proof taken apart for a test to build or edit: its
// lemmas, each with its chain (none past the last chain), and its
// deletions, each logged once the first At lemmas are — one whose At
// runs ahead holds back those behind it, and none waits past the last
// lemma.
type draft struct {
	Lemmas  []cnf.Clause
	Chains  [][]uint32
	Deletes []deletion
}

type deletion struct {
	At     int
	ID     uint32
	Clause cnf.Clause
}

// chain returns lemma i's chain, nil if the draft has none for it.
func (d *draft) chain(i int) []uint32 {
	if i < len(d.Chains) {
		return d.Chains[i]
	}
	return nil
}

// flat logs d step by step, as a solver would (FlatLog.Step).
func (d *draft) flat() Proof {
	var log FlatLog
	dels := d.Deletes
	for i := 0; ; i++ {
		for ; len(dels) > 0 && (dels[0].At <= i || i == len(d.Lemmas)); dels = dels[1:] {
			log.Step(true, wordsOf(dels[0].Clause), []uint32{dels[0].ID})
		}
		if i == len(d.Lemmas) {
			return Proof(log)
		}
		log.Step(false, wordsOf(d.Lemmas[i]), d.chain(i))
	}
}

// draftOf takes p apart (Proof.Steps), the empty clause as nil; it
// panics on a proof Steps refuses.
func draftOf(p Proof) *draft {
	d := &draft{}
	if err := p.Steps(func(deleted bool, words, ids []uint32) error {
		var c cnf.Clause
		for _, l := range words {
			c = append(c, cnf.Lit(l))
		}
		if deleted {
			d.Deletes = append(d.Deletes, deletion{len(d.Lemmas), ids[0], c})
		} else {
			d.Lemmas, d.Chains = append(d.Lemmas, c), append(d.Chains, slices.Clone(ids))
		}
		return nil
	}); err != nil {
		panic(err)
	}
	return d
}

// wordsOf is a clause as Steps hands it out.
func wordsOf(c cnf.Clause) []uint32 {
	w := make([]uint32, len(c))
	for i, l := range c {
		w[i] = uint32(l)
	}
	return w
}

// chainVariants returns p as it is, without its chains, under
// hostileChains' rotation — each chain shuffled, truncated, made of the
// IDs of deleted clauses or of IDs no clause has — and with every lemma
// given the chain of the one before, or of the one after.
func chainVariants(p *draft, clauses int) map[string]*draft {
	with := func(chain func(i int) []uint32) *draft {
		q := &draft{Lemmas: p.Lemmas, Deletes: p.Deletes, Chains: make([][]uint32, len(p.Lemmas))}
		for i := range q.Chains {
			q.Chains[i] = chain(i)
		}
		return q
	}
	return map[string]*draft{
		"honest":  p,
		"none":    {Lemmas: p.Lemmas, Deletes: p.Deletes},
		"hostile": hostileChains(p, clauses),
		"shifted": with(func(i int) []uint32 { return p.chain((i + len(p.Lemmas) - 1) % len(p.Lemmas)) }),
		"ahead":   with(func(i int) []uint32 { return p.chain((i + 1) % len(p.Lemmas)) }),
	}
}

// A chain is the proof. Every proof of this file's corpus — the
// per-partition refutations of an encoded cell and tampered copies of
// them, each with the chains kept beside the lemmas it keeps, and the
// two deleting proofs with a lemma of each flipped — is put to the
// checker under every chain variant. What the solver logged is accepted
// with its own chains and costs the checker a chain walk per lemma; what
// the checker accepts under any chains, the chain-blind reference engine
// accepts given the lemmas alone; a forged chain — none, hostile, the
// neighbour's — is rejected unless the reference accepts the proof, and
// it costs the checker no more chain IDs than it ships.
func TestChainsAreTheProof(t *testing.T) {
	type input struct {
		name        string
		f           *cnf.Formula
		assumptions []cnf.Lit
		proof       *draft
		honest      bool
	}
	var corpus []input
	tampered := func(in input, kind string, edit func(q *draft)) input {
		q := &draft{Lemmas: make([]cnf.Clause, len(in.proof.Lemmas)), Deletes: in.proof.Deletes, Chains: slices.Clone(in.proof.Chains)}
		for i, l := range in.proof.Lemmas {
			q.Lemmas[i] = slices.Clone(l)
		}
		edit(q)
		return input{in.name + "/" + kind, in.f, in.assumptions, q, false}
	}
	flip := func(q *draft) { q.Lemmas[len(q.Lemmas)/2][0] = q.Lemmas[len(q.Lemmas)/2][0].Not() }
	enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 4)
	parts := encodedCubes(t, enc, 8)
	for _, pt := range parts {
		s := newLogging(enc.Formula(), Options{})
		if st, err := s.Solve(pt.Assumptions...); err != nil || st != Unsat {
			t.Fatalf("partition %d: %v, %v; want UNSAT", pt.Index, st, err)
		}
		if s.ProofLog().NumLemmas() < 2 {
			continue
		}
		h := input{fmt.Sprintf("p%d", pt.Index), enc.Formula(), pt.Assumptions, draftOf(s.ProofLog()), true}
		corpus = append(corpus, h, tampered(h, "flipped-literal", flip),
			tampered(h, "dropped-lemma", func(q *draft) {
				mid := len(q.Lemmas) / 2
				q.Lemmas, q.Chains = slices.Delete(q.Lemmas, mid, mid+1), slices.Delete(q.Chains, mid, mid+1)
			}))
	}
	for _, tc := range deletingProofs(t) {
		h := input{tc.name, tc.f, nil, draftOf(tc.p), true}
		corpus = append(corpus, h, tampered(h, "flipped-literal", flip))
	}
	accepted, rejected := 0, 0
	for _, in := range corpus {
		// Without the deletions: the checker ignores those whose IDs do
		// not name their clause, the reference engine goes by literals.
		ref := referenceCheckRUP(in.f, in.assumptions, (&draft{Lemmas: in.proof.Lemmas}).flat())
		if in.honest && ref != nil {
			t.Fatalf("%s: the reference engine says %s", in.name, errText(ref))
		}
		reused := NewProofChecker(in.f)
		for name, variant := range chainVariants(in.proof, in.f.NumClauses()) {
			before := reused.Stats()
			got := reused.Check(in.assumptions, variant.flat())
			work := reused.Stats().Since(before)
			shipped := 0
			for _, c := range variant.Chains {
				shipped += len(c)
			}
			switch {
			case got == nil && ref != nil:
				t.Fatalf("%s under %s chains: accepted; the reference engine: %s", in.name, name, errText(ref))
			case name == "honest" && in.honest && (got != nil || work.Lemmas != int64(len(in.proof.Lemmas))):
				t.Fatalf("%s with the solver's chains: %s after %+v", in.name, errText(got), work)
			case in.honest && (name == "none" || name == "hostile") && got == nil:
				t.Fatalf("%s under %s chains: accepted", in.name, name)
			case work.ChainClauses > int64(shipped):
				t.Fatalf("%s under %s chains: %d chain IDs walked of %d shipped", in.name, name, work.ChainClauses, shipped)
			}
			if got == nil {
				accepted++
			} else {
				rejected++
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d checks accepted, %d rejected: the corpus lost a side", accepted, rejected)
	}
	t.Logf("%d proofs under 5 chain variants each: %d checks accepted, %d rejected", len(corpus), accepted, rejected)
}

// Every deletion the solver logs names, by its ID, a clause the log has
// not let go of, with exactly the deletion's literals — a clause the
// loader shortened by a literal false at level 0 is held under the ID of
// the lemma it is now, not under the add's. The test replays each log's
// IDs itself, clause i of the formula and then lemma j as ID |F|+j (of
// the joined log, for a clone's tail), on the solvers of proof_1core's
// two cells, which simplify mid-search, and on the template and the
// sixteen clones of distrib_loopback's run.
func TestSolverDeletionsNameTheirClause(t *testing.T) {
	key := func(c cnf.Clause) string {
		c = slices.Clone(c)
		slices.Sort(c)
		return fmt.Sprint(slices.Compact(c))
	}
	// replay takes p's steps on live, the clauses held by ID, whose next
	// lemma has ID next, and returns the deletions that missed and the
	// next ID after p's lemmas.
	replay := func(live map[uint32]string, next uint32, p Proof) (misses, deletions int, after uint32) {
		p.Steps(func(deleted bool, c, ids []uint32) error {
			if !deleted {
				live[next] = key(clauseOf(c))
				next++
				return nil
			}
			deletions++
			if held, ok := live[ids[0]]; !ok || held != key(clauseOf(c)) {
				misses++
				return nil
			}
			delete(live, ids[0])
			return nil
		})
		return misses, deletions, next
	}
	formula := func(f *cnf.Formula) map[uint32]string {
		live := make(map[uint32]string, f.NumClauses())
		f.BuildClauses()
		for id, c := range f.Clauses {
			live[uint32(id)] = key(c)
		}
		return live
	}
	for _, cell := range []struct {
		name string
		p    *prog.Program
	}{{"es.u2.c6", bench.Eliminationstack()}, {"wsfix.u2.c6", bench.WorkstealingqueueFixed()}} {
		t.Run(cell.name, func(t *testing.T) {
			t.Parallel()
			f := encodeBench(t, cell.p, 2, 6)
			s := newLogging(f, Options{})
			if st, err := s.Solve(); st != Unsat || err != nil || s.Stats().ElimVars == 0 {
				t.Fatalf("%v, %v, %d variables eliminated", st, err, s.Stats().ElimVars)
			}
			misses, deletions, _ := replay(formula(f), uint32(f.NumClauses()), s.ProofLog())
			if misses != 0 {
				t.Fatalf("%d of %d deletions name no clause held with their literals", misses, deletions)
			}
			t.Logf("%d deletions", deletions)
		})
	}
	t.Run("es.u2.c5.p16", func(t *testing.T) {
		t.Parallel()
		enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 5)
		f := enc.Formula()
		parts := encodedCubes(t, enc, 16)
		tpl := newLogging(f, Options{})
		for _, pt := range parts {
			tpl.Freeze(pt.Assumptions...)
		}
		if !tpl.Simplify() || tpl.numElim == 0 {
			t.Fatalf("the pass eliminated %d variables", tpl.numElim)
		}
		base := formula(f)
		misses, deletions, next := replay(base, uint32(f.NumClauses()), tpl.ProofLog())
		for _, pt := range parts {
			c := tpl.Clone()
			if st, err := c.Solve(pt.Assumptions...); st != Unsat || err != nil {
				t.Fatalf("cube %d: %v, %v", pt.Index, st, err)
			}
			m, d, _ := replay(maps.Clone(base), next, c.ProofLog())
			misses, deletions = misses+m, deletions+d
		}
		if misses != 0 {
			t.Fatalf("%d of %d deletions name no clause held with their literals", misses, deletions)
		}
		t.Logf("%d deletions", deletions)
	})
}
