package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/partition"
)

func TestProofPigeonhole(t *testing.T) {
	for holes := 3; holes <= 6; holes++ {
		f := pigeonhole(holes)
		s := NewFromFormula(f, Options{})
		s.EnableProof()
		st, err := s.Solve()
		if err != nil || st != Unsat {
			t.Fatalf("PHP(%d): %v %v", holes, st, err)
		}
		if err := CheckRUP(f, nil, s.ProofLog()); err != nil {
			t.Fatalf("PHP(%d): proof rejected: %v", holes, err)
		}
	}
}

func TestProofRandomUnsat(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	certified := 0
	for iter := 0; iter < 300; iter++ {
		nv := 1 + rng.Intn(10)
		f := randomFormula(rng, nv, 10+rng.Intn(40), 1+rng.Intn(3))
		s := NewFromFormula(f, Options{})
		s.EnableProof()
		st, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if st != Unsat {
			continue
		}
		if err := CheckRUP(f, nil, s.ProofLog()); err != nil {
			t.Fatalf("iter %d: valid proof rejected: %v", iter, err)
		}
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
		s := NewFromFormula(f, Options{})
		s.EnableProof()
		st, err := s.Solve(assumps...)
		if err != nil {
			t.Fatal(err)
		}
		if st != Unsat {
			continue
		}
		if err := CheckRUP(f, assumps, s.ProofLog()); err != nil {
			t.Fatalf("iter %d: proof under assumptions rejected: %v", iter, err)
		}
		certified++
	}
	if certified < 20 {
		t.Fatalf("too few assumption-UNSAT instances certified: %d", certified)
	}
}

func TestProofRejectsBogusLemma(t *testing.T) {
	// A satisfiable formula cannot have a valid refutation; a fabricated
	// proof must be rejected.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(1), cnf.PosLit(2))
	bogus := &Proof{Lemmas: []cnf.Clause{
		{cnf.NegLit(2)}, // not a consequence: x2 can be true
	}}
	if err := CheckRUP(f, nil, bogus); err == nil {
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
	s := NewFromFormula(f, Options{})
	s.EnableProof()
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
		if err := CheckRUP(f, nil, &Proof{Lemmas: []cnf.Clause{lemma}}); err == nil {
			t.Fatalf("malformed lemma %v accepted", []cnf.Lit(lemma))
		}
	}
	// So is an assumption that is no literal at all.
	for _, a := range []cnf.Lit{cnf.LitUndef, cnf.Lit(1), cnf.Lit(-6)} {
		if err := CheckRUP(f, []cnf.Lit{a}, &Proof{}); err == nil {
			t.Fatalf("malformed assumption %d accepted", int(a))
		}
	}
}

func TestProofRejectsIncomplete(t *testing.T) {
	// Valid lemmas that never reach the empty clause must be rejected.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.PosLit(1), cnf.NegLit(2))
	proof := &Proof{Lemmas: []cnf.Clause{
		{cnf.PosLit(1)}, // genuine RUP consequence, but f is SAT
	}}
	if err := CheckRUP(f, nil, proof); err == nil {
		t.Fatal("incomplete proof accepted")
	}
}

func TestProofTrivialConflicts(t *testing.T) {
	// Root-level contradictions need no lemmas at all.
	f := cnf.New()
	f.AddUnit(cnf.PosLit(1))
	f.AddUnit(cnf.NegLit(1))
	if err := CheckRUP(f, nil, &Proof{}); err != nil {
		t.Fatalf("root conflict rejected: %v", err)
	}
	// Contradictory assumptions likewise.
	f2 := cnf.New()
	f2.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	if err := CheckRUP(f2, []cnf.Lit{cnf.PosLit(1), cnf.NegLit(1)}, &Proof{}); err != nil {
		t.Fatalf("assumption conflict rejected: %v", err)
	}
	// Empty clause in the input.
	f3 := cnf.New()
	f3.AddClause()
	if err := CheckRUP(f3, nil, &Proof{}); err != nil {
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
		s := NewFromFormula(f, Options{})
		s.EnableProof()
		st, err := s.Solve(assumps...)
		if err != nil || st != Unsat {
			t.Fatalf("mask %d: %v %v", mask, st, err)
		}
		if err := CheckRUP(f, assumps, s.ProofLog()); err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
	}
}

func TestCheckRUPLemmaUnitUnderRoot(t *testing.T) {
	// With 1 false at the root the lemma (1∨2∨3) is the clause (2∨3)
	// from the moment it is added, and the check of the lemma (2) needs
	// it to propagate 3. A checker that attaches the lemma through its
	// root-false literal never sees it become unit and rejects a valid
	// proof. The root literal comes from the formula, then from an
	// assumption.
	clauses := []cnf.Clause{
		{mk(2, false), mk(3, false), mk(4, false)},
		{mk(2, false), mk(3, false), mk(4, true)},
		{mk(3, true), mk(5, false)},
		{mk(3, true), mk(5, true)},
		{mk(2, true), mk(6, false)},
		{mk(2, true), mk(6, true)},
	}
	proof := &Proof{Lemmas: []cnf.Clause{
		{mk(1, false), mk(2, false), mk(3, false)},
		{mk(2, false)},
	}}
	unit := cnf.New()
	unit.AddClause(mk(1, true))
	assumed := cnf.New()
	for _, c := range clauses {
		unit.AddClause(c...)
		assumed.AddClause(c...)
	}
	if err := CheckRUP(unit, nil, proof); err != nil {
		t.Errorf("root literal from a unit clause: valid proof rejected: %v", err)
	}
	if err := CheckRUP(assumed, []cnf.Lit{mk(1, true)}, proof); err != nil {
		t.Errorf("root literal from an assumption: valid proof rejected: %v", err)
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
	parts, err := partition.Make(enc, 8)
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		name        string
		assumptions []cnf.Lit
		proof       *Proof
	}
	beyond := cnf.PosLit(cnf.Var(f.NumVars + 3))
	var honest, inputs []input
	for _, pt := range parts {
		s := NewFromFormula(f, Options{})
		s.EnableProof()
		if st, err := s.Solve(pt.Assumptions...); err != nil || st != Unsat {
			t.Fatalf("partition %d: %v, %v; want UNSAT", pt.Index, st, err)
		}
		lemmas := s.ProofLog().Lemmas
		if len(lemmas) < 2 {
			continue
		}
		tamper := func(kind string, edit func([]cnf.Clause) []cnf.Clause) input {
			copied := make([]cnf.Clause, len(lemmas))
			for i, l := range lemmas {
				copied[i] = l.Clone()
			}
			return input{fmt.Sprintf("p%d/%s", pt.Index, kind), pt.Assumptions, &Proof{Lemmas: edit(copied)}}
		}
		mid := len(lemmas) / 2
		h := input{fmt.Sprintf("p%d/honest", pt.Index), pt.Assumptions, s.ProofLog()}
		honest = append(honest, h)
		inputs = append(inputs, h,
			tamper("dropped-lemma", func(ls []cnf.Clause) []cnf.Clause {
				return append(ls[:mid], ls[mid+1:]...)
			}),
			tamper("flipped-literal", func(ls []cnf.Clause) []cnf.Clause {
				ls[mid][0] = ls[mid][0].Not()
				return ls
			}),
			// Weakened by a variable nothing mentions: a RUP consequence
			// only to a checker that kept the variable from the check of
			// an assumption over it.
			tamper("lemma-beyond-numvars", func(ls []cnf.Clause) []cnf.Clause {
				ls[0] = append(ls[0], beyond)
				return ls
			}),
			input{fmt.Sprintf("p%d/assumption-beyond-numvars", pt.Index),
				append(append([]cnf.Lit{}, pt.Assumptions...), beyond), s.ProofLog()},
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
		got := reused.Check(in.assumptions, in.proof)
		if want := CheckRUP(f, in.assumptions, in.proof); errText(got) != errText(want) {
			t.Fatalf("%s: reused checker: %s\nfresh checker: %s", in.name, errText(got), errText(want))
		}
		if got == nil {
			accepted++
			continue
		}
		rejected++
		if ref := referenceCheckRUP(f, in.assumptions, in.proof); ref == nil {
			t.Fatalf("%s: rejected (%v), accepted by the reference engine", in.name, got)
		}
		h := honest[rng.Intn(len(honest))]
		if err := reused.Check(h.assumptions, h.proof); err != nil {
			t.Fatalf("%s right after the rejection of %s: %v", h.name, in.name, err)
		}
	}
	if accepted < len(honest) || rejected < len(honest) {
		t.Fatalf("%d accepted, %d rejected of %d inputs: the tampering lost its bite", accepted, rejected, len(inputs))
	}
	if got := reused.Stats(); got.Lemmas == 0 || got.Propagations == 0 {
		t.Fatalf("stats after %d checks: %+v", len(inputs), got)
	}
	t.Logf("%d inputs: %d accepted, %d rejected; %+v", len(inputs), accepted, rejected, reused.Stats())
}
