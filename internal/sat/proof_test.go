package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
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
