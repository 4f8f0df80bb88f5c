package sat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
				copied[i] = slices.Clone(l)
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

// deletingProofs returns refutations that log both kinds of deletion: a
// search the simplification pass ran before (what it removed and
// replaced), and one under a memory budget its 20 000 idle variables
// nearly fill, so that reduceDB throws learnt clauses away within a few
// hundred conflicts.
func deletingProofs(t *testing.T) []struct {
	name string
	f    *cnf.Formula
	p    *Proof
} {
	t.Helper()
	simplified := pigeonhole(6)
	pass := NewFromFormula(simplified, Options{})
	pass.simplifyAt = 0
	pass.EnableProof()
	if st, err := pass.Solve(); err != nil || st != Unsat || pass.Stats().Simplified == 0 {
		t.Fatalf("simplified search: %v, %v, %d clauses removed", st, err, pass.Stats().Simplified)
	}
	padded := pigeonhole(7)
	padded.AddClause(cnf.PosLit(20000))
	reducing := NewFromFormula(padded, Options{MemBudgetMB: 2})
	reducing.simplified = true // the budget has no room for the pass
	reducing.EnableProof()
	if st, err := reducing.Solve(); err != nil || st != Unsat || reducing.Stats().LearntDeleted == 0 {
		t.Fatalf("search under a memory budget: %v, %v, %d learnt clauses deleted", st, err, reducing.Stats().LearntDeleted)
	}
	return []struct {
		name string
		f    *cnf.Formula
		p    *Proof
	}{{"pass", simplified, pass.ProofLog()}, {"reduceDB", padded, reducing.ProofLog()}}
}

// baseOf lists what a checker at rest holds: its live clauses, each as
// its sorted literals, in sorted order, and how often each literal is
// watched through.
func baseOf(t *testing.T, c *ProofChecker) (clauses []string, watchers int) {
	t.Helper()
	for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]&^delTag) + 1 {
		if c.arena[ref-1]&delTag != 0 {
			continue
		}
		lits := slices.Clone(c.arena[ref : ref+int(c.arena[ref-1])])
		for _, l := range lits[:2] {
			if !slices.ContainsFunc(c.watches[l^1], func(w watcher) bool { return w.ref&^binTag == uint32(ref) }) {
				t.Fatalf("clause %v is not watched through %d", lits, l)
			}
		}
		slices.Sort(lits)
		clauses = append(clauses, fmt.Sprint(lits))
	}
	slices.Sort(clauses)
	for _, ws := range c.watches {
		watchers += len(ws)
	}
	if watchers != 2*len(clauses) {
		t.Fatalf("%d watchers for %d clauses", watchers, len(clauses))
	}
	return clauses, watchers
}

// What the solver logs as dropped the checker drops — nearly all of it:
// a deletion names its clause by the literals the solver held, and the
// few clauses the solver had already shortened by a level-0 literal the
// checker keeps under their own — and the proof checks, on the checker
// and the reference engine; it checks again on the same checker, whose
// base comes back from every check clause for clause and watched as it
// must be, whatever the proof deleted from it; and cut in two it obeys
// Extend's law.
func TestProofDeletesWhatTheSolverDropped(t *testing.T) {
	for _, tc := range deletingProofs(t) {
		t.Run(tc.name, func(t *testing.T) {
			f, p := tc.f, tc.p
			if len(p.Deletes) == 0 {
				t.Fatal("the proof deletes nothing")
			}
			for i, d := range p.Deletes {
				if d.At < 0 || d.At > len(p.Lemmas) || i > 0 && d.At < p.Deletes[i-1].At {
					t.Fatalf("deletion %d at %d after one at %d, of %d lemmas", i, d.At, p.Deletes[max(i-1, 0)].At, len(p.Lemmas))
				}
			}
			c := NewProofChecker(f)
			base, _ := baseOf(t, c)
			if err := c.Check(nil, p); err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if err := referenceCheckRUP(f, nil, p); err != nil {
				t.Fatalf("rejected by the reference engine: %v", err)
			}
			if err := CheckRUP(f, nil, &Proof{Lemmas: p.Lemmas}); err != nil {
				t.Fatalf("rejected without its deletions: %v", err)
			}

			// The clauses gone when the last lemma is in, before reset
			// brings the base back.
			if refuted, err := c.derive(p); err != nil || !refuted {
				t.Fatalf("derive: refuted %v, %v", refuted, err)
			}
			dropped := 0
			for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]&^delTag) + 1 {
				if c.arena[ref-1]&delTag != 0 {
					dropped++
				}
			}
			c.reset()
			if dropped == 0 || 10*dropped < 9*len(p.Deletes) {
				t.Errorf("the checker dropped %d clauses for %d deletions", dropped, len(p.Deletes))
			}
			// A proof that deletes the formula away before it starts, then
			// the honest one again: every answer from the same base.
			robbed := &Proof{Lemmas: p.Lemmas}
			for _, cl := range f.Clauses {
				robbed.Deletes = append(robbed.Deletes, Deletion{Clause: cl})
			}
			if err := c.Check(nil, robbed); err == nil {
				t.Fatal("accepted with the formula deleted ahead of the first lemma")
			}
			if after, _ := baseOf(t, c); !slices.Equal(after, base) {
				t.Fatalf("the base holds %d clauses after the checks, %d before, or not the same ones", len(after), len(base))
			}
			if err := c.Check(nil, p); err != nil {
				t.Fatalf("rejected by the checker that had accepted it: %v", err)
			}
			checkExtendLaw(t, f, nil, p)
			t.Logf("%d lemmas, %d deletions, %d clauses dropped", len(p.Lemmas), len(p.Deletes), dropped)
		})
	}
}

// A deletion that names nothing the checker holds is ignored, wherever
// it says it stands, and changes no answer.
func TestProofDeletionsThatNameNothing(t *testing.T) {
	f := pigeonhole(5)
	s := NewFromFormula(f, Options{})
	s.EnableProof()
	if st, err := s.Solve(); err != nil || st != Unsat {
		t.Fatalf("%v, %v", st, err)
	}
	lemmas := s.ProofLog().Lemmas
	binary := f.Clauses[len(f.Clauses)-1]
	noise := []Deletion{
		{At: -7, Clause: nil},
		{At: 0, Clause: cnf.Clause{0}},
		{At: 0, Clause: cnf.Clause{cnf.Lit(1 << 40), binary[0]}},
		{At: 1, Clause: cnf.Clause{cnf.PosLit(cnf.Var(f.NumVars + 1)), binary[0]}},
		{At: 1, Clause: cnf.Clause{binary[0]}},
		{At: 1 << 40, Clause: cnf.Clause{binary[0], binary[0].Not()}},
		{At: 2, Clause: cnf.Clause{binary[0], binary[1], binary[1].Not()}},
	}
	for _, p := range []*Proof{
		{Lemmas: lemmas, Deletes: noise},
		{Lemmas: lemmas[:len(lemmas)/2], Deletes: noise},
		{Deletes: noise},
	} {
		want := CheckRUP(f, nil, &Proof{Lemmas: p.Lemmas})
		if got := CheckRUP(f, nil, p); errText(got) != errText(want) {
			t.Fatalf("%d lemmas: %s with the deletions, %s without", len(p.Lemmas), errText(got), errText(want))
		}
		if (referenceCheckRUP(f, nil, p) == nil) != (want == nil) {
			t.Fatalf("%d lemmas: the reference engine disagrees", len(p.Lemmas))
		}
	}
	// One that names a clause twice over takes it once: the second entry
	// finds nothing, and the first is enough to break the proof.
	twice := &Proof{Lemmas: lemmas}
	for _, c := range f.Clauses {
		twice.Deletes = append(twice.Deletes, Deletion{Clause: c}, Deletion{Clause: c})
	}
	if err := CheckRUP(f, nil, twice); err == nil {
		t.Fatal("accepted with the whole formula deleted")
	}
}

// A proof handed out step by step is the proof kept: a template-style
// solver — loaded, simplified, not searched — that streams its log
// (StreamProof) hands out the steps of the log its twin kept, and a
// checker (ExtendStep, ExtendDone) the base Extend builds from
// that log, clause for clause; it keeps nothing itself, and its clones
// log their own searches as any clone does. A step that does not stand
// is reported when the stream is done, and the checker is then where it
// was.
func TestStreamedProofIsTheKeptOne(t *testing.T) {
	enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 4)
	f := enc.Formula()
	parts, err := partition.Make(enc, 8)
	if err != nil {
		t.Fatal(err)
	}
	template := func(arm func(*Solver)) *Solver {
		s := NewFromFormula(f, Options{})
		arm(s)
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
	if len(log.Lemmas) == 0 || len(log.Deletes) == 0 {
		t.Fatalf("%d lemmas, %d deletions kept", len(log.Lemmas), len(log.Deletes))
	}

	streamed, streamedTo := &Proof{}, NewProofChecker(f)
	streaming := template(func(s *Solver) {
		s.StreamProof(func(deleted bool, clause []uint32) {
			c := make(cnf.Clause, len(clause))
			for i, l := range clause {
				c[i] = cnf.Lit(l)
			}
			if deleted {
				streamed.Deletes = append(streamed.Deletes, Deletion{At: len(streamed.Lemmas), Clause: c})
			} else {
				streamed.Lemmas = append(streamed.Lemmas, c)
			}
			streamedTo.ExtendStep(deleted, clause)
		})
	})
	if err := streamedTo.ExtendDone(); err != nil {
		t.Fatalf("the streamed prefix rejected: %v", err)
	}
	if !bytes.Equal(stepsOf(streamed), stepsOf(log)) {
		t.Fatalf("%d lemmas and %d deletions streamed, %d and %d kept, or not the same ones",
			len(streamed.Lemmas), len(streamed.Deletes), len(log.Lemmas), len(log.Deletes))
	}
	if p := streaming.ProofLog(); p == nil || len(p.Lemmas) != 0 || len(p.Deletes) != 0 {
		t.Fatalf("the streaming solver kept %+v", p)
	}
	extended := NewProofChecker(f)
	if err := extended.Extend(log); err != nil {
		t.Fatal(err)
	}
	want, _ := baseOf(t, extended)
	if got, _ := baseOf(t, streamedTo); !slices.Equal(got, want) {
		t.Fatalf("the checker fed by steps holds %d clauses, the one extended by the log %d, or not the same ones", len(got), len(want))
	}
	// The clones' tails check on either, and are kept.
	for _, pt := range []partition.Partition{parts[0], parts[5]} {
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

	// One literal of one lemma flipped on its way.
	fresh := NewProofChecker(f)
	base, _ := baseOf(t, fresh)
	at, lemmas := len(log.Lemmas)/2, 0
	_ = log.steps(func(deleted bool, c cnf.Clause) error {
		clause := make([]uint32, len(c))
		for i, l := range c {
			clause[i] = uint32(l)
		}
		if !deleted {
			if lemmas == at {
				clause[0] ^= 1
			}
			lemmas++
		}
		fresh.ExtendStep(deleted, clause)
		return nil
	})
	if err := fresh.ExtendDone(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("lemma %d ", at+1)) {
		t.Fatalf("stream with lemma %d forged: %v", at+1, err)
	}
	if after, _ := baseOf(t, fresh); !slices.Equal(after, base) {
		t.Fatal("a rejected stream left the checker's base changed")
	}
	if err := fresh.Extend(log); err != nil {
		t.Fatalf("after rejecting a forged stream the checker rejects the real prefix: %v", err)
	}
}

// hintVariants returns p as it is, without its hints, and under four
// kinds of hint no solver writes: each lemma's replaced, in rotation, by
// none, every variable, variable 0, one past the last variable and the
// next lemma's; every lemma given the one before's; and bytes that are
// no uvarint.
func hintVariants(p *Proof, numVars int) map[string]*Proof {
	with := func(hint func(i int) Hint) *Proof {
		q := &Proof{Lemmas: p.Lemmas, Deletes: p.Deletes, Hints: make([]Hint, len(p.Lemmas))}
		for i := range q.Hints {
			q.Hints[i] = hint(i)
		}
		return q
	}
	return map[string]*Proof{
		"honest": p,
		"none":   {Lemmas: p.Lemmas, Deletes: p.Deletes},
		"hostile": with(func(i int) Hint {
			switch i % 5 {
			case 1:
				return bytes.Repeat([]byte{1}, numVars)
			case 2:
				return Hint{0}
			case 3:
				return binary.AppendUvarint(nil, uint64(numVars)+1)
			case 4:
				return p.hint((i + 1) % len(p.Lemmas))
			}
			return nil
		}),
		"shifted": with(func(i int) Hint { return p.hint((i + len(p.Lemmas) - 1) % len(p.Lemmas)) }),
		"garbage": with(func(int) Hint { return Hint{0x80, 0x80, 0x80} }),
	}
}

// A hint changes no answer. Every proof of this file's corpus — the
// per-partition refutations of an encoded cell and the tampered copies
// TestProofCheckerReuseMatchesFresh makes of them, now with the hints
// kept beside the lemmas they were logged for, and the two deleting
// proofs with a lemma of each flipped — gets, under every hint variant,
// the answer of the hint-blind reference engine: accepted, or rejected
// at the same lemma in the same words. What hints do change is counted:
// an honest proof honestly hinted never falls back, one without hints is
// never hinted, and the hostile ones fall back.
func TestHintsChangeNoAnswer(t *testing.T) {
	type input struct {
		name        string
		f           *cnf.Formula
		assumptions []cnf.Lit
		proof       *Proof
		honest      bool
	}
	var corpus []input
	tampered := func(in input, kind string, edit func(q *Proof)) input {
		q := &Proof{Lemmas: make([]cnf.Clause, len(in.proof.Lemmas)), Deletes: in.proof.Deletes, Hints: slices.Clone(in.proof.Hints)}
		for i, l := range in.proof.Lemmas {
			q.Lemmas[i] = slices.Clone(l)
		}
		edit(q)
		return input{in.name + "/" + kind, in.f, in.assumptions, q, false}
	}
	flip := func(q *Proof) { q.Lemmas[len(q.Lemmas)/2][0] = q.Lemmas[len(q.Lemmas)/2][0].Not() }
	enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 4)
	parts, err := partition.Make(enc, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range parts {
		s := NewFromFormula(enc.Formula(), Options{})
		s.EnableProof()
		if st, err := s.Solve(pt.Assumptions...); err != nil || st != Unsat {
			t.Fatalf("partition %d: %v, %v; want UNSAT", pt.Index, st, err)
		}
		if s.ProofLog().NumLemmas() < 2 {
			continue
		}
		h := input{fmt.Sprintf("p%d", pt.Index), enc.Formula(), pt.Assumptions, s.ProofLog(), true}
		corpus = append(corpus, h, tampered(h, "flipped-literal", flip),
			tampered(h, "dropped-lemma", func(q *Proof) {
				mid := len(q.Lemmas) / 2
				q.Lemmas, q.Hints = slices.Delete(q.Lemmas, mid, mid+1), slices.Delete(q.Hints, mid, mid+1)
			}))
	}
	for _, tc := range deletingProofs(t) {
		h := input{tc.name, tc.f, nil, tc.p, true}
		corpus = append(corpus, h, tampered(h, "flipped-literal", flip))
	}
	rejected := 0
	for _, in := range corpus {
		want := referenceCheckRUP(in.f, in.assumptions, &Proof{Lemmas: in.proof.Lemmas, Deletes: in.proof.Deletes})
		// A tampered copy may still check: a flipped literal can leave a
		// lemma RUP, a dropped lemma may not have been needed.
		if in.honest && want != nil {
			t.Fatalf("%s: the reference engine says %s", in.name, errText(want))
		}
		if want != nil {
			rejected++
		}
		reused := NewProofChecker(in.f)
		for name, variant := range hintVariants(in.proof, in.f.NumVars) {
			before := reused.Stats()
			got := reused.Check(in.assumptions, variant)
			if errText(got) != errText(want) {
				t.Fatalf("%s under %s hints: %s\nthe reference engine: %s", in.name, name, errText(got), errText(want))
			}
			work := reused.Stats().Since(before)
			switch {
			case name == "none" && (work.Hinted != 0 || work.Fallbacks != 0):
				t.Fatalf("%s without hints: %+v", in.name, work)
			case name == "honest" && in.honest && (work.Fallbacks != 0 || work.Hinted == 0):
				t.Fatalf("%s as the solver hinted it: %+v", in.name, work)
			case (name == "hostile" || name == "garbage") && work.Fallbacks == 0:
				t.Fatalf("%s under %s hints: %+v; want fallbacks", in.name, name, work)
			}
		}
	}
	if rejected == 0 || rejected == len(corpus) {
		t.Fatalf("%d of %d proofs rejected: the corpus lost a side", rejected, len(corpus))
	}
	t.Logf("%d proofs under 5 hint variants each, %d of them rejected", len(corpus), rejected)
}
