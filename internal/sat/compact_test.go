package sat

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/partition"
)

// The proof a solver logs is pinned, lemma, deletion and hint: the
// template of es.u2.c4.p8 (loaded, cube variables frozen, simplified up
// front, never searched) logs its pass as the prefix, two of its cubes'
// clones log their searches as tails, and one cube solved alone from the
// loaded formula logs a search that its own pass interrupts at the first
// restart boundary. Each log is pinned by its lemma count and the
// SHA-256 of its flat form: its lemmas and deletions, in the order a
// checker takes them, and its hints. The values were recorded
// before the pass renumbered the variables it keeps: the solver speaks
// the formula's numbering in its log whatever numbering it searches in,
// and a monotone map leaves every search as it was, so a change that
// moves any of these has changed a search or the log.
func TestProofDigestsPinned(t *testing.T) {
	enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 4)
	f := enc.Formula()
	parts, err := partition.Make(enc, 8)
	if err != nil {
		t.Fatal(err)
	}
	type pinned struct {
		name   string
		lemmas int
		flat   string // SHA-256 of AppendFlat
	}
	want := []pinned{
		{"prefix", 42949, "a8694c3511349f66517eb75f3116b543321e7dd4c80f180deb7e28f9950914c4"},
		{"cube 2", 286, "c8d4e67408431ab42105fd2464d0276100941d1153ec26e1785bae15dbba6d78"},
		{"cube 5", 251, "2c8c96d6fc214f56cd1a5b17468e709192d4a1e98b4108176c578a88f43cdd29"},
		{"cube 1 alone", 26042, "d38a733dd6680cfce55edf3a328190631082fda1d894a2923eb100ee359dd466"},
	}
	pin := func(name string, p *Proof) pinned {
		flat := sha256.Sum256(AppendFlat(nil, p))
		return pinned{name, p.NumLemmas(), hex.EncodeToString(flat[:])}
	}

	tpl := NewFromFormula(f, Options{})
	tpl.EnableProof()
	for _, pt := range parts {
		tpl.Freeze(pt.Assumptions...)
	}
	if !tpl.Simplify() || tpl.numElim == 0 {
		t.Fatalf("the pass eliminated %d variables", tpl.numElim)
	}
	got := []pinned{pin("prefix", tpl.ProofLog())}
	for _, i := range []int{2, 5} {
		c := tpl.Clone()
		if st, err := c.Solve(parts[i].Assumptions...); st != Unsat || err != nil {
			t.Fatalf("cube %d: %v, %v", i, st, err)
		}
		got = append(got, pin(want[len(got)].name, c.ProofLog()))
	}
	alone := NewFromFormula(f, Options{})
	alone.EnableProof()
	alone.simplifyAt = 0
	if st, err := alone.Solve(parts[1].Assumptions...); st != Unsat || err != nil || alone.numElim == 0 {
		t.Fatalf("cube 1 alone: %v, %v, %d variables eliminated", st, err, alone.numElim)
	}
	got = append(got, pin("cube 1 alone", alone.ProofLog()))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: logged %+v, pinned %+v", want[i].name, got[i], want[i])
		}
	}
}

// formulaModel checks that a model of the solver satisfies f as it was
// loaded.
func formulaModel(t *testing.T, f *cnf.Formula, s *Solver) {
	t.Helper()
	assign := make([]bool, f.NumVars+1)
	copy(assign[1:], s.Model())
	if len(s.Model()) < f.NumVars || !f.Eval(assign) {
		t.Fatalf("a model of %d variables does not satisfy the formula of %d", len(s.Model()), f.NumVars)
	}
}

// A solver the pass compacted answers in the formula's numbering: its
// models satisfy the formula as loaded — after the in-search pass, on a
// clone of a compacted template and on a solver restored from its
// snapshot — although it holds a fraction of the formula's variables.
func TestCompactedModelsSatisfyTheFormula(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  func() *cnf.Formula
	}{
		{"fib2.u2.c6", func() *cnf.Formula { return encodeBench(t, bench.Fibonacci(2), 2, 6) }},
		{"ws.u3.c7", func() *cnf.Formula { return encodeBench(t, bench.Workstealingqueue(), 3, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.enc()
			inSearch := NewFromFormula(f, Options{})
			inSearch.simplifyAt = 0
			tpl := NewFromFormula(f, Options{})
			tpl.Simplify()
			if tpl.numElim == 0 || tpl.numVars+tpl.numElim != f.NumVars || len(tpl.ext) != tpl.numVars {
				t.Fatalf("the template holds %d of %d variables, %d eliminated, a map of %d", tpl.numVars, f.NumVars, tpl.numElim, len(tpl.ext))
			}
			restored, err := Restore(tpl.Snapshot(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*Solver{"in-search pass": inSearch, "clone": tpl.Clone(), "restored": restored} {
				if st, err := s.Solve(); st != Sat || err != nil {
					t.Fatalf("%s: %v, %v", name, st, err)
				}
				if s.numElim == 0 || s.NumVars() != f.NumVars {
					t.Fatalf("%s: %d variables eliminated, %d known", name, s.numElim, s.NumVars())
				}
				formulaModel(t, f, s)
			}
		})
	}
}

// An assumption over a variable the formula never mentions joins the
// map after the pass: the solver, a clone of a compacted template and
// the template itself each assume it, and a clone that grows its map
// leaves the one it shares with the template as it was.
func TestAssumptionOverUnmentionedVariableAfterPass(t *testing.T) {
	f := encodeBench(t, bench.Fibonacci(2), 2, 6)
	fresh := cnf.Var(f.NumVars + 7)
	s := NewFromFormula(f, Options{})
	s.simplifyAt = 0
	if st, err := s.Solve(); st != Sat || err != nil || s.numElim == 0 {
		t.Fatalf("solve: %v, %v, %d variables eliminated", st, err, s.numElim)
	}
	a := cnf.MkLit(fresh, false)
	if st, err := s.Solve(a); st != Sat || err != nil {
		t.Fatalf("assuming %v after the pass: %v, %v", a, st, err)
	}
	if !modelValue(s, a) || !s.Frozen(fresh) || s.NumVars() != int(fresh) || s.isEliminated(fresh) {
		t.Fatalf("assuming %v: model value %v, frozen %v, %d variables known", a, modelValue(s, a), s.Frozen(fresh), s.NumVars())
	}
	formulaModel(t, f, s)
	// Freeze speaks the formula's numbering too: a kept variable is
	// frozen, an eliminated one is left as it is.
	kept, gone := cnf.Var(s.ext[len(s.ext)/2]), cnf.Var(0)
	for v := cnf.Var(1); gone == 0; v++ {
		if s.isEliminated(v) {
			gone = v
		}
	}
	s.Freeze(cnf.MkLit(kept, false), cnf.MkLit(gone, true))
	if !s.Frozen(kept) || s.Frozen(gone) || !s.isEliminated(gone) {
		t.Fatalf("frozen after the pass: kept %d %v, eliminated %d %v", kept, s.Frozen(kept), gone, s.Frozen(gone))
	}
	// Frozen for good, as any assumption.
	if st, err := s.Solve(a.Not()); st != Unsat || err != nil {
		t.Fatalf("assuming %v after %v: %v, %v", a.Not(), a, st, err)
	}

	tpl := NewFromFormula(f, Options{})
	tpl.Simplify()
	shared := slices.Clone(tpl.ext)
	var wg sync.WaitGroup
	for i := range 2 {
		c := tpl.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := cnf.MkLit(fresh+cnf.Var(i), i == 1)
			if st, err := c.Solve(a); st != Sat || err != nil || !modelValue(c, a) {
				t.Errorf("clone %d assuming %v: %v, %v", i, a, st, err)
				return
			}
			if c.NumVars() != int(fresh)+i || c.isEliminated(fresh) {
				t.Errorf("clone %d knows %d variables", i, c.NumVars())
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(tpl.ext, shared) || tpl.NumVars() != f.NumVars {
		t.Fatalf("the clones' assumptions changed the template's map: %d entries, %d known", len(tpl.ext), tpl.NumVars())
	}
	if st, err := tpl.Solve(cnf.MkLit(fresh, true)); st != Sat || err != nil || modelValue(tpl, cnf.MkLit(fresh, false)) {
		t.Fatalf("the template assuming ¬%d: %v, %v", fresh, st, err)
	}
}

// A snapshot's map is read off the wire like the rest: one out of range,
// out of order, of the wrong length or naming a variable the elimination
// stack says the pass eliminated is refused with errSnapshot, never a
// panic.
func TestRestoreRefusesBadMaps(t *testing.T) {
	f := encodeBench(t, bench.Fibonacci(2), 2, 6)
	tpl := NewFromFormula(f, Options{})
	tpl.Simplify()
	if tpl.numElim == 0 {
		t.Fatal("the pass eliminated nothing")
	}
	if _, err := Restore(tpl.Snapshot(), Options{}); err != nil {
		t.Fatalf("the template's own snapshot: %v", err)
	}
	eliminated := cnf.Var(0)
	for v := cnf.Var(1); eliminated == 0; v++ {
		if tpl.isEliminated(v) {
			eliminated = v
		}
	}
	kept := tpl.ext
	for name, bad := range map[string]func(ext []uint32) []uint32{
		"out of range": func(ext []uint32) []uint32 { ext[len(ext)-1] = uint32(tpl.NumVars() + 1); return ext },
		"zero":         func(ext []uint32) []uint32 { ext[0] = 0; return ext },
		"repeated":     func(ext []uint32) []uint32 { ext[1] = ext[0]; return ext },
		"decreasing":   func(ext []uint32) []uint32 { ext[3], ext[4] = ext[4], ext[3]; return ext },
		"short":        func(ext []uint32) []uint32 { return ext[:len(ext)-1] },
		"names a gone one": func(ext []uint32) []uint32 {
			i, _ := slices.BinarySearch(ext, uint32(eliminated))
			return slices.Insert(ext[:len(ext)-1], i, uint32(eliminated))
		},
	} {
		t.Run(name, func(t *testing.T) {
			tpl.ext = bad(slices.Clone(kept))
			defer func() { tpl.ext = kept }()
			s, err := Restore(tpl.Snapshot(), Options{})
			if s != nil || !errors.Is(err, errSnapshot) {
				t.Fatalf("restored a snapshot whose map is %s: %v", name, err)
			}
		})
	}
}
