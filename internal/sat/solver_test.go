package sat

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cnf"
)

func mk(v int, neg bool) cnf.Lit { return cnf.MkLit(cnf.Var(v), neg) }

func TestEmptyFormulaSat(t *testing.T) {
	s := New(0, Options{})
	st, err := s.Solve()
	if err != nil || st != Sat {
		t.Fatalf("got %v,%v", st, err)
	}
}

func TestSingleUnit(t *testing.T) {
	s := New(1, Options{})
	s.AddClause(mk(1, false))
	st, _ := s.Solve()
	if st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Model()[0] {
		t.Fatal("x1 should be true")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := New(1, Options{})
	s.AddClause(mk(1, false))
	ok := s.AddClause(mk(1, true))
	if ok {
		t.Fatal("expected inconsistency detected at add time")
	}
	st, _ := s.Solve()
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestSimpleUnsat(t *testing.T) {
	// (x ∨ y) ∧ (x ∨ ¬y) ∧ (¬x ∨ y) ∧ (¬x ∨ ¬y)
	s := New(2, Options{})
	s.AddClause(mk(1, false), mk(2, false))
	s.AddClause(mk(1, false), mk(2, true))
	s.AddClause(mk(1, true), mk(2, false))
	s.AddClause(mk(1, true), mk(2, true))
	st, _ := s.Solve()
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestModelSatisfiesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		f := randomFormula(rng, 3+rng.Intn(12), 1+rng.Intn(50), 3)
		s := NewFromFormula(f, Options{})
		st, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if st == Sat {
			m := s.Model()
			assign := make([]bool, f.NumVars+1)
			copy(assign[1:], m)
			if !f.Eval(assign) {
				t.Fatalf("iter %d: model does not satisfy formula", iter)
			}
		}
	}
}

// The central correctness property: CDCL agrees with brute force.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		nv := 1 + rng.Intn(10)
		f := randomFormula(rng, nv, rng.Intn(40), 1+rng.Intn(4))
		want := bruteForceSat(f)
		s := NewFromFormula(f, Options{})
		st, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if (st == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v formula=%v", iter, st, want, f)
		}
	}
}

// Diversified configurations must all agree with brute force.
func TestConfigurationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	opts := []Options{
		{},
		{NoPhaseSaving: true},
		{InitialPolarity: true},
		{RandomizeFreq: 0.2, Seed: 7},
		{VarDecay: 0.8, RestartBase: 20},
	}
	for iter := 0; iter < 100; iter++ {
		nv := 1 + rng.Intn(9)
		f := randomFormula(rng, nv, rng.Intn(35), 1+rng.Intn(4))
		want := bruteForceSat(f)
		for oi, o := range opts {
			s := NewFromFormula(f, o)
			st, err := s.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if (st == Sat) != want {
				t.Fatalf("iter %d opt %d: solver=%v want sat=%v", iter, oi, st, want)
			}
		}
	}
}

func TestSolveUnderAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		nv := 2 + rng.Intn(8)
		f := randomFormula(rng, nv, rng.Intn(25), 1+rng.Intn(4))
		// Pick random assumptions.
		var assumps []cnf.Lit
		seen := map[int]bool{}
		for i := 0; i <= rng.Intn(3); i++ {
			v := 1 + rng.Intn(nv)
			if seen[v] {
				continue
			}
			seen[v] = true
			assumps = append(assumps, mk(v, rng.Intn(2) == 0))
		}
		// Brute-force reference: conjoin assumptions as units.
		ref := f.Clone()
		for _, a := range assumps {
			ref.AddUnit(a)
		}
		want := bruteForceSat(ref)
		s := NewFromFormula(f, Options{})
		st, err := s.Solve(assumps...)
		if err != nil {
			t.Fatal(err)
		}
		if (st == Sat) != want {
			t.Fatalf("iter %d: solver=%v want sat=%v assumps=%v", iter, st, want, assumps)
		}
		if st == Sat {
			for _, a := range assumps {
				if !modelValue(s, a) {
					t.Fatalf("iter %d: assumption %v violated in model", iter, a)
				}
			}
		}
	}
}

func TestAssumptionsAreFrozen(t *testing.T) {
	s := New(3, Options{})
	s.AddClause(mk(1, false), mk(2, false))
	st, _ := s.Solve(mk(1, true))
	if st != Sat {
		t.Fatalf("got %v", st)
	}
	if !s.Frozen(1) {
		t.Fatal("assumption variable not frozen")
	}
	if s.Frozen(2) {
		t.Fatal("non-assumption variable frozen")
	}
	if modelValue(s, mk(1, true)) != true {
		t.Fatal("assumption not honoured")
	}
}

func TestConflictingAssumptions(t *testing.T) {
	s := New(2, Options{})
	s.AddClause(mk(1, false), mk(2, false))
	st, _ := s.Solve(mk(1, true), mk(2, true))
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
	// Directly contradictory assumptions.
	s2 := New(1, Options{})
	st2, _ := s2.Solve(mk(1, false), mk(1, true))
	if st2 != Unsat {
		t.Fatalf("got %v", st2)
	}
	// Repeated identical assumptions are fine.
	s3 := New(1, Options{})
	st3, _ := s3.Solve(mk(1, false), mk(1, false))
	if st3 != Sat {
		t.Fatalf("got %v", st3)
	}
}

// Pigeonhole principle PHP(n+1,n): classic hard UNSAT family.
func pigeonhole(holes int) *cnf.Formula {
	pigeons := holes + 1
	f := cnf.New()
	v := func(p, h int) cnf.Var { return cnf.Var(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		var c []cnf.Lit
		for h := 0; h < holes; h++ {
			c = append(c, cnf.PosLit(v(p, h)))
		}
		f.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(cnf.NegLit(v(p1, h)), cnf.NegLit(v(p2, h)))
			}
		}
	}
	return f
}

func TestPigeonholeUnsat(t *testing.T) {
	for holes := 2; holes <= 6; holes++ {
		s := NewFromFormula(pigeonhole(holes), Options{})
		st, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if st != Unsat {
			t.Fatalf("PHP(%d): got %v", holes, st)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	s := NewFromFormula(pigeonhole(6), Options{})
	st, _ := s.Solve()
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
	stats := s.Stats()
	if stats.Decisions == 0 || stats.Conflicts == 0 || stats.Propagations == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.MaxDepth == 0 {
		t.Fatal("max depth not tracked")
	}
	if stats.Learnt == 0 {
		t.Fatal("no learnt clauses recorded")
	}
}

func TestInterrupt(t *testing.T) {
	s := NewFromFormula(pigeonhole(9), Options{ProgressEvery: 1})
	searching := firstConflict(s)
	done := make(chan struct{})
	var st Status
	var err error
	go func() {
		st, err = s.Solve()
		close(done)
	}()
	<-searching
	s.Interrupt()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("solver did not react to interrupt")
	}
	if err == ErrInterrupted && st != Unknown {
		t.Fatalf("interrupted but status %v", st)
	}
	if err == nil && st == Unknown {
		t.Fatal("unknown status without error")
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	s := NewFromFormula(pigeonhole(9), Options{MaxConflicts: 50})
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != Unknown {
		t.Fatalf("expected Unknown under tiny budget, got %v", st)
	}
	if s.Stats().Conflicts < 50 {
		t.Fatalf("budget not consumed: %d", s.Stats().Conflicts)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if g := luby(int64(i + 1)); g != w {
			t.Fatalf("luby(%d)=%d want %d", i+1, g, w)
		}
	}
}

func TestIncrementalSolveCalls(t *testing.T) {
	// Repeated Solve calls accumulate frozen assumptions (the paper's
	// unit-clause freezing is permanent; fresh solvers are used per
	// partition). x1 and x2 together conflict at level 0, and they stay
	// frozen: every later call is Unsat, as Solve documents — a Sat there
	// would be a model with x1 and x2 both true.
	s := New(3, Options{})
	s.AddClause(mk(1, false), mk(2, false), mk(3, false))
	s.AddClause(mk(1, true), mk(2, true))
	cases := []struct {
		assumps []cnf.Lit
		want    Status
	}{
		{nil, Sat},
		{[]cnf.Lit{mk(1, false), mk(2, false)}, Unsat},
		{[]cnf.Lit{mk(1, false)}, Unsat},
		{nil, Unsat},
	}
	for i, c := range cases {
		st, err := s.Solve(c.assumps...)
		if err != nil {
			t.Fatal(err)
		}
		if st != c.want {
			t.Fatalf("case %d: got %v want %v", i, st, c.want)
		}
	}
}

func TestAssumptionFreezingIsPermanent(t *testing.T) {
	// After freezing ¬x1, a later request to assume x1 contradicts the
	// frozen unit and must report Unsat — the documented paper
	// behaviour, not an incremental push/pop interface.
	s := New(2, Options{})
	s.AddClause(mk(1, false), mk(2, false))
	if st, _ := s.Solve(mk(1, true)); st != Sat {
		t.Fatalf("first call: %v", st)
	}
	if st, _ := s.Solve(mk(1, false)); st != Unsat {
		t.Fatalf("contradicting a frozen assumption: got %v, want UNSAT", st)
	}
	// Re-asserting the same frozen assumption stays satisfiable.
	if st, _ := s.Solve(mk(1, true)); st != Sat {
		t.Fatalf("re-asserting frozen assumption: %v", st)
	}
}

func TestClauseSharingCallback(t *testing.T) {
	var mu sync.Mutex
	var shared [][]cnf.Lit
	s := NewFromFormula(pigeonhole(5), Options{})
	s.ShareMaxLBD = 8
	s.ShareLearnt = func(lits []cnf.Lit, lbd int) {
		mu.Lock()
		shared = append(shared, lits)
		mu.Unlock()
	}
	st, _ := s.Solve()
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
	mu.Lock()
	n := len(shared)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no clauses shared")
	}
}

func TestImportCallback(t *testing.T) {
	// Import a unit that makes the formula UNSAT; the solver must pick it
	// up at a restart. Use a hard formula so restarts actually happen.
	f := pigeonhole(8)
	s := NewFromFormula(f, Options{RestartBase: 10})
	delivered := false
	s.Import = func() [][]cnf.Lit {
		if delivered {
			return nil
		}
		delivered = true
		// An empty-producing pair of units: x1 and ¬x1.
		return [][]cnf.Lit{{cnf.PosLit(1)}, {cnf.NegLit(1)}}
	}
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
}

func TestGrowToViaAddClause(t *testing.T) {
	s := New(0, Options{})
	s.AddClause(mk(10, false), mk(3, true))
	if s.NumVars() != 10 {
		t.Fatalf("NumVars=%d", s.NumVars())
	}
	st, _ := s.Solve()
	if st != Sat {
		t.Fatalf("got %v", st)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String wrong")
	}
}

// randomFormula builds a random k-CNF-ish formula.
func randomFormula(rng *rand.Rand, nv, nc, maxLen int) *cnf.Formula {
	f := cnf.New()
	f.NumVars = nv
	for i := 0; i < nc; i++ {
		n := 1 + rng.Intn(maxLen)
		c := make([]cnf.Lit, 0, n)
		for j := 0; j < n; j++ {
			c = append(c, cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0))
		}
		f.AddClause(c...)
	}
	return f
}

func bruteForceSat(f *cnf.Formula) bool {
	n := f.NumVars
	if n > 22 {
		panic("too many variables for brute force")
	}
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

func BenchmarkSolvePigeonhole7(b *testing.B) {
	f := pigeonhole(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewFromFormula(f, Options{})
		st, _ := s.Solve()
		if st != Unsat {
			b.Fatal("wrong status")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(123))
	nv := 120
	f := randomFormula(rng, nv, int(4.1*float64(nv)), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewFromFormula(f, Options{})
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// modelValue is the value of l in the model of s's last Sat answer.
func modelValue(s *Solver, l cnf.Lit) bool { return s.Model()[l.Var()-1] != l.Neg() }

func ExampleSolver() {
	s := New(2, Options{})
	s.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	s.AddClause(cnf.NegLit(1))
	st, _ := s.Solve()
	fmt.Println(st, s.Model()[1])
	// Output: SAT true
}

// An Unsat that a conflict at level 0 gave is final: the assumptions
// that led there stay frozen, so a later Solve of the instance, and any
// Solve of a clone of it, answers Unsat whatever it assumes. Each case
// once answered Sat with a model that falsifies a clause of the formula:
// the conflict left the clause set marked consistent and the level-0
// assignment half propagated.
func TestUnsatAtLevelZeroIsFinal(t *testing.T) {
	final := func(t *testing.T, name string, s *Solver, assumptions []cnf.Lit) {
		t.Helper()
		if st, err := s.Solve(assumptions...); st != Unsat || err != nil {
			t.Fatalf("%s: %v, %v; want UNSAT", name, st, err)
		}
	}
	t.Run("assumption propagation", func(t *testing.T) {
		f := cnf.New()
		f.AddClause(mk(1, false), mk(2, false))
		f.AddClause(mk(1, true), mk(3, false))
		f.AddClause(mk(1, true), mk(3, true))
		s := NewFromFormula(f, Options{})
		if st, err := s.Solve(mk(1, false)); st != Unsat || err != nil {
			t.Fatalf("assuming a: %v, %v", st, err)
		}
		final(t, "clone", s.Clone(), nil)
		final(t, "again", s, nil)
	})
	t.Run("search", func(t *testing.T) {
		for _, tc := range []struct {
			seed  int64
			clone bool
		}{{162, false}, {10, true}, {187, true}} {
			f := random3SAT(tc.seed, 50, 5.5)
			s := NewFromFormula(f, Options{})
			s.simplifyAt = math.MaxInt64 / 4 // no pass: the search's own conflict at level 0
			if st, err := s.Solve(); st != Unsat || err != nil {
				t.Fatalf("seed %d: %v, %v", tc.seed, st, err)
			}
			if tc.clone {
				final(t, fmt.Sprintf("seed %d, clone", tc.seed), s.Clone(), nil)
			}
			final(t, fmt.Sprintf("seed %d, again", tc.seed), s, nil)
		}
	})
	t.Run("refuted template", func(t *testing.T) {
		enc := encodeBenchCell(t, bench.Eliminationstack(), 2, 5)
		f := enc.Formula()
		parts := encodedCubes(t, enc, 16)
		tpl := NewFromFormula(f, Options{})
		for _, pt := range parts {
			tpl.Freeze(pt.Assumptions...)
		}
		if !tpl.Simplify() {
			t.Fatal("the pass refuted the formula")
		}
		if st, err := tpl.Solve(); st != Unsat || err != nil {
			t.Fatalf("the template without assumptions: %v, %v", st, err)
		}
		final(t, "cube 4 on a clone", tpl.Clone(), parts[4].Assumptions)
	})
}
