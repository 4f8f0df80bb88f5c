package sat

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/flatten"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/prog"
)

// encodeBench builds the formula the pipeline hands the solver for one
// benchmark cell (8-bit words, as core.Verify's default).
func encodeBench(tb testing.TB, p *prog.Program, unwind, contexts int) *cnf.Formula {
	tb.Helper()
	return encodeBenchCell(tb, p, unwind, contexts).Formula()
}

// encodeBenchCell is encodeBench for callers that partition the cell.
func encodeBenchCell(tb testing.TB, p *prog.Program, unwind, contexts int) *vc.Encoded {
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
	return enc
}

// cube is one partition of an encoding as partition.Make cuts it; the
// solver's tests cut their own, since partition imports sat.
type cube struct {
	Index       int
	Assumptions []cnf.Lit
}

// encodedCubes is partition.Make(enc, n): partition i assumes the first
// log2(n) symbolic thread-id bits to be the bits of i.
func encodedCubes(tb testing.TB, enc *vc.Encoded, n int) []cube {
	tb.Helper()
	var lsbs []cnf.Lit
	for _, l := range enc.TidLSBs {
		if l != cnf.LitUndef {
			lsbs = append(lsbs, l)
		}
	}
	p := bits.TrailingZeros(uint(n))
	if n&(n-1) != 0 || p > len(lsbs) {
		tb.Fatalf("%d partitions of an encoding with %d symbolic contexts", n, len(lsbs))
	}
	out := make([]cube, n)
	for i := range out {
		out[i].Index = i
		for j, lit := range lsbs[:p] {
			if i&(1<<j) == 0 {
				lit = lit.Not()
			}
			out[i].Assumptions = append(out[i].Assumptions, lit)
		}
	}
	return out
}

func random3SAT(seed int64, nv int, ratio float64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := cnf.New()
	f.NumVars = nv
	for i := 0; i < int(ratio*float64(nv)); i++ {
		var c [3]cnf.Lit
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
		}
		f.AddClause(c[:]...)
	}
	return f
}

// The clause store is an implementation detail of the search, not a
// heuristic: watch-list order, literal order inside a clause, the
// reduceDB comparator and the VSIDS bump order are all part of what the
// counters below depend on. The rows that stay under the simplification
// trigger (fib2.u2.c6, es.u4.c3) were recorded from the commit before
// the flat arena replaced the pointer-based clause store (bcda93a), and a
// change to the store, the loader or the analysis scratch buffers that
// moves any of them has changed the search, whatever it did to speed.
//
// The other four were re-recorded when the simplification pass moved
// inside Solve: they run to 160–550 propagations per original clause,
// far past simplifyPropsPerClause, so from the first restart boundary
// beyond it they search a different clause set (fewer variables to
// decide, resolvents in place of definitions, learnt clauses over
// eliminated variables dropped). Before: pigeonhole-7 {5715, 6954,
// 84040, 29, 0}, pigeonhole-8 {22665, 27134, 288878, 79, 15225},
// random3sat-seed42 {12208, 14677, 471891, 52, 5213}, es.u2.c5 {4215,
// 11532, 9650434, 21, 0}. The encoded refutation is what the pass is
// for (2.2× fewer propagations at about the same number of
// conflicts); on the others it moves the search as any perturbation
// would, this way or that.
func TestGoldenCounters(t *testing.T) {
	type counters struct {
		conflicts, decisions, propagations, restarts, learntDeleted int64
	}
	cases := []struct {
		name    string
		formula func() *cnf.Formula
		status  Status
		want    counters
	}{
		{"pigeonhole-7", func() *cnf.Formula { return pigeonhole(7) }, Unsat,
			counters{4683, 5679, 51778, 24, 0}},
		// Long enough to cross the reduceDB threshold several times, so
		// deletion order and arena compaction are pinned too.
		{"pigeonhole-8", func() *cnf.Formula { return pigeonhole(8) }, Unsat,
			counters{18339, 22052, 222097, 62, 10146}},
		{"random3sat-seed42", func() *cnf.Formula { return random3SAT(42, 200, 4.26) }, Unsat,
			counters{14994, 18034, 561525, 61, 5212}},
		{"es.u2.c5", func() *cnf.Formula { return encodeBench(t, bench.Eliminationstack(), 2, 5) }, Unsat,
			counters{4536, 11757, 4319941, 23, 0}},
		{"fib2.u2.c6", func() *cnf.Formula { return encodeBench(t, bench.Fibonacci(2), 2, 6) }, Sat,
			counters{263, 766, 231470, 2, 0}},
		// 14.6 propagations per clause over two restarts: the trigger is
		// read twice and does not fire.
		{"es.u4.c3", func() *cnf.Formula { return encodeBench(t, bench.Eliminationstack(), 4, 3) }, Unsat,
			counters{295, 1097, 764388, 2, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "pigeonhole-8" {
				t.Skip("long refutation")
			}
			f := tc.formula()
			// Solved as loaded and solved as a clone of the loaded solver,
			// whose counters leave out only what loading itself propagated.
			loaded := NewFromFormula(f, Options{})
			atLoad := loaded.Stats().Propagations
			for _, s := range []*Solver{loaded.Clone(), loaded} {
				st, err := s.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if st != tc.status {
					t.Fatalf("verdict %v, want %v", st, tc.status)
				}
				if st == Sat {
					assign := make([]bool, f.NumVars+1)
					copy(assign[1:], s.Model())
					if !f.Eval(assign) {
						t.Fatal("model does not satisfy the formula")
					}
				}
				g := s.Stats()
				got := counters{g.Conflicts, g.Decisions, g.Propagations, g.Restarts, g.LearntDeleted}
				if s != loaded {
					got.propagations += atLoad
				}
				if got != tc.want {
					t.Errorf("%s (%d vars, %d clauses, clone: %v): counters %+v, want %+v",
						st, f.NumVars, f.NumClauses(), s != loaded, got, tc.want)
				}
			}
		})
	}
}
