package sat

import (
	"testing"

	"repro/internal/bench"
)

// BenchmarkLoadFormula times NewFromFormula alone on the largest
// formula-per-conflict of the repo benchmark's quick_batch workload
// (safestack u=8 c=3: almost pure encode + load).
func BenchmarkLoadFormula(b *testing.B) {
	f := encodeBench(b, bench.Safestack(), 8, 3)
	b.ReportAllocs()
	b.ResetTimer()
	var s *Solver
	for i := 0; i < b.N; i++ {
		s = NewFromFormula(f, Options{})
	}
	b.ReportMetric(float64(f.NumClauses())*float64(b.N)/b.Elapsed().Seconds(), "clauses/s")
	if s.NumVars() != f.NumVars {
		b.Fatalf("loaded %d variables, want %d", s.NumVars(), f.NumVars)
	}
}

// BenchmarkCloneVsLoad sets the two ways to one more solver of a
// formula side by side, on BenchmarkLoadFormula's formula: loading it
// again, and cloning a solver that has it — as loaded, and as the
// partition runner's template has it, simplified.
func BenchmarkCloneVsLoad(b *testing.B) {
	f := encodeBench(b, bench.Safestack(), 8, 3)
	var s *Solver
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s = NewFromFormula(f, Options{})
		}
	})
	loaded := NewFromFormula(f, Options{})
	simplified := NewFromFormula(f, Options{})
	if !simplified.Simplify() || simplified.Stats().ElimVars == 0 {
		b.Fatalf("the pass eliminated %d variables", simplified.Stats().ElimVars)
	}
	for _, tc := range []struct {
		name string
		from *Solver
	}{{"clone-loaded", loaded}, {"clone-simplified", simplified}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s = tc.from.Clone()
			}
			b.ReportMetric(float64(s.LiveBytes()), "live-bytes")
		})
	}
	if s.NumVars() != f.NumVars {
		b.Fatalf("%d variables, want %d", s.NumVars(), f.NumVars)
	}
}

// BenchmarkSolveEncoded times the search alone on a real encoded
// refutation (eliminationstack u=2 c=5) and reports the solver's rates.
func BenchmarkSolveEncoded(b *testing.B) {
	f := encodeBench(b, bench.Eliminationstack(), 2, 5)
	var props, conflicts int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewFromFormula(f, Options{})
		b.StartTimer()
		st, err := s.Solve()
		if err != nil || st != Unsat {
			b.Fatalf("got %v, %v; want UNSAT", st, err)
		}
		props += s.Stats().Propagations
		conflicts += s.Stats().Conflicts
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(props)/secs, "props/s")
	b.ReportMetric(float64(conflicts)/secs, "conflicts/s")
}

// BenchmarkCheckRUP times the check of one real refutation, partition 0
// of 16 of eliminationstack u=2 c=5 — a sixteenth of what the repo
// benchmark's distrib_loopback coordinator certifies — on a checker
// built for the proof (what CheckRUP does) and on one kept warm.
func BenchmarkCheckRUP(b *testing.B) {
	enc := encodeBenchCell(b, bench.Eliminationstack(), 2, 5)
	f := enc.Formula()
	parts := encodedCubes(b, enc, 16)
	assumptions := parts[0].Assumptions
	s := newLogging(f, Options{})
	if st, err := s.Solve(assumptions...); err != nil || st != Unsat {
		b.Fatalf("got %v, %v; want UNSAT", st, err)
	}
	proof := s.ProofLog()
	run := func(b *testing.B, checker func() *ProofChecker) {
		var work ProofCheckerStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := checker()
			before := c.Stats()
			if err := c.Check(assumptions, proof); err != nil {
				b.Fatal(err)
			}
			work.Add(c.Stats().Since(before))
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(work.Lemmas)/secs, "lemmas/s")
		b.ReportMetric(float64(work.ChainClauses)/secs, "chain-clauses/s")
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func() *ProofChecker { return NewProofChecker(f) })
	})
	b.Run("reused", func(b *testing.B) {
		warm := NewProofChecker(f)
		run(b, func() *ProofChecker { return warm })
	})
}
