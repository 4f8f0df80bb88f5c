// Benchmarks regenerating the paper's evaluation (one benchmark family
// per table/figure; see EXPERIMENTS.md for the measured results and
// cmd/experiments for the table-formatted harness).
package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/flatten"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/portfolio"
	"repro/internal/sampler"
	"repro/internal/sat"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/internal/weakmem"
	"repro/prog"
)

// simulated selects deterministic makespan simulation of parallel wall
// times when the host lacks enough physical cores for real concurrent
// measurement (see parallel.Simulate).
var simulated = runtime.NumCPU() < 8

// table2Cells are the per-program representative configurations used by
// the benchmark entry points (the full grid lives in
// internal/experiments).
var table2Cells = []struct {
	b    bench.Benchmark
	u, c int
}{
	{bench.BoundedbufferBench(), 2, 6},
	{bench.EliminationstackBench(), 2, 5},
	{bench.SafestackBench(), 2, 6},
	{bench.WorkstealingqueueBench(), 2, 7},
}

// BenchmarkTable1Features measures the front half of the pipeline
// (parse, unfold, flatten, encode) for each benchmark program.
func BenchmarkTable1Features(b *testing.B) {
	for _, cell := range table2Cells {
		b.Run(cell.b.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := core.EncodeProgram(cell.b.Program, core.Options{
					Unwind: cell.u, Contexts: cell.c,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeLoad measures the two steps between the flattened
// program and the solver's first decision, each on its own: vc.Encode
// (bit-blast + Tseitin into a cnf.Formula) and sat.NewFromFormula
// (that formula into the clause arena and watch lists). The cells are
// quick_batch's largest SAFE and UNSAFE formulas, its TSO job, and the
// formula of the proof workloads.
func BenchmarkEncodeLoad(b *testing.B) {
	es := bench.Eliminationstack()
	tso, err := weakmem.TransformTSO(es, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, cell := range []struct {
		name string
		p    *prog.Program
		u, c int
	}{
		{"ss.u8.c3", bench.Safestack(), 8, 3},
		{"ws.u8.c4", bench.Workstealingqueue(), 8, 4},
		{"es.tso1.u3.c3", tso, 3, 3},
		{"es.u2.c6", es, 2, 6},
	} {
		enc, fp, _, err := core.EncodeProgram(cell.p, core.Options{Unwind: cell.u, Contexts: cell.c})
		if err != nil {
			b.Fatal(err)
		}
		f := enc.Formula()
		perSec := func(b *testing.B) {
			b.ReportMetric(float64(f.NumClauses())*float64(b.N)/b.Elapsed().Seconds(), "clauses/s")
		}
		b.Run(cell.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vc.Encode(fp, vc.Options{Contexts: cell.c}); err != nil {
					b.Fatal(err)
				}
			}
			perSec(b)
		})
		b.Run(cell.name+"/load", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s := sat.NewFromFormula(f, sat.Options{}); s.NumVars() != f.NumVars {
					b.Fatalf("loaded %d variables of %d", s.NumVars(), f.NumVars)
				}
			}
			perSec(b)
		})
	}
}

// BenchmarkTable2 measures the partitioned parallel analysis per program
// and core count (paper Table 2). On hosts below 8 physical cores the
// run uses the deterministic makespan simulation, whose benchmark wall
// time is the *total* sequential work over all partitions (so it grows
// with the core count); the simulated k-core wall times and speedups are
// what cmd/experiments reports.
func BenchmarkTable2(b *testing.B) {
	for _, cell := range table2Cells {
		for _, cores := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("%s/u=%d/c=%d/cores=%d", cell.b.Name, cell.u, cell.c, cores)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.Verify(context.Background(), cell.b.Program, core.Options{
						Unwind: cell.u, Contexts: cell.c, Cores: cores,
						SimulateParallel: simulated,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Verdict == core.Unknown {
						b.Fatal("unknown verdict")
					}
				}
			})
		}
	}
}

// benchPortfolio backs BenchmarkTable3 (sharing) and BenchmarkTable4
// (diverse): the same formulae solved by a general-purpose parallel
// portfolio.
func benchPortfolio(b *testing.B, style portfolio.Style) {
	for _, cell := range table2Cells {
		enc, _, _, err := core.EncodeProgram(cell.b.Program, core.Options{
			Unwind: cell.u, Contexts: cell.c,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, cores := range []int{1, 4} {
			name := fmt.Sprintf("%s/u=%d/c=%d/cores=%d", cell.b.Name, cell.u, cell.c, cores)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					popts := portfolio.Options{Cores: cores, Style: style}
					var res *portfolio.Result
					var err error
					if simulated {
						res, err = portfolio.Simulate(context.Background(), enc.Formula(), popts)
					} else {
						res, err = portfolio.Solve(context.Background(), enc.Formula(), popts)
					}
					if err != nil {
						b.Fatal(err)
					}
					if res.Status == sat.Unknown {
						b.Fatal("unknown status")
					}
				}
			})
		}
	}
}

// BenchmarkTable3 is the Syrup stand-in baseline (paper Table 3).
func BenchmarkTable3(b *testing.B) { benchPortfolio(b, portfolio.StyleSharing) }

// BenchmarkTable4 is the Plingeling stand-in baseline (paper Table 4).
func BenchmarkTable4(b *testing.B) { benchPortfolio(b, portfolio.StyleDiverse) }

// BenchmarkFig6Fibonacci measures whole-formula solving against the best
// partitioned sub-formula on the Fibonacci instance of Fig. 6.
func BenchmarkFig6Fibonacci(b *testing.B) {
	enc, _, _, err := core.EncodeProgram(bench.Fibonacci(2), core.Options{Unwind: 2, Contexts: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sat.NewFromFormula(enc.Formula(), sat.Options{})
			if st, err := s.Solve(); err != nil || st != sat.Sat {
				b.Fatalf("status %v err %v", st, err)
			}
		}
	})
	b.Run("partitioned-16", func(b *testing.B) {
		parts, err := partition.Make(enc, 16)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res, err := parallel.Solve(context.Background(), enc.Formula(), parts, parallel.Options{Workers: 8})
			if err != nil || res.Status != sat.Sat {
				b.Fatalf("status %v err %v", res.Status, err)
			}
		}
	})
}

// BenchmarkFig7Distributed measures the simulated-cluster analysis of
// Safestack (paper Fig. 7), one sub-benchmark per cluster size.
func BenchmarkFig7Distributed(b *testing.B) {
	p := bench.Safestack()
	for _, cores := range []int{8, 16} {
		b.Run(fmt.Sprintf("c=5/cores=%d", cores), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := distrib.SimulateCluster(context.Background(), p,
					core.Options{Unwind: 2, Contexts: 5, SimulateParallel: simulated}, cores, 4)
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != core.Safe {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
	}
}

// BenchmarkAblationScheduler compares the context-bounded scheduler with
// the original round-robin one on the bounded buffer.
func BenchmarkAblationScheduler(b *testing.B) {
	p := bench.Boundedbuffer()
	b.Run("context-bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Verify(context.Background(), p, core.Options{
				Unwind: 2, Contexts: 6, Cores: 4, SimulateParallel: simulated,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("round-robin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Verify(context.Background(), p, core.Options{
				Unwind: 2, Rounds: 2, Cores: 4, SimulateParallel: simulated,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDynamic compares static partition assignment
// (partitions == cores) with the dynamic work-queue variant the paper
// proposes as future work (partitions > cores).
func BenchmarkAblationDynamic(b *testing.B) {
	enc, _, _, err := core.EncodeProgram(bench.Eliminationstack(), core.Options{Unwind: 2, Contexts: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, nparts := range []int{4, 16} {
		name := "static-4"
		if nparts > 4 {
			name = fmt.Sprintf("dynamic-%d", nparts)
		}
		b.Run(name, func(b *testing.B) {
			parts, err := partition.Make(enc, nparts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := parallel.Solve(context.Background(), enc.Formula(), parts, parallel.Options{Workers: 4})
				if err != nil || res.Status != sat.Unsat {
					b.Fatalf("status %v err %v", res.Status, err)
				}
			}
		})
	}
}

// BenchmarkAblationFreeze compares frozen-assumption solving against
// re-building the conjoined formula per partition.
func BenchmarkAblationFreeze(b *testing.B) {
	enc, _, _, err := core.EncodeProgram(bench.Workstealingqueue(), core.Options{Unwind: 2, Contexts: 6})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := partition.Make(enc, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("frozen-assumptions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pt := range parts {
				s := sat.NewFromFormula(enc.Formula(), sat.Options{})
				if _, err := s.Solve(pt.Assumptions...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("conjoined-clauses", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pt := range parts {
				f := enc.Formula().Clone()
				for _, a := range pt.Assumptions {
					f.AddUnit(a)
				}
				s := sat.NewFromFormula(f, sat.Options{})
				if _, err := s.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkExperimentsFig6 runs the full Fig. 6 harness (kept cheap so
// the figure can be regenerated under -bench).
func BenchmarkExperimentsFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), io.Discard, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPreprocess measures where the simplifier (the
// prototype's "MiniSat with simplifier") runs: up front, as a
// sat.Simplifier pass before the formula is loaded, against the
// default, inside Solve once the search has paid for it. "Off" is the
// commit before the pass moved into the solver.
func BenchmarkAblationPreprocess(b *testing.B) {
	enc, _, _, err := core.EncodeProgram(bench.Eliminationstack(), core.Options{Unwind: 2, Contexts: 5})
	if err != nil {
		b.Fatal(err)
	}
	f := enc.Formula()
	solve := func(b *testing.B, f *cnf.Formula) {
		if st, err := sat.NewFromFormula(f, sat.Options{}).Solve(); err != nil || st != sat.Unsat {
			b.Fatalf("%v %v", st, err)
		}
	}
	b.Run("upfront", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simplified, st := sat.NewSimplifier().Simplify(f)
			if st == sat.Unknown {
				solve(b, simplified)
			}
		}
	})
	b.Run("insolver", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solve(b, f)
		}
	})
}

// BenchmarkCertification measures the cost of certifying Safe verdicts
// with RUP-checked refutation proofs: on one solver, and partitioned,
// where the run's one checker takes the lemmas of the template's
// simplification pass once (parallel.Template.Check) and then checks
// only what each cube's solver learnt.
func BenchmarkCertification(b *testing.B) {
	for _, tc := range []struct {
		name string
		p    *prog.Program
		opts core.Options
	}{
		{"", bench.Safestack(), core.Options{Unwind: 2, Contexts: 5, Cores: 1}},
		{"partitioned-", bench.Eliminationstack(), core.Options{Unwind: 2, Contexts: 5, Partitions: 8, Cores: 2}},
	} {
		for _, cert := range []bool{false, true} {
			name := tc.name + "plain"
			if cert {
				name = tc.name + "certified"
			}
			b.Run(name, func(b *testing.B) {
				opts := tc.opts
				opts.CertifyUnsat = cert
				for i := 0; i < b.N; i++ {
					res, err := core.Verify(context.Background(), tc.p, opts)
					if err != nil || res.Verdict != core.Safe {
						b.Fatalf("%v %v", res, err)
					}
				}
			})
		}
	}
}

// BenchmarkWeakMemory measures the PSO store-buffer transformation's
// analysis overhead on the store-buffering litmus test.
func BenchmarkWeakMemory(b *testing.B) {
	src := `
int x, y;
int r1, r2;
void t1() { x = 1; r1 = y; }
void t2() { y = 1; r2 = x; }
void main() {
  int a2, b2;
  a2 = create(t1);
  b2 = create(t2);
  join(a2);
  join(b2);
  assert(!(r1 == 0 && r2 == 0));
}
`
	sc := prog.MustParse(src)
	pso, err := weakmem.Transform(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Verify(context.Background(), sc, core.Options{
				Unwind: 2, Contexts: 6, Cores: 1,
			})
			if err != nil || res.Verdict != core.Safe {
				b.Fatalf("%v %v", res, err)
			}
		}
	})
	b.Run("pso", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Verify(context.Background(), pso, core.Options{
				Unwind: 2, Contexts: 6, Cores: 1,
			})
			if err != nil || res.Verdict != core.Unsafe {
				b.Fatalf("%v %v", res, err)
			}
		}
	})
}

// BenchmarkSampler measures randomized schedule sampling throughput on
// the work-stealing queue (executions per benchmark iteration: 10000).
func BenchmarkSampler(b *testing.B) {
	up, err := unfold.Unfold(bench.Workstealingqueue(), unfold.Options{Unwind: 2})
	if err != nil {
		b.Fatal(err)
	}
	fp, err := flatten.Flatten(up)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sampler.Sample(context.Background(), fp, sampler.Options{
			Contexts: 7, MaxExecutions: 10000, Workers: 1, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
