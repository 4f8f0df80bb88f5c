// Package experiments regenerates every table and figure of the paper's
// evaluation section (Sect. 4) at laptop scale. Absolute times are not
// comparable with the paper's testbed; the reproduced quantities are the
// structural claims: speedup versus cores, growth of the partitioning
// advantage with the bounds, partitioned analysis beating
// general-purpose portfolio solvers on the same formulae, and improved
// scalability under distribution.
package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/flatten"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/portfolio"
	"repro/internal/sampler"
	"repro/internal/sat"
	"repro/internal/unfold"
	"repro/prog"
)

// Config scales the experiments.
type Config struct {
	// Cores are the parallelism degrees benchmarked (Table 2-4 columns).
	Cores []int
	// Full enables the most expensive configurations.
	Full bool
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Cores: []int{1, 2, 4, 8}}
}

// Cell is one (program, unwind, contexts) configuration of Table 2.
type Cell struct {
	Bench bench.Benchmark
	U, C  int
	// Reach marks configurations with a reachable bug (the ● column).
	Reach bool
}

// Grid returns the Table 2 configuration grid (scaled from the paper's:
// same programs, same mixed SAT/UNSAT profile, bounds reduced so each
// cell runs in seconds).
func Grid(full bool) []Cell {
	bb := bench.BoundedbufferBench()
	es := bench.EliminationstackBench()
	ss := bench.SafestackBench()
	ws := bench.WorkstealingqueueBench()
	cells := []Cell{
		{bb, 2, 5, false},
		{bb, 2, 6, true},
		{bb, 3, 5, false},
		{bb, 3, 6, true},
		{es, 2, 4, false},
		{es, 2, 5, false},
		{es, 2, 6, false},
		{ss, 2, 4, false},
		{ss, 2, 5, false},
		{ss, 2, 6, false},
		{ws, 2, 5, false},
		{ws, 2, 6, false},
		{ws, 2, 7, true},
	}
	if full {
		cells = append(cells,
			Cell{es, 2, 7, false},
			Cell{ss, 2, 7, false},
		)
	}
	return cells
}

// Table2Row is one measured row of Table 2.
type Table2Row struct {
	Cell
	Vars, Clauses int
	Times         map[int]time.Duration // cores -> wall time
	Verdicts      map[int]core.Verdict
}

// Speedup returns times[1] / times[cores].
func (r *Table2Row) Speedup(cores int) float64 {
	base := r.Times[1]
	t := r.Times[cores]
	if t <= 0 {
		return 0
	}
	return float64(base) / float64(t)
}

// Table2 measures the scalability of the partitioned analysis
// (Sect. 4.1) over the configured core counts. Parallel times are the
// deterministic makespan simulation, the protocol the paper used for its
// 128-core cluster: it keeps the speedup structure on a single-core host.
func Table2(ctx context.Context, w io.Writer, cfg Config) ([]Table2Row, error) {
	var rows []Table2Row
	fmt.Fprintf(w, "Table 2: scalability of symbolic interleaving partitioning\n")
	fmt.Fprintf(w, "%-18s %2s %2s %-5s %9s %9s", "program", "u", "c", "reach", "vars", "clauses")
	for _, c := range cfg.Cores {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("t%d(s)", c))
	}
	for _, c := range cfg.Cores[1:] {
		fmt.Fprintf(w, " %6s", fmt.Sprintf("s%d", c))
	}
	fmt.Fprintln(w)
	for _, cell := range Grid(cfg.Full) {
		row := Table2Row{
			Cell:     cell,
			Times:    map[int]time.Duration{},
			Verdicts: map[int]core.Verdict{},
		}
		for _, cores := range cfg.Cores {
			res, err := core.Verify(ctx, cell.Bench.Program, core.Options{
				Unwind: cell.U, Contexts: cell.C, Cores: cores,
				SimulateParallel: true,
			})
			if err != nil {
				return nil, fmt.Errorf("table2 %s u=%d c=%d cores=%d: %w",
					cell.Bench.Name, cell.U, cell.C, cores, err)
			}
			row.Vars, row.Clauses = res.Vars, res.Clauses
			row.Times[cores] = res.SolveTime
			row.Verdicts[cores] = res.Verdict
		}
		rows = append(rows, row)
		printTable2Row(w, cfg, &row)
	}
	return rows, nil
}

func printTable2Row(w io.Writer, cfg Config, r *Table2Row) {
	reach := ""
	if r.Reach {
		reach = "  ●"
	}
	fmt.Fprintf(w, "%-18s %2d %2d %-5s %9d %9d", r.Bench.Name, r.U, r.C, reach, r.Vars, r.Clauses)
	for _, c := range cfg.Cores {
		fmt.Fprintf(w, " %9.3f", r.Times[c].Seconds())
	}
	for _, c := range cfg.Cores[1:] {
		fmt.Fprintf(w, " %6.2f", r.Speedup(c))
	}
	fmt.Fprintln(w)
}

// Table34Row is one measured row of Table 3 (sharing portfolio, Syrup
// stand-in) or Table 4 (diversified portfolio, Plingeling stand-in).
type Table34Row struct {
	Cell
	Times map[int]time.Duration
	// Ratio is portfolio time over partitioned time per core count
	// (the paper's Performance Ratio column).
	Ratio map[int]float64
}

// Table34 solves the same formulae with a general-purpose parallel
// portfolio (Sect. 4.2) and compares against the partitioned times.
func Table34(ctx context.Context, w io.Writer, cfg Config, style portfolio.Style, partitioned []Table2Row) ([]Table34Row, error) {
	name := "Table 3: parallel solver Syrup stand-in (clause-sharing portfolio)"
	if style == portfolio.StyleDiverse {
		name = "Table 4: parallel solver Plingeling stand-in (diversified portfolio)"
	}
	fmt.Fprintln(w, name)
	fmt.Fprintf(w, "%-18s %2s %2s %-5s", "program", "u", "c", "reach")
	for _, c := range cfg.Cores {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("t%d(s)", c))
	}
	for _, c := range cfg.Cores {
		fmt.Fprintf(w, " %6s", fmt.Sprintf("r%d", c))
	}
	fmt.Fprintln(w)

	var rows []Table34Row
	for i, cell := range Grid(cfg.Full) {
		enc, _, _, err := core.EncodeProgram(cell.Bench.Program, core.Options{
			Unwind: cell.U, Contexts: cell.C,
		})
		if err != nil {
			return nil, err
		}
		row := Table34Row{Cell: cell, Times: map[int]time.Duration{}, Ratio: map[int]float64{}}
		for _, cores := range cfg.Cores {
			res, err := portfolio.Simulate(ctx, enc.Formula(), portfolio.Options{Cores: cores, Style: style})
			if err != nil {
				return nil, err
			}
			row.Times[cores] = res.Wall
			if i < len(partitioned) {
				if pt := partitioned[i].Times[cores]; pt > 0 {
					row.Ratio[cores] = float64(row.Times[cores]) / float64(pt)
				}
			}
		}
		rows = append(rows, row)
		reach := ""
		if cell.Reach {
			reach = "  ●"
		}
		fmt.Fprintf(w, "%-18s %2d %2d %-5s", cell.Bench.Name, cell.U, cell.C, reach)
		for _, c := range cfg.Cores {
			fmt.Fprintf(w, " %9.3f", row.Times[c].Seconds())
		}
		for _, c := range cfg.Cores {
			fmt.Fprintf(w, " %6.2f", row.Ratio[c])
		}
		fmt.Fprintln(w)
	}
	return rows, nil
}

// Fig6Stats holds the decision-graph statistics of Fig. 6.
type Fig6Stats struct {
	WholeDecisions, WholeMaxDepth, WholeBackjumps int64
	BestDecisions, BestMaxDepth, BestBackjumps    int64
	Partitions                                    int
	Vars, Clauses                                 int
}

// Fig6 compares the solver's decision graph on the whole Fibonacci
// formula against the fastest of 16 partitioned sub-formulae (paper
// Fig. 6: 268→89 decisions, depth 57→28, backjumps 78→26 on their
// instance; the reproduced quantity is the several-fold reduction).
// When dotDir is non-empty, the two decision graphs are written there in
// Graphviz DOT format (fig6-whole.dot, fig6-best-partition.dot),
// reproducing the figure itself.
func Fig6(ctx context.Context, w io.Writer, dotDir string) (*Fig6Stats, error) {
	p := bench.Fibonacci(2)
	enc, _, _, err := core.EncodeProgram(p, core.Options{Unwind: 2, Contexts: 6})
	if err != nil {
		return nil, err
	}
	out := &Fig6Stats{Partitions: 16, Vars: enc.Formula().NumVars, Clauses: enc.Formula().NumClauses()}

	whole := sat.NewFromFormula(enc.Formula(), sat.Options{})
	wholeGraph := whole.EnableGraph(0)
	st, err := whole.Solve()
	if err != nil {
		return nil, err
	}
	if st != sat.Sat {
		return nil, fmt.Errorf("fig6: whole formula unexpectedly %v", st)
	}
	ws := whole.Stats()
	out.WholeDecisions, out.WholeMaxDepth, out.WholeBackjumps = ws.Decisions, int64(ws.MaxDepth), ws.Backjumps

	parts, err := partition.Make(enc, 16)
	if err != nil {
		return nil, err
	}
	best := sat.Stats{}
	var bestGraph *sat.DecisionGraph
	bestTime := time.Duration(-1)
	for _, pt := range parts {
		s := sat.NewFromFormula(enc.Formula(), sat.Options{})
		g := s.EnableGraph(0)
		t0 := time.Now()
		st, err := s.Solve(pt.Assumptions...)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		if st == sat.Sat && (bestTime < 0 || el < bestTime) {
			bestTime = el
			best = s.Stats()
			bestGraph = g
		}
	}
	if bestTime < 0 {
		return nil, fmt.Errorf("fig6: no partition satisfiable")
	}
	out.BestDecisions, out.BestMaxDepth, out.BestBackjumps = best.Decisions, int64(best.MaxDepth), best.Backjumps

	if dotDir != "" {
		if err := writeDOT(dotDir, "fig6-whole.dot", wholeGraph, "whole formula"); err != nil {
			return nil, err
		}
		if err := writeDOT(dotDir, "fig6-best-partition.dot", bestGraph, "best of 16 partitions"); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "decision graphs written to %s/fig6-*.dot\n", dotDir)
	}

	fmt.Fprintf(w, "Figure 6: decision graphs on Fibonacci (u=2, c=6), %d vars, %d clauses\n", out.Vars, out.Clauses)
	fmt.Fprintf(w, "  whole formula:    decisions=%d maxdepth=%d backjumps=%d\n",
		out.WholeDecisions, out.WholeMaxDepth, out.WholeBackjumps)
	fmt.Fprintf(w, "  best of 16 parts: decisions=%d maxdepth=%d backjumps=%d\n",
		out.BestDecisions, out.BestMaxDepth, out.BestBackjumps)
	return out, nil
}

func writeDOT(dir, name string, g *sat.DecisionGraph, title string) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return g.WriteDOT(f, title)
}

// Fig7Point is one data point of Fig. 7: distributed analysis of
// Safestack, wall time = max chunk time over the simulated cluster.
type Fig7Point struct {
	Contexts int
	Cores    int
	Time     time.Duration
	Verdict  core.Verdict
}

// Fig7 reproduces the distributed analysis of Safestack (Sect. 4.1):
// partitions split into machine-sized chunks, one run per chunk, wall
// time = slowest chunk. Contexts and core counts are scaled down.
func Fig7(ctx context.Context, w io.Writer, cfg Config) ([]Fig7Point, error) {
	p := bench.Safestack()
	contexts := []int{4, 5, 6}
	coreCounts := []int{4, 8, 16, 32}
	machineCores := 4
	if cfg.Full {
		contexts = append(contexts, 7)
		coreCounts = append(coreCounts, 64)
	}
	fmt.Fprintln(w, "Figure 7: distributed analysis of Safestack (simulated cluster, 4-core machines)")
	fmt.Fprintf(w, "%9s", "cores")
	for _, c := range contexts {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("u=2,c=%d (s)", c))
	}
	fmt.Fprintln(w)
	var points []Fig7Point
	for _, cores := range coreCounts {
		fmt.Fprintf(w, "%9d", cores)
		for _, c := range contexts {
			// The partition count is capped by the encoding's 2^(contexts-1)
			// symbolic scheduler variables; extra cores beyond that stay idle
			// (visible in Fig. 7 as flat curves for small context bounds).
			res, err := distrib.SimulateCluster(ctx, p,
				core.Options{Unwind: 2, Contexts: c, SimulateParallel: true}, cores, machineCores)
			if err != nil {
				return nil, err
			}
			points = append(points, Fig7Point{Contexts: c, Cores: cores, Time: res.MaxChunkTime, Verdict: res.Verdict})
			fmt.Fprintf(w, " %12.3f", res.MaxChunkTime.Seconds())
		}
		fmt.Fprintln(w)
	}
	return points, nil
}

// Table1 prints the benchmark characteristics (paper Table 1). The
// SV-COMP 2019 outcome columns are quoted literature data, recorded in
// EXPERIMENTS.md rather than re-measured (running 16 third-party tools
// is outside the scope of this reproduction).
func Table1(w io.Writer) []bench.Benchmark {
	all := bench.All()
	fmt.Fprintln(w, "Table 1: benchmark programs (re-modelled)")
	fmt.Fprintf(w, "%-18s %6s %8s %10s %12s\n", "program", "lines", "threads", "bug-unwind", "bug-contexts")
	for _, b := range all {
		contexts := "-" // not established
		if b.BugContexts > 0 {
			contexts = fmt.Sprint(b.BugContexts)
		}
		fmt.Fprintf(w, "%-18s %6d %8d %10d %12s\n", b.Name, b.Lines, b.Threads, b.BugUnwind, contexts)
	}
	return all
}

// AblationScheduler compares the paper's context-bounded scheduler with
// the original round-robin one (Sect. 3.3 changes / Sect. 6 discussion).
// Context bounding exposes the bounded-buffer bug with 6 execution
// contexts and yields symbolic tid variables to partition on; the fixed
// round-robin order needs 3 full rounds (12 contexts) for the same bug
// because the producer's delayed insert and main's final joins must fall
// in different rounds, and it offers no scheduling variables to split
// the search space.
func AblationScheduler(ctx context.Context, w io.Writer) error {
	p := bench.Boundedbuffer()
	fmt.Fprintln(w, "Ablation: context-bounded vs round-robin sequentialization (boundedbuffer, u=2)")
	for _, cores := range []int{1, 4} {
		cb, err := core.Verify(ctx, p, core.Options{Unwind: 2, Contexts: 6, Cores: cores, SimulateParallel: true})
		if err != nil {
			return err
		}
		rr2, err := core.Verify(ctx, p, core.Options{Unwind: 2, Rounds: 2, Cores: cores, SimulateParallel: true})
		if err != nil {
			return err
		}
		rr3, err := core.Verify(ctx, p, core.Options{Unwind: 2, Rounds: 3, Cores: cores, SimulateParallel: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  cores=%d  context-bounded c=6: %v in %.3fs (partitionable)   round-robin r=2: %v in %.3fs   r=3: %v in %.3fs (no tid variables)\n",
			cores, cb.Verdict, cb.SolveTime.Seconds(),
			rr2.Verdict, rr2.SolveTime.Seconds(),
			rr3.Verdict, rr3.SolveTime.Seconds())
	}
	return nil
}

// AblationPartitions explores over-partitioning: more partitions than
// cores, handed to the worker pool as they free up — the dynamic
// assignment variant the paper proposes as future work (Sect. 6).
func AblationPartitions(ctx context.Context, w io.Writer) error {
	b := bench.EliminationstackBench()
	enc, _, _, err := core.EncodeProgram(b.Program, core.Options{Unwind: 2, Contexts: 5})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: static vs dynamic partition assignment (eliminationstack, u=2, c=5, 4 cores)")
	for _, nparts := range []int{4, 8, 16} {
		parts, err := partition.Make(enc, nparts)
		if err != nil {
			return err
		}
		res, err := parallel.Simulate(ctx, enc.Formula(), parts, parallel.Options{Workers: 4})
		if err != nil {
			return err
		}
		mode := "static (parts == cores)"
		if nparts > 4 {
			mode = "dynamic (work queue)"
		}
		fmt.Fprintf(w, "  partitions=%2d  %v in %8.3fs  [%s]\n",
			nparts, res.Status, res.Wall.Seconds(), mode)
	}
	return nil
}

// AblationFreeze measures the effect of the paper's solver change
// (assumptions as frozen unit clauses with forced propagation,
// Sect. 3.3) against plain solving of the syntactically conjoined
// formula (appending the assumptions as clauses to a fresh formula,
// without freezing-aware setup).
func AblationFreeze(ctx context.Context, w io.Writer) error {
	b := bench.SafestackBench()
	enc, _, _, err := core.EncodeProgram(b.Program, core.Options{Unwind: 2, Contexts: 6})
	if err != nil {
		return err
	}
	parts, err := partition.Make(enc, 8)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: assumption handling (safestack, u=2, c=6, 8 partitions, sequential)")
	// Frozen-assumption interface.
	start := time.Now()
	for _, pt := range parts {
		s := sat.NewFromFormula(enc.Formula(), sat.Options{})
		if _, err := s.Solve(pt.Assumptions...); err != nil {
			return err
		}
	}
	frozen := time.Since(start)
	// Conjoined-clause variant.
	start = time.Now()
	for _, pt := range parts {
		f := enc.Formula().Clone()
		for _, a := range pt.Assumptions {
			f.AddUnit(a)
		}
		s := sat.NewFromFormula(f, sat.Options{})
		if _, err := s.Solve(); err != nil {
			return err
		}
	}
	conjoined := time.Since(start)
	fmt.Fprintf(w, "  frozen unit assumptions: %8.3fs   conjoined unit clauses: %8.3fs\n",
		frozen.Seconds(), conjoined.Seconds())
	return nil
}

// AblationPreprocess measures where the simplifier of the paper's
// solver configuration ("MiniSat 2.2.1 with simplifier", Sect. 3.4)
// runs: up front, as a sat.Simplifier pass before the formula is
// loaded, against the default, inside Solve once the search has paid
// for it. There is no run without it: that is the commit before the
// pass moved into the solver.
func AblationPreprocess(ctx context.Context, w io.Writer) error {
	b := bench.EliminationstackBench()
	enc, _, _, err := core.EncodeProgram(b.Program, core.Options{Unwind: 2, Contexts: 5})
	if err != nil {
		return err
	}
	f := enc.Formula()
	fmt.Fprintln(w, "Ablation: simplifier up front vs inside the solver (eliminationstack, u=2, c=5, sequential)")

	start := time.Now()
	simplified, st := sat.NewSimplifier().Simplify(f)
	simplify := time.Since(start)
	s := sat.NewFromFormula(simplified, sat.Options{})
	start = time.Now()
	if st == sat.Unknown {
		if st, err = s.Solve(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "  up front   %v  clauses=%d->%d  simplify=%8.3fs  solve=%8.3fs  conflicts=%d\n",
		st, f.NumClauses(), simplified.NumClauses(), simplify.Seconds(), time.Since(start).Seconds(), s.Stats().Conflicts)

	s = sat.NewFromFormula(f, sat.Options{})
	start = time.Now()
	if st, err = s.Solve(); err != nil {
		return err
	}
	stats := s.Stats()
	fmt.Fprintf(w, "  in solver  %v  clauses=%d (%d removed, %d variables eliminated)  solve=%8.3fs  conflicts=%d\n",
		st, f.NumClauses(), stats.Simplified, stats.ElimVars, time.Since(start).Seconds(), stats.Conflicts)
	return nil
}

// AblationWidth measures the effect of the bit-blasting width on
// formula size and solving time (the paper's CBMC bit-blasts at the
// target architecture's width; the benchmarks here need only small
// counters, so narrower words are sound and much cheaper).
func AblationWidth(ctx context.Context, w io.Writer) error {
	b := bench.WorkstealingqueueBench()
	fmt.Fprintln(w, "Ablation: bit-blasting width (workstealingqueue, u=2, c=7, sequential)")
	for _, width := range []int{8, 12, 16} {
		res, err := core.Verify(ctx, b.Program, core.Options{
			Unwind: 2, Contexts: 7, Cores: 1, Width: width,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  width=%2d  %v  vars=%d clauses=%d  solve=%8.3fs\n",
			width, res.Verdict, res.Vars, res.Clauses, res.SolveTime.Seconds())
	}
	return nil
}

// ExtensionSampling contrasts randomized schedule sampling (the
// orthogonal parallel bug-finding line of Sect. 5) with partitioned BMC:
// sampling can stumble on shallow bugs quickly but cannot prove safety,
// while the partitioned analysis both finds the bug and certifies
// bounded safety.
func ExtensionSampling(ctx context.Context, w io.Writer) error {
	fmt.Fprintln(w, "Extension: randomized schedule sampling vs partitioned BMC")
	cases := []struct {
		name     string
		program  *prog.Program
		unwind   int
		contexts int
	}{
		{"fibonacci (shallow bug at c=4)", bench.Fibonacci(1), 1, 4},
		{"workstealingqueue (narrow race at c=7)", bench.Workstealingqueue(), 2, 7},
		{"safestack (safe at c=5)", bench.Safestack(), 2, 5},
	}
	for _, cs := range cases {
		up, err := unfold.Unfold(cs.program, unfold.Options{Unwind: cs.unwind})
		if err != nil {
			return err
		}
		fp, err := flatten.Flatten(up)
		if err != nil {
			return err
		}
		sres, err := sampler.Sample(ctx, fp, sampler.Options{
			Contexts: cs.contexts, MaxExecutions: 200000, Workers: 4, Seed: 42,
		})
		if err != nil {
			return err
		}
		bres, err := core.Verify(ctx, cs.program, core.Options{
			Unwind: cs.unwind, Contexts: cs.contexts, Cores: 4, SimulateParallel: true,
		})
		if err != nil {
			return err
		}
		sOut := fmt.Sprintf("no bug in %d executions (no guarantee)", sres.Executions)
		if sres.Violation != nil {
			sOut = fmt.Sprintf("bug after %d executions (%.3fs)", sres.Executions, sres.Wall.Seconds())
		}
		fmt.Fprintf(w, "  %-40s sampling: %-45s partitioned BMC: %v in %.3fs (exhaustive)\n",
			cs.name, sOut, bres.Verdict, bres.SolveTime.Seconds())
	}
	return nil
}

// CertifyOverhead measures what end-to-end verdict certification costs a
// distributed run: the same analysis over an in-process loopback cluster
// with certificates off and fully on, comparing coordinator-side verify
// time against remote solve time. The claim under test is that the
// trust-but-verify layer is cheap relative to the search it certifies
// (checking a RUP proof replays only unit propagation; checking a model
// is one linear formula evaluation).
func CertifyOverhead(ctx context.Context, w io.Writer) error {
	b := bench.BoundedbufferBench()
	fmt.Fprintln(w, "Certification overhead: distributed analysis of boundedbuffer (u=2, c=5, 8 partitions, loopback cluster)")
	for _, mode := range []string{distrib.CertifyOff, distrib.CertifyFull} {
		policy, err := distrib.ParseCertifyPolicy(mode)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = distrib.Work(ctx, ln.Addr().String(), distrib.WorkerOptions{Name: "bench", Cores: 2})
		}()
		res, err := distrib.Coordinate(ctx, ln, b.Program, distrib.CoordinatorOptions{
			Unwind: 2, Contexts: 5, Width: 8,
			Partitions: 8, ChunkSize: 2,
			HeartbeatInterval: -1,
			Certify:           policy,
		})
		wg.Wait()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  certify=%-4s  %v  solve=%8.3fs  verify=%8.3fs  certified=%d verdicts\n",
			mode, res.Verdict,
			float64(res.SolveMillis)/1000, float64(res.CertifyMillis)/1000, res.Certified)
	}
	return nil
}

// VerdictsConsistent checks that every Table 2 row produced the same
// verdict at every core count and that it matches the expected
// reachability; used by tests and the harness.
func VerdictsConsistent(rows []Table2Row) error {
	for _, r := range rows {
		want := core.Safe
		if r.Reach {
			want = core.Unsafe
		}
		for cores, v := range r.Verdicts {
			if v != want {
				return fmt.Errorf("%s u=%d c=%d cores=%d: verdict %v, want %v",
					r.Bench.Name, r.U, r.C, cores, v, want)
			}
		}
	}
	return nil
}
