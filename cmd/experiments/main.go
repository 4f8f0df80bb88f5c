// Command experiments regenerates the paper's evaluation (Sect. 4):
// Table 1 (benchmark characteristics), Table 2 (scalability of the
// partitioned analysis), Tables 3 and 4 (general-purpose parallel solver
// baselines), Figure 6 (decision-graph statistics), Figure 7
// (distributed analysis of Safestack), plus the ablation studies
// motivated by Sect. 3.3 and the future-work discussion of Sect. 6.
//
//	experiments                  # everything, laptop scale
//	experiments -only table2     # a single table/figure
//	experiments -full            # include the most expensive cells
//	experiments -cores 1,2,4     # override the parallelism column
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/portfolio"
)

func main() {
	var (
		only  = flag.String("only", "", "run one experiment: table1|table2|table3|table4|fig6|fig7|certify|ablations")
		full  = flag.Bool("full", false, "include the most expensive configurations")
		cores = flag.String("cores", "1,2,4,8", "comma-separated core counts")
		dot   = flag.String("dot", "", "directory for Graphviz decision graphs (fig6)")
		bench = flag.String("bench-out", "", "write Table 2 measurements as a BENCH_<date>.json perf-trajectory file")

		compare   = flag.Bool("compare", false, "compare committed BENCH_*.json trajectory files instead of running experiments")
		benchDir  = flag.String("bench-dir", ".", "directory holding BENCH_*.json files (-compare)")
		candidate = flag.String("candidate", "", "compare this bench file against the latest committed one instead of the last two (-compare)")
		gate      = flag.Float64("gate", 1.25, "regression gate: fail when head wall time exceeds base by this factor (-compare; 0 disables)")
		minBase   = flag.Int64("min-base-ms", 250, "noise floor: cells with base wall time under this are not wall-gated (-compare)")
	)
	flag.Parse()

	if *compare {
		os.Exit(compareMain(*benchDir, *candidate, *gate, *minBase))
	}

	cfg := experiments.DefaultConfig()
	cfg.Full = *full
	cfg.Cores = nil
	for _, tok := range strings.Split(*cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "experiments: bad core count %q\n", tok)
			os.Exit(2)
		}
		cfg.Cores = append(cfg.Cores, n)
	}

	ctx := context.Background()
	w := os.Stdout
	run := func(name string) bool { return *only == "" || *only == name }

	var table2 []experiments.Table2Row
	var err error

	if run("table1") {
		experiments.Table1(w)
		fmt.Fprintln(w)
	}
	if run("table2") || run("table3") || run("table4") {
		table2, err = experiments.Table2(ctx, w, cfg)
		check(err)
		check(experiments.VerdictsConsistent(table2))
		fmt.Fprintln(w)
		if *bench != "" {
			check(experiments.WriteBench(*bench, table2))
			fmt.Fprintf(w, "bench file written to %s\n\n", *bench)
		}
	}
	if run("table3") {
		_, err = experiments.Table34(ctx, w, cfg, portfolio.StyleSharing, table2)
		check(err)
		fmt.Fprintln(w)
	}
	if run("table4") {
		_, err = experiments.Table34(ctx, w, cfg, portfolio.StyleDiverse, table2)
		check(err)
		fmt.Fprintln(w)
	}
	if run("fig6") {
		_, err = experiments.Fig6(ctx, w, *dot)
		check(err)
		fmt.Fprintln(w)
	}
	if run("fig7") {
		_, err = experiments.Fig7(ctx, w, cfg)
		check(err)
		fmt.Fprintln(w)
	}
	if run("certify") {
		check(experiments.CertifyOverhead(ctx, w))
		fmt.Fprintln(w)
	}
	if run("ablations") {
		check(experiments.AblationScheduler(ctx, w))
		check(experiments.AblationPartitions(ctx, w))
		check(experiments.AblationFreeze(ctx, w))
		check(experiments.AblationPreprocess(ctx, w))
		check(experiments.AblationWidth(ctx, w))
		check(experiments.ExtensionSampling(ctx, w))
	}
}

// compareMain runs the bench-trajectory comparator: load every
// committed BENCH_*.json (plus an optional uncommitted -candidate as
// head), diff the last two, and fail the gate on regressions. Exit
// codes: 0 clean, 1 gate violation, 2 usage/IO error.
func compareMain(dir, candidate string, gate float64, minBaseMillis int64) int {
	files, err := experiments.LoadBenchDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}
	if candidate != "" {
		nb, err := experiments.LoadBenchFile(candidate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 2
		}
		files = append(files, nb)
	}
	if len(files) < 2 {
		fmt.Fprintf(os.Stderr, "experiments: -compare needs at least two bench files (found %d in %s); run `make bench` to record one\n", len(files), dir)
		return 2
	}
	base, head := files[len(files)-2], files[len(files)-1]
	deltas := experiments.CompareBench(base, head, gate, minBaseMillis)
	experiments.WriteCompare(os.Stdout, files, deltas, gate, minBaseMillis)
	if experiments.Regressions(deltas) > 0 {
		return 1
	}
	return 0
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
