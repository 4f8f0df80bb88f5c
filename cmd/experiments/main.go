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
	)
	flag.Parse()

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

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
