package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// AARow is one end-to-end metric of one workload in the A/A table.
type AARow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// SpreadA and SpreadB are the interquartile distance of each set's
	// runs as a share of its median: the benchmark's own noise floor.
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	// Worse is how much worse set B's median reads than set A's, as a
	// share of A's; negative when B reads better.
	Worse float64 `json:"worse"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
	// ValuesA and ValuesB are the runs themselves, in seed order, which
	// is also time order: a drift of the machine shows here.
	ValuesA []float64 `json:"values_a"`
	ValuesB []float64 `json:"values_b"`
}

// runAA measures the same code twice — two sets of `runs` untraced
// invocations per workload, each invocation with its own seed — the way
// the driver judges the benchmark: within a set, the spread of every
// metric but setup_s must stay inside the metric's bound; between the
// sets, no median may be worse by more than the bound. It then makes
// one traced invocation for each of two seeds and requires every
// deterministic counter to be equal across the seeds and equal to what
// the untraced runs saw.
func runAA(cfg config, only string, seed int64, seconds float64, runs int) error {
	var rows []AARow
	var problems []string
	for _, w := range workloads {
		if only != "" && only != w.Name {
			continue
		}
		det := map[string]map[string]float64{}
		merge := func(where string, rep *Report) {
			problems = append(problems, rep.Problems...)
			for _, job := range sortedKeys(rep.Det) {
				problems = append(problems, mergeDet(det, job, rep.Det[job], w.Name+" "+where)...)
			}
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				s := seed + int64(set*runs+i)
				rep, err := runWorkload(cfg, w, s, seconds, false)
				if err != nil {
					return err
				}
				merge(fmt.Sprintf("seed %d", s), rep)
				for _, m := range endToEnd {
					sets[set][m.Name] = append(sets[set][m.Name], rep.EndToEnd[m.Name].Value)
				}
				v := rep.EndToEnd["verdict_s"]
				fmt.Fprintf(os.Stderr, "aa: %s set %c run %d/%d done: verdict_s %.4f measured, x %.4f = %.4f\n",
					w.Name, 'A'+set, i+1, runs, v.Median, rep.Calib.Factor, v.Value)
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			row := AARow{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b),
				ValuesA: a, ValuesB: b,
			}
			row.Worse = (row.MedianB - row.MedianA) / row.MedianA
			if m.Better == "higher" {
				row.Worse = -row.Worse
			}
			row.OK = row.Worse <= m.Bound && (m.Name == "setup_s" || (row.SpreadA <= m.Bound && row.SpreadB <= m.Bound))
			rows = append(rows, row)
		}
		for _, s := range []int64{seed, seed + 1} {
			rep, err := runWorkload(cfg, w, s, seconds, true)
			if err != nil {
				return err
			}
			merge(fmt.Sprintf("traced seed %d", s), rep)
		}
	}

	tw := tabwriter.NewWriter(os.Stderr, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tunit\tspread A\tspread B\tB worse by\tbound\t")
	bad := 0
	for _, r := range rows {
		mark := ""
		if !r.OK {
			mark = "OUTSIDE"
			bad++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.2f%%\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, r.Unit, 100*r.SpreadA, 100*r.SpreadB, 100*r.Worse, 100*r.Bound, mark)
	}
	tw.Flush()
	if len(problems) == 0 {
		fmt.Fprintln(os.Stderr, "deterministic counters: equal in every pass, traced or not, under every seed")
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "PROBLEM:", p)
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"seed": seed, "runs_per_set": runs, "rows": rows, "problems": problems}); err != nil {
		return err
	}
	if bad > 0 || len(problems) > 0 {
		return fmt.Errorf("A/A: %d metrics outside their bound, %d problems", bad, len(problems))
	}
	return nil
}
