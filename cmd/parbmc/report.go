package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// reportMain implements `parbmc report <run.report.json> [spans.jsonl …]`:
// load a run report written with -report, merge in any extra per-process
// span files (worker -trace-out output), and print the human-readable
// summary — partition imbalance table, merged span tree shape, slowest
// spans.
func reportMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: parbmc report <run.report.json> [spans.jsonl ...]")
		return 2
	}
	rep, err := report.Load(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "parbmc report:", err)
		return 2
	}
	var extra [][]obs.Event
	for _, path := range args[1:] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "parbmc report:", err)
			return 2
		}
		events, perr := obs.ParseJSONL(f)
		f.Close()
		if perr != nil {
			fmt.Fprintf(stderr, "parbmc report: %s: %v\n", path, perr)
			return 2
		}
		extra = append(extra, events)
	}
	report.Render(stdout, rep, extra...)
	return 0
}

// recordRows files a local run's template and its partitions' rows. A
// local run certifies all of its UNSAT partitions or none.
func recordRows(rec *report.Recorder, res *core.Result) {
	if res.Template.Time > 0 {
		rec.SetTemplate(report.TemplateRowOf(res.Template))
	}
	for _, inst := range res.Instances {
		row := report.PartitionRowOf(inst)
		row.Certified = res.Certified
		rec.Merge(row)
	}
}
