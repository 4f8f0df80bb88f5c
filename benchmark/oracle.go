package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// OracleRow is one hand-written expectation. Source says where the
// verdict comes from; it is never a run of the pipeline under test.
type OracleRow struct {
	Job     string `json:"job"`
	Verdict string `json:"verdict"`
	Source  string `json:"source"`
}

type Oracle map[string]OracleRow

// loadOracle reads expected.json and refuses it unless every job of
// every workload has a row.
func loadOracle(srcDir string) (Oracle, error) {
	data, err := os.ReadFile(filepath.Join(srcDir, "expected.json"))
	if err != nil {
		return nil, err
	}
	var rows []OracleRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	o := Oracle{}
	for _, r := range rows {
		if _, dup := o[r.Job]; dup {
			return nil, fmt.Errorf("expected.json: job %q listed twice", r.Job)
		}
		if r.Verdict != "SAFE" && r.Verdict != "UNSAFE" {
			return nil, fmt.Errorf("expected.json: job %q has verdict %q", r.Job, r.Verdict)
		}
		o[r.Job] = r
	}
	// A job without an expectation cannot be run.
	for _, w := range workloads {
		for _, n := range append(append([]string{}, w.Jobs...), w.Smoke...) {
			if _, ok := o[n]; !ok {
				return nil, fmt.Errorf("job %q of workload %s has no row in expected.json", n, w.Name)
			}
		}
	}
	return o, nil
}

// check marks a row failed when its verdict is not the expected one.
func (o Oracle) check(row *JobRow) {
	want := o[row.Job].Verdict
	if row.Fail == "" && row.Verdict != want {
		row.Fail = fmt.Sprintf("verdict %s, expected %s", row.Verdict, want)
	}
}
