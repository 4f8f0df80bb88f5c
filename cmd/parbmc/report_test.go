package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// TestReportSubcommand drives run → report end to end in local mode:
// verify a benchmark with the flight recorder attached exactly as main
// does, write the report, then render it through the `parbmc report`
// subcommand and check the imbalance table.
func TestReportSubcommand(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.report.json")

	recorder := report.NewRecorder()
	spanColl := obs.NewCollectorSink()
	tracer := obs.NewTracer(spanColl).WithProc("parbmc")

	p, err := loadProgram("", "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := core.Verify(context.Background(), p, core.Options{
		Unwind: 2, Contexts: 4, Cores: 2, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	recorder.SetManifest(report.Manifest{
		Program: "fibonacci", Manifest: res.Manifest, Mode: "local", TraceID: tracer.TraceID(),
	})
	recorder.SetVerdict(res.Verdict.String(), time.Since(start))
	recordRows(recorder, res)
	recorder.AddSpans(spanColl.Events())
	if err := recorder.WriteFile(reportPath); err != nil {
		t.Fatal(err)
	}

	// Every row of the file is its instance's search, counter for counter:
	// the row is built in one place, so a counter cannot go missing here.
	rep, err := report.Load(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Partitions) != len(res.Instances) {
		t.Fatalf("%d rows for %d instances", len(rep.Partitions), len(res.Instances))
	}
	var decisions int64
	for i, inst := range res.Instances {
		row, st := rep.Partitions[i], inst.Stats
		decisions += row.Decisions
		if row.Partition != inst.Partition || row.Conflicts != st.Conflicts || row.Propagations != st.Propagations ||
			row.Decisions != st.Decisions || row.Restarts != st.Restarts ||
			row.ElimVars != st.ElimVars || row.Simplified != st.Simplified {
			t.Errorf("row %+v is not instance %d's search %+v", row, inst.Partition, st)
		}
	}
	if decisions == 0 {
		t.Fatal("no partition decided anything: the rows have nothing to lose")
	}

	var out bytes.Buffer
	if code := reportMain([]string{reportPath}, &out, io.Discard); code != 0 {
		t.Fatalf("reportMain exit %d", code)
	}
	text := out.String()
	for _, want := range []string{
		"Run report: fibonacci (local)",
		"Verdict: SAFE",
		"Partition imbalance (",
		"Span tree:",
		"0 orphans",
		"Slowest spans:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report output missing %q:\n%s", want, text)
		}
	}
}

// TestReportSubcommandExtraSpans merges an extra JSONL span file whose
// spans parent under the report's own via a remote ref.
func TestReportSubcommandExtraSpans(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "run.report.json")
	spanPath := filepath.Join(dir, "worker.jsonl")

	r := report.NewRecorder()
	r.SetManifest(report.Manifest{Program: "x", Mode: "distributed", TraceID: "cafe"})
	r.AddSpans([]obs.Event{
		{Name: "coordinate", ID: 1, Proc: "coordinator", Trace: "cafe", DurMicros: 10},
		{Name: "job", ID: 2, Parent: 1, Proc: "coordinator", Trace: "cafe", DurMicros: 5},
	})
	if err := r.WriteFile(reportPath); err != nil {
		t.Fatal(err)
	}
	workerLines := `{"span":"worker_job","id":1,"proc":"w0.j0","trace":"cafe","remote":"coordinator/2","dur_us":4}` + "\n"
	if err := os.WriteFile(spanPath, []byte(workerLines), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := reportMain([]string{reportPath, spanPath}, &out, io.Discard); code != 0 {
		t.Fatalf("reportMain exit %d", code)
	}
	if !strings.Contains(out.String(), "Span tree: 3 spans, 1 roots, 0 orphans") {
		t.Fatalf("extra span file not merged:\n%s", out.String())
	}
}

func TestReportSubcommandUsage(t *testing.T) {
	if code := reportMain(nil, io.Discard, io.Discard); code != 2 {
		t.Fatalf("no-arg exit %d, want 2", code)
	}
	if code := reportMain([]string{filepath.Join(t.TempDir(), "absent.json")}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("missing-file exit %d, want 2", code)
	}
}
