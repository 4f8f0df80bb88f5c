package report

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRecorderMonotonicRows(t *testing.T) {
	r := NewRecorder()
	r.Merge(PartitionRow{Partition: 3, Worker: "w0", Conflicts: 100, Propagations: 1000, Progress: 0.25})
	// A late, stale heartbeat must not regress the row.
	r.Merge(PartitionRow{Partition: 3, Conflicts: 50, Propagations: 400, Progress: 0.1})
	r.Merge(PartitionRow{Partition: 3, Verdict: "UNSAT", Worker: "w1", SolveMillis: 12})
	// Zero counters on the result leave the live maxima in place.
	rep := r.Build()
	if len(rep.Partitions) != 1 {
		t.Fatalf("rows: %d", len(rep.Partitions))
	}
	row := rep.Partitions[0]
	if row.Conflicts != 100 || row.Propagations != 1000 || row.Progress != 0.25 {
		t.Fatalf("regressed row: %+v", row)
	}
	if row.Verdict != "UNSAT" || row.Worker != "w1" || row.SolveMillis != 12 {
		t.Fatalf("final state not applied: %+v", row)
	}
}

// Hardness is a level, not a counter: unlike the monotone row counters
// a later lower sample replaces an earlier higher one (a partition that
// was hard and then eased off is currently easy), but an all-zero
// update — a heartbeat before the first sample — is ignored.
func TestRecorderHardnessLatestWins(t *testing.T) {
	r := NewRecorder()
	r.Merge(PartitionRow{Partition: 2, Hardness: 10, ConflictRate: 100})
	r.Merge(PartitionRow{Partition: 2, Hardness: 4, ConflictRate: 40})
	r.Merge(PartitionRow{Partition: 2})
	rep := r.Build()
	if len(rep.Partitions) != 1 {
		t.Fatalf("rows: %d", len(rep.Partitions))
	}
	row := rep.Partitions[0]
	if row.Hardness != 4 || row.ConflictRate != 40 {
		t.Fatalf("hardness not latest-wins: %+v", row)
	}
}

// Heartbeats and the result of one partition reach the recorder from
// different connections' goroutines, in no fixed order, through the one
// mutator: whatever the order, the row is the result's verdict over the
// furthest counters anyone reported.
func TestRecorderMergeIsOrderFree(t *testing.T) {
	r := NewRecorder()
	updates := []PartitionRow{
		{Partition: 1, Worker: "w0", Conflicts: 10, Propagations: 100, Progress: 0.1},
		{Partition: 1, Worker: "w0", Conflicts: 30, Propagations: 300, Progress: 0.3, Hardness: 7, ConflictRate: 70},
		{Partition: 1, Worker: "w0", Conflicts: 20, Propagations: 200, Progress: 0.2},
		{Partition: 1, Worker: "w0", Verdict: "UNSAT", Conflicts: 40, Propagations: 400, Decisions: 9, Restarts: 1, Progress: 0.5, SolveMillis: 3, Certified: true},
	}
	var wg sync.WaitGroup
	for _, u := range updates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Merge(u)
		}()
	}
	wg.Wait()
	want := PartitionRow{Partition: 1, Worker: "w0", Verdict: "UNSAT", Conflicts: 40, Propagations: 400, Decisions: 9, Restarts: 1,
		Progress: 0.5, SolveMillis: 3, Certified: true, Hardness: 7, ConflictRate: 70}
	if rows := r.Build().Partitions; len(rows) != 1 || rows[0] != want {
		t.Fatalf("merged %+v, want %+v", rows, want)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.SetManifest(Manifest{Program: "x"})
	r.SetVerdict("SAFE", time.Second)
	r.SetTemplate(TemplateRow{Cubes: 1})
	r.Merge(PartitionRow{Partition: 0})
	r.AddSpans([]obs.Event{{Name: "solve"}})
	r.Snapshot(nil)
	if r.Build() != nil {
		t.Fatal("nil recorder built a report")
	}
}

func TestWriteLoadRenderRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.SetManifest(Manifest{
		Program: "fibonacci", Unwind: 1, Contexts: 3,
		Partitions: 2, Mode: "distributed", TraceID: "cafe",
	})
	r.SetVerdict("SAFE", 250*time.Millisecond)
	r.SetTemplate(TemplateRow{Millis: 98, ClausesIn: 75370, ClausesOut: 31850, ElimVars: 18290, Simplified: 67101, Propagations: 4, Cubes: 8})
	r.Merge(PartitionRow{Partition: 0, Verdict: "UNSAT", Worker: "w0", Conflicts: 10, Progress: 1, SolveMillis: 5, Hardness: 12.5, ConflictRate: 80})
	// Partition 1 searched long enough for the solver to simplify.
	r.Merge(PartitionRow{Partition: 1, Verdict: "UNSAT", Worker: "w1", Conflicts: 40, Propagations: 900, ElimVars: 18363, Simplified: 67514, Progress: 1, SolveMillis: 20, Hardness: 50.0, ConflictRate: 200})
	r.AddProfiles([]ProfileRecord{
		{Phase: "encode", Kind: "cpu", Path: "profiles/p_encode.cpu.pprof", Bytes: 100},
		{Phase: "solve", Kind: "heap", Path: "profiles/p_solve.heap.pprof", Bytes: 2000},
	})
	r.AddSpans([]obs.Event{
		{Name: "coordinate", ID: 1, Proc: "coordinator", Trace: "cafe", DurMicros: 250000},
		{Name: "job", ID: 2, Parent: 1, Proc: "coordinator", Trace: "cafe", DurMicros: 120000},
	})

	reg := obs.NewRegistry()
	reg.Gauge("parbmc_test_gauge", "help").Set(7)
	// What a certifying coordinator exports: the workers' search and its
	// own proof checking, each as a propagation count and a busy time.
	reg.Counter("parbmc_remote_propagations_total", "help").Add(30e6)
	reg.Histogram("parbmc_coordinator_job_solve_seconds", "help", nil).Observe(1.5)
	reg.Counter("parbmc_coordinator_certify_propagations_total", "help").Add(24e6)
	reg.Histogram("parbmc_coordinator_certify_seconds", "help", nil).Observe(0.75)
	reg.Histogram("parbmc_coordinator_certify_seconds", "help", nil).Observe(0.25)
	r.Snapshot(reg)

	path := filepath.Join(t.TempDir(), "run.report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rep, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "SAFE" || rep.WallMillis != 250 || len(rep.Partitions) != 2 {
		t.Fatalf("round trip lost data: %+v", rep)
	}
	if tpl := rep.Template; tpl == nil || tpl.ClausesOut != 31850 || tpl.Cubes != 8 {
		t.Fatalf("round trip lost the template row: %+v", tpl)
	}
	if p := rep.Partitions[1]; p.ElimVars != 18363 || p.Simplified != 67514 {
		t.Fatalf("round trip lost the simplification counts: %+v", p)
	}
	if len(rep.Snapshots) != 1 || !strings.Contains(rep.Snapshots[0].Metrics, "parbmc_test_gauge 7") {
		t.Fatalf("snapshot lost: %+v", rep.Snapshots)
	}
	if len(rep.Profiles) != 2 || rep.Profiles[0].Phase != "encode" {
		t.Fatalf("profile index lost: %+v", rep.Profiles)
	}

	// Rendering with an extra span set that parents under the embedded
	// job span must extend the tree without orphans.
	extra := []obs.Event{
		{Name: "worker_job", ID: 1, Proc: "w0.j0", Trace: "cafe", Remote: "coordinator/2", DurMicros: 100000},
	}
	var out bytes.Buffer
	Render(&out, rep, extra)
	text := out.String()
	for _, want := range []string{
		"Run report: fibonacci (distributed)",
		"Verdict: SAFE in 250 ms",
		"Template: 98 ms, clauses 75370 -> 31850, elim-vars 18290, simplified 67101, propagations 4, cloned for 8 cubes",
		"Partition imbalance (2 partitions):",
		"conflicts  propagations elim-vars simplified",
		"       10             0         0          0",
		"       40           900     18363      67514",
		"imbalance: solve-ms max/min = 4.0, progress spread = 0.000",
		"hardness: max = 50.0 (partition 1), min = 12.5, spread = 37.5",
		"Captured profiles (2):",
		"profiles/p_solve.heap.pprof",
		"Span tree: 3 spans, 1 roots, 0 orphans",
		"Slowest spans:",
		"Metrics snapshots: 1",
		"workers' solvers: 20.0 M propagations/s (30000000 in 1.50 s)",
		"coordinator's proof checkers: 24.0 M propagations/s (24000000 in 1.00 s)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}
