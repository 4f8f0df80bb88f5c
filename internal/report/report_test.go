package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
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

// A row's hardness is derived from the row: the partition's conflicts
// and progress over its solve time, and 0 while it has none — a live
// heartbeat's row, or a row merged from heartbeats only.
func TestPartitionRowHardnessDerived(t *testing.T) {
	r := NewRecorder()
	r.Merge(PartitionRow{Partition: 2, Conflicts: 100, Progress: 0.5})
	if h := r.Build().Partitions[0].Hardness(); h != 0 {
		t.Fatalf("hardness %v before the row has a solve time, want 0", h)
	}
	r.Merge(PartitionRow{Partition: 2, Verdict: "UNSAT", SolveMillis: 2000})
	// 50 conflicts/s, discounted by a progress slope of 0.25/s.
	if h := r.Build().Partitions[0].Hardness(); h != 37.5 {
		t.Fatalf("hardness %v, want 37.5", h)
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
		{Partition: 1, Worker: "w0", Conflicts: 30, Propagations: 300, Progress: 0.3},
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
		Progress: 0.5, SolveMillis: 3, Certified: true}
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
		Program:  "fibonacci",
		Manifest: journal.Manifest{Unwind: 1, Contexts: 3, Width: 8, Partitions: 2, To: 2},
		Mode:     "distributed", TraceID: "cafe",
	})
	r.SetVerdict("SAFE", 250*time.Millisecond)
	r.SetTemplate(TemplateRow{Millis: 98, VarsIn: 24837, VarsOut: 6031, ClausesIn: 75370, ClausesOut: 31850, ElimVars: 18290, Simplified: 67101, Propagations: 4, Cubes: 8})
	r.Merge(PartitionRow{Partition: 0, Verdict: "UNSAT", Worker: "w0", Conflicts: 10, Progress: 0.25, SolveMillis: 500})
	// Partition 1 searched long enough for the solver to simplify.
	r.Merge(PartitionRow{Partition: 1, Verdict: "UNSAT", Worker: "w1", Conflicts: 40, Propagations: 900, ElimVars: 18363, Simplified: 67514, Progress: 0.25, SolveMillis: 2000})
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
	// What a certifying coordinator exports: the workers' search as a
	// propagation count, its own proof checking as lemmas and chain
	// clauses walked, each with a busy time.
	reg.Counter("parbmc_remote_propagations_total", "help").Add(30e6)
	reg.Histogram("parbmc_coordinator_job_solve_seconds", "help", nil).Observe(1.5)
	reg.Counter("parbmc_coordinator_certify_lemmas_total", "help").Add(1.5e6)
	reg.Counter("parbmc_coordinator_certify_chain_clauses_total", "help").Add(6e6)
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
	if tpl := rep.Template; tpl == nil || tpl.ClausesOut != 31850 || tpl.VarsOut != 6031 || tpl.Cubes != 8 {
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
		"bounds: unwind=1 contexts=3 width=8 partitions=2\n",
		"Verdict: SAFE in 250 ms",
		"Template: 98 ms, variables 24837 -> 6031, clauses 75370 -> 31850, elim-vars 18290, simplified 67101, propagations 4, cloned for 8 cubes",
		"Partition imbalance (2 partitions):",
		"conflicts  propagations elim-vars simplified",
		"       10             0         0          0",
		"       40           900     18363      67514",
		"imbalance: solve-ms max/min = 4.0, progress spread = 0.000",
		"hardness: max = 17.5 (partition 1), min = 10.0, spread = 7.5",
		"Captured profiles (2):",
		"profiles/p_solve.heap.pprof",
		"Span tree: 3 spans, 1 roots, 0 orphans",
		"Slowest spans:",
		"Metrics snapshots: 1",
		"workers' solvers: 20.0 M propagations/s (30000000 in 1.50 s)",
		"coordinator's proof checkers: 1.5 M lemmas/s (1500000 in 1.00 s)",
		"coordinator's proof checkers: 6.0 M chain clauses/s (6000000 in 1.00 s)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "coordinator's proof checkers: 0.0 M propagations/s") || strings.Count(text, "propagations/s") != 1 {
		t.Fatalf("render sets the checkers' propagations beside the solvers':\n%s", text)
	}
}

// The header says what a run was: the bounds line names rounds only in
// round-robin mode and the range only when the run was not all of it; a
// run that failed before it had a manifest shows neither hash nor
// bounds; and a file from before the manifest was journal.Manifest (its
// hash under "program_sha", no range) renders its bounds, not its hash.
func TestRenderManifestHeader(t *testing.T) {
	for _, c := range []struct {
		name, json string
		want, not  []string
	}{
		{"whole run", `{"manifest":{"program":"p","program_sha256":"abc","unwind":1,"contexts":3,"width":8,"partitions":4,"to":4}}`,
			[]string{"program sha: abc\n", "bounds: unwind=1 contexts=3 width=8 partitions=4\n"}, nil},
		{"subrange", `{"manifest":{"program":"p","unwind":1,"contexts":4,"width":8,"partitions":8,"from":0,"to":2}}`,
			[]string{"bounds: unwind=1 contexts=4 width=8 partitions=8 range=[0,2)\n"}, nil},
		{"rounds", `{"manifest":{"program":"p","unwind":2,"rounds":3,"width":8,"partitions":1,"to":1}}`,
			[]string{"bounds: unwind=2 contexts=0 rounds=3 width=8 partitions=1\n"}, nil},
		{"failed before the manifest", `{"manifest":{"program":"p","mode":"local","program_sha256":"","unwind":0,"contexts":0,"width":0,"partitions":0}}`,
			[]string{"Run report: p (local)"}, []string{"program sha", "bounds:"}},
		{"older file", `{"manifest":{"program":"p","program_sha":"abc","unwind":1,"contexts":3,"width":8,"partitions":4}}`,
			[]string{"bounds: unwind=1 contexts=3 width=8 partitions=4\n"}, []string{"program sha", "range"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "r.json")
			if err := os.WriteFile(path, []byte(c.json), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			Render(&out, rep)
			for _, w := range c.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("render misses %q:\n%s", w, out.String())
				}
			}
			for _, n := range c.not {
				if strings.Contains(out.String(), n) {
					t.Errorf("render shows %q:\n%s", n, out.String())
				}
			}
		})
	}
}
