package distrib

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/prog"
)

// TestDistributedFlightRecorder is the acceptance test for the
// cross-process flight recorder: a live 2-worker distributed run must
// (1) produce span files that merge into a single rooted tree — worker
// job spans parented under coordinator job spans via the wire-carried
// SpanContext — with no orphans, (2) expose per-partition
// parbmc_partition_progress gauges on /metrics, and (3) yield a run
// report whose rendering contains the partition imbalance table.
func TestDistributedFlightRecorder(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: reg}))
	defer srv.Close()

	var coordBuf bytes.Buffer
	coordColl := obs.NewCollectorSink()
	tracer := obs.NewTracer(obs.MultiSink(obs.NewJSONLSink(&coordBuf), coordColl)).
		WithProc("coordinator")
	recorder := report.NewRecorder()

	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
		Metrics:     reg,
		Tracer:      tracer,
		Report:      recorder,
		JournalPath: filepath.Join(t.TempDir(), "journal"),
	})

	workerBufs := make([]*bytes.Buffer, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		workerBufs[i] = &bytes.Buffer{}
		name := fmt.Sprintf("fr%d", i)
		wt := obs.NewTracer(obs.NewJSONLSink(workerBufs[i])).WithProc(name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Work(context.Background(), addr, WorkerOptions{
				Name: name, Cores: 1, Tracer: wt,
			}); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}()
	}
	res := waitResult(t, resCh)
	wg.Wait()
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}

	// (1) Merge the coordinator's span file, both workers' span files,
	// and the worker spans shipped back inside result messages (the
	// report's own copy). Every span must hang off the single
	// "coordinate" root; remote refs must resolve.
	sets := [][]obs.Event{recorder.Build().Spans}
	for _, buf := range append([]*bytes.Buffer{&coordBuf}, workerBufs...) {
		events, err := obs.ParseJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, events)
	}
	tree := obs.Merge(sets...)
	if len(tree.Roots) != 1 {
		t.Fatalf("merged roots: %d, want 1", len(tree.Roots))
	}
	if len(tree.Orphans) != 0 {
		t.Fatalf("merged orphans: %d (first: %s %s)", len(tree.Orphans),
			tree.Orphans[0].Name, tree.Orphans[0].Ref())
	}
	root := tree.Roots[0]
	if root.Name != "coordinate" || root.Proc != "coordinator" {
		t.Fatalf("root span %s from %s", root.Name, root.Proc)
	}
	var jobSpans, workerJobs, solves, commits int
	tree.Walk(func(n *obs.SpanNode, depth int) {
		switch n.Name {
		case "journal_commit":
			commits++
			if n.Parent != root.ID || n.Proc != root.Proc {
				t.Errorf("journal_commit span %s parented under %d, want the coordinate root %s", n.Ref(), n.Parent, root.Ref())
			}
		case "job":
			jobSpans++
			if depth != 1 {
				t.Errorf("job span at depth %d, want 1", depth)
			}
		case "worker_job":
			workerJobs++
			if depth != 2 {
				t.Errorf("worker_job span at depth %d, want 2 (under a coordinator job span)", depth)
			}
			if !strings.HasPrefix(n.Proc, "fr") {
				t.Errorf("worker_job from proc %q", n.Proc)
			}
		case "solve":
			solves++
			if depth < 3 {
				t.Errorf("solve span at depth %d, want >= 3 (inside a worker job)", depth)
			}
		}
	})
	if jobSpans != 4 || workerJobs != 4 || solves != 4 || commits != 4 {
		t.Fatalf("spans: job=%d worker_job=%d solve=%d journal_commit=%d, want 4 each", jobSpans, workerJobs, solves, commits)
	}
	trace := tracer.TraceID()
	tree.Walk(func(n *obs.SpanNode, _ int) {
		if n.Trace != trace {
			t.Errorf("span %s (%s) has trace %q, want %q", n.Name, n.Ref(), n.Trace, trace)
		}
	})

	// (2) Per-partition progress gauges. Final results pin them even
	// when the run outpaces every heartbeat, so all 4 must be present.
	body := scrape(t, srv.URL)
	for part := 0; part < 4; part++ {
		series := fmt.Sprintf(`parbmc_partition_progress{partition="%d"}`, part)
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %s\n%s", series, body)
		}
	}
	if v, ok := metricValue(body, "parbmc_partition_progress"); !ok || v < 0 || v > 1 {
		t.Fatalf("partition progress sample: %v (present %v), want in [0,1]", v, ok)
	}

	// (3) The report renders the imbalance table with one row per
	// partition and a populated verdict/worker per row.
	rep := recorder.Build()
	if len(rep.Partitions) != 4 {
		t.Fatalf("report rows: %d, want 4", len(rep.Partitions))
	}
	for _, row := range rep.Partitions {
		if row.Verdict == "" || row.Worker == "" {
			t.Fatalf("incomplete row: %+v", row)
		}
	}
	var out bytes.Buffer
	report.Render(&out, rep, sets[1:]...)
	text := out.String()
	if !strings.Contains(text, "Partition imbalance (4 partitions):") {
		t.Fatalf("render missing imbalance table:\n%s", text)
	}
	if !strings.Contains(text, "imbalance: solve-ms max/min") {
		t.Fatalf("render missing imbalance summary line:\n%s", text)
	}
	if !strings.Contains(text, "0 orphans") {
		t.Fatalf("render reports orphans:\n%s", text)
	}
}

// TestHeartbeatCarriesProgress pins the protocol detail the estimator
// rides on: heartbeat and result messages carry the job-level progress
// field and the per-partition breakdown.
func TestHeartbeatCarriesProgress(t *testing.T) {
	recorder := report.NewRecorder()
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 4, Partitions: 8, ChunkSize: 4,
		Report: recorder,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "hb", Cores: 1})
	}()
	res := waitResult(t, resCh)
	wg.Wait()
	if res.Verdict != core.Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	rep := recorder.Build()
	if len(rep.Partitions) == 0 {
		t.Fatal("no partition rows recorded")
	}
	var sawVerdict bool
	for _, row := range rep.Partitions {
		if row.Verdict != "" {
			sawVerdict = true
		}
		if row.Progress < 0 || row.Progress > 1 {
			t.Fatalf("row %d progress %v out of [0,1]", row.Partition, row.Progress)
		}
	}
	if !sawVerdict {
		t.Fatalf("no partition verdict in rows: %+v", rep.Partitions)
	}
}

// A distributed run's report names each cube's answer in one word: the
// rendered partition table and cube tree agree, partition by partition.
func TestReportNamesCubeAnswersInOneWord(t *testing.T) {
	recorder := report.NewRecorder()
	addr, resCh := startCoordinator(t, prog.MustParse(fibSrc), CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1, Report: recorder,
	})
	runWorkers(t, addr, 1)
	if res := waitResult(t, resCh); res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	var out bytes.Buffer
	report.Render(&out, recorder.Build())
	// Each section's rows start with the partition (table) or the cube's
	// key (tree), then the word; with one partition a cube the two agree.
	table, tree := map[string]string{}, map[string]string{}
	var section map[string]string
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "Partition imbalance"):
			section = table
		case strings.HasPrefix(line, "Cube tree"):
			section = tree
		case !strings.HasPrefix(line, "  "):
			section = nil
		default:
			f := strings.Fields(line)
			if _, err := strconv.Atoi(f[0]); err == nil && section != nil && len(f) > 1 {
				section[f[0]] = f[1]
			}
		}
	}
	if len(table) != 4 || !reflect.DeepEqual(table, tree) {
		t.Fatalf("partition table %v, cube tree %v: want one word per answer in both\n%s", table, tree, out.String())
	}
}
