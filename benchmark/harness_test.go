package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	if got := summarize(nil); got != (Summary{}) {
		t.Fatalf("no samples: %+v", got)
	}
	got := summarize([]float64{5, 1, 4, 2})
	if got != (Summary{Median: 3, Min: 1, Max: 5, N: 4}) {
		t.Fatalf("even count: %+v", got)
	}
	if got := summarize([]float64{9, 7, 8}); got.Median != 8 || got.N != 3 {
		t.Fatalf("odd count: %+v", got)
	}
}

// The expected quartiles are what Python prints for
// statistics.quantiles(xs, n=4), the rule the driver judges spread by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1.5, 2.5, 2.5, 4, 10, 11, 12.5}, 2.5, 11},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "parse", Start: 5, End: 15, Parent: 0},
		{Name: "verify", Start: 20, End: 95, Parent: 0},
		{Name: "encode", Start: 20, End: 40, Parent: 2},
		{Name: "solve", Start: 45, End: 90, Parent: 2},
		{Name: "other job", Start: 100, End: 130, Parent: -1},
	}
	want := []time.Duration{15, 10, 10, 20, 45, 30}
	got := selfTimes(spans)
	var sum time.Duration
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 130 {
		t.Errorf("self times sum to %d, want the roots' 130", sum)
	}
}

// The calibration kernel's loads are dependent only if the table is one
// cycle through all its entries.
func TestChaseTableIsOneCycle(t *testing.T) {
	next := chaseTable(10)
	seen := make([]bool, len(next))
	i := uint32(0)
	for range next {
		if seen[i] {
			t.Fatalf("entry %d reached twice", i)
		}
		seen[i] = true
		i = next[i]
	}
	if i != 0 {
		t.Fatalf("walk ends at %d, want back at 0", i)
	}
}

func TestNameGrammar(t *testing.T) {
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		if len(w.Jobs) == 0 || len(w.Smoke) == 0 {
			t.Errorf("workload %s needs jobs and smoke jobs", w.Name)
		}
		seen := map[string]bool{}
		for _, n := range w.Jobs {
			if seen[n] {
				t.Errorf("workload %s repeats job %s: within a pass no two jobs may share a cell", w.Name, n)
			}
			seen[n] = true
		}
	}
	names := map[string]bool{}
	for _, m := range append(append([]Metric{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q", m.Name)
		}
		if names[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		names[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	j, err := parseJob("bb.tso2.u2.c5.p4.nocert")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Job{Name: "bb.tso2.u2.c5.p4.nocert", Prog: "bb", TSO: 2, Unwind: 2, Contexts: 5, Partitions: 4, NoCert: true}); j != want {
		t.Errorf("parsed %+v, want %+v", j, want)
	}
	if j, err := parseJob("fib4.u4.c4"); err != nil || j.Prog != "fib4" || j.Partitions != 1 {
		t.Errorf("fib4.u4.c4: %+v, %v", j, err)
	}
	for _, bad := range []string{"", "es", "es.u2", "es.c2.u2", "es.u0.c1", "nope.u1.c1", "es.u2.c2.p", "es.u2.c2.x", "es u2 c2", "es.u2.c2.nocert.p2"} {
		if _, err := parseJob(bad); err == nil {
			t.Errorf("parseJob(%q) accepted", bad)
		}
	}
}

func TestPassJobsFollowSeed(t *testing.T) {
	w, err := findWorkload("quick_batch")
	if err != nil {
		t.Fatal(err)
	}
	order := func(seed int64, pass int) string {
		jobs, err := passJobs(w, false, seed, pass)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != len(w.Jobs) {
			t.Fatalf("%d jobs, want %d", len(jobs), len(w.Jobs))
		}
		var names []string
		for _, j := range jobs {
			names = append(names, j.Name)
		}
		return strings.Join(names, " ")
	}
	if order(7, 0) != order(7, 0) {
		t.Error("the same seed gave two orders")
	}
	if order(7, 0) == order(8, 0) || order(7, 0) == order(7, 1) {
		t.Error("seed or pass does not change the order")
	}
}

// Every job has exactly one oracle row, no row is unused, and rows of
// the same (program, memory model, unwind, contexts) cell agree.
func TestOracleMatchesJobTables(t *testing.T) {
	oracle, err := loadOracle(".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, w := range workloads {
		for _, n := range append(append([]string{}, w.Jobs...), w.Smoke...) {
			used[n] = true
		}
	}
	cells := map[Job]string{}
	for name, row := range oracle {
		if !used[name] {
			t.Errorf("expected.json row %q matches no job", name)
		}
		if row.Source == "" {
			t.Errorf("expected.json row %q does not say where its verdict comes from", name)
		}
		j, err := parseJob(name)
		if err != nil {
			t.Fatal(err)
		}
		cell := Job{Prog: j.Prog, TSO: j.TSO, Unwind: j.Unwind, Contexts: j.Contexts}
		if prev, ok := cells[cell]; ok && prev != row.Verdict {
			t.Errorf("rows for cell %+v disagree: %s and %s", cell, prev, row.Verdict)
		}
		cells[cell] = row.Verdict
	}
}

// BENCHMARK.json is the contract; the binary must print exactly the
// metrics and accept exactly the workloads it lists.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, listed []metric, have []Metric, bounded bool) {
		if len(listed) != len(have) {
			t.Errorf("%s: %d metrics listed, harness prints %d", kind, len(listed), len(have))
			return
		}
		for i, m := range listed {
			h := have[i]
			if m.Name != h.Name || m.Unit != h.Unit || m.Better != h.Better {
				t.Errorf("%s metric %d: listed %+v, harness has %+v", kind, i, m, h)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != h.Bound) {
				t.Errorf("%s metric %s: bound listed %v, harness has %v", kind, m.Name, m.Bound, h.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

var harness struct {
	once sync.Once
	exe  string
	err  error
}

// harnessBinary builds the harness once for the smoke tests, which
// need the real thing: a binary that spawns itself as children.
func harnessBinary(t *testing.T) string {
	t.Helper()
	harness.once.Do(func() {
		dir, err := os.MkdirTemp("", "pbench-test-")
		if err != nil {
			harness.err = err
			return
		}
		harness.exe = filepath.Join(dir, "pbench")
		if out, err := exec.Command("go", "build", "-o", harness.exe, ".").CombinedOutput(); err != nil {
			harness.err = err
			t.Logf("go build: %s", out)
		}
	})
	if harness.err != nil {
		t.Fatal(harness.err)
	}
	return harness.exe
}

func TestMain(m *testing.M) {
	code := m.Run()
	if harness.exe != "" {
		os.RemoveAll(filepath.Dir(harness.exe))
	}
	os.Exit(code)
}

// smoke runs one invocation on a workload's tiny jobs and returns the
// decoded result line.
func smoke(t *testing.T, workload string, trace string) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(harnessBinary(t), "-smoke", "-workload", workload, "-seed", "3", "-seconds", "0", "-trace", trace,
		"-src", ".", "-build", filepath.Join(dir, "build"), "-out", filepath.Join(dir, "out"))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace %s: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s trace %s: attempted %d, failed %d", workload, trace, res.Attempted, res.Failed)
	}
	if trace == "1" {
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+workload+".jsonl")); err != nil {
			t.Errorf("%s: spans not written: %v", workload, err)
		}
	}
	return res.Correct, res.Metrics
}

// The traced smoke run exercises child spawning, the hand-walked
// pipeline, the extras child and the check that traced and untraced
// passes agree on every deterministic counter.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		correct, metrics := smoke(t, w.Name, "1")
		if !correct {
			t.Errorf("%s: traced smoke run incorrect", w.Name)
		}
		if len(metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics printed, want %d", w.Name, len(metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s printed as %+v", w.Name, m.Name, got)
			}
		}
		if v := metrics["partition.count"].Value; v < 1 {
			t.Errorf("%s: partition.count = %v", w.Name, v)
		}
	}
}

// The untraced smoke run adds set-up (go build, oracle, warm-up) and
// rusage collection. One workload is enough: the traced runs above
// already alternate untraced and traced children of every kind.
func TestSmokeUntraced(t *testing.T) {
	const name = "distrib_loopback"
	correct, metrics := smoke(t, name, "0")
	if !correct {
		t.Errorf("%s: untraced smoke run incorrect", name)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%s: %d metrics printed, want %d", name, len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if got := metrics[m.Name]; got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("%s: metric %s printed as %+v, want a positive value in %s", name, m.Name, got, m.Unit)
		}
	}
}
