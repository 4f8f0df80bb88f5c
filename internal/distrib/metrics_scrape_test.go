package distrib

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/prog"
)

// scrape fetches /metrics from the observability mux.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue finds the first sample for name (exact match before the
// space or '{') in a text exposition body; ok reports whether it exists.
func metricValue(body, name string) (float64, bool) {
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		rest, found := strings.CutPrefix(line, name)
		if !found || (!strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{")) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// TestDistributedMetricsScrape runs a live distributed analysis with the
// coordinator's metrics registry mounted on an HTTP mux, scrapes
// /metrics while workers are solving, and checks that chunk/worker
// gauges move and that remote sat.Stats are aggregated into both the
// exposition and the CoordinatorResult.
func TestDistributedMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	health := NewHealthRegistry()
	srv := httptest.NewServer(obs.NewMux(obs.MuxOptions{
		Registry: reg,
		Health:   func() any { return health.Snapshot() },
	}))
	defer srv.Close()

	// Unwind 2: at unwind 1 the template's simplification pass refutes
	// the formula by itself and the four partitions have nothing to
	// count.
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 2, Contexts: 3, Partitions: 4, ChunkSize: 1,
		Metrics: reg,
		Health:  health,
	})

	// Gauges are primed before any worker joins — but not before
	// Coordinate, running in its own goroutine, has encoded the program
	// and cut the chunks, so wait for that (each poll is an HTTP round
	// trip, which yields to it) instead of assuming it already happened.
	deadline := time.Now().Add(30 * time.Second)
	body := scrape(t, srv.URL)
	for {
		v, ok := metricValue(body, "parbmc_coordinator_chunks_total")
		if ok && v == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chunks_total before workers: got %v (present %v) after 30s\n%s", v, ok, body)
		}
		body = scrape(t, srv.URL)
	}
	if v, ok := metricValue(body, "parbmc_coordinator_workers_active"); !ok || v != 0 {
		t.Fatalf("workers_active before workers: got %v (present %v)", v, ok)
	}

	// The worker holds its second job until a scrape has seen it: the
	// run is a few milliseconds of solving, and a scrape under load is
	// not, so nothing is left to which of the two is faster.
	seen := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := Work(context.Background(), addr, WorkerOptions{Name: "scraped", Cores: 1,
			Faults: &FaultPlan{Events: []FaultEvent{{Job: 1, Kind: FaultSlow}}, OnFire: func(FaultEvent) { <-seen }}})
		if err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	// Scrape concurrently with the run: the worker is connected and
	// mid-run, so the active-worker gauge must read it.
	for {
		if v, ok := metricValue(scrape(t, srv.URL), "parbmc_coordinator_workers_active"); ok && v > 0 {
			break
		}
		if time.Now().After(deadline) {
			close(seen)
			t.Fatal("never observed parbmc_coordinator_workers_active > 0 during the run")
		}
	}
	close(seen)
	res := waitResult(t, resCh)
	wg.Wait()

	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	// Remote search statistics made it back through the protocol.
	// (Decisions may legitimately be 0: these partitions refute by pure
	// propagation, so propagations is the counter guaranteed to move.)
	if res.RemoteStats.Propagations == 0 {
		t.Fatalf("no remote propagations aggregated: %+v", res.RemoteStats)
	}
	if res.SolveMillis < 0 {
		t.Fatalf("negative remote solve time: %d", res.SolveMillis)
	}

	// Final exposition: jobs counted, chunks drained, remote counters
	// match the aggregated result, per-worker series labeled.
	body = scrape(t, srv.URL)
	if v, ok := metricValue(body, "parbmc_coordinator_jobs_total"); !ok || v != float64(res.Jobs) {
		t.Fatalf("jobs_total: got %v (present %v), want %d", v, ok, res.Jobs)
	}
	if v, ok := metricValue(body, "parbmc_coordinator_chunks_remaining"); !ok || v != 0 {
		t.Fatalf("chunks_remaining after safe run: got %v (present %v)", v, ok)
	}
	if v, ok := metricValue(body, "parbmc_remote_propagations_total"); !ok || v != float64(res.RemoteStats.Propagations) {
		t.Fatalf("remote propagations: exposition %v (present %v) vs result %d",
			v, ok, res.RemoteStats.Propagations)
	}
	if v, ok := metricValue(body, "parbmc_remote_decisions_total"); !ok || v != float64(res.RemoteStats.Decisions) {
		t.Fatalf("remote decisions: exposition %v (present %v) vs result %d",
			v, ok, res.RemoteStats.Decisions)
	}
	if !strings.Contains(body, `parbmc_worker_jobs_total{worker="scraped"} 4`) {
		t.Fatalf("per-worker job series missing:\n%s", body)
	}
	if v, ok := metricValue(body, "parbmc_coordinator_job_solve_seconds_count"); !ok || v != float64(res.Jobs) {
		t.Fatalf("solve histogram count: got %v (present %v), want %d", v, ok, res.Jobs)
	}
	if v, ok := metricValue(body, "parbmc_partition_solve_seconds_count"); !ok || v <= 0 {
		t.Fatalf("per-partition solve histogram: got %v (present %v)", v, ok)
	}

	// /healthz reflects the shared health registry.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(hb), `"scraped"`) {
		t.Fatalf("healthz missing worker snapshot:\n%s", hb)
	}
}

// TestPartitionHardnessExported runs a live 2-worker distributed
// analysis and asserts the performance observatory's per-partition
// signals land in the exposition: a parbmc_partition_hardness gauge for
// every partition (set live from heartbeats and re-set from final
// results, so even partitions solved between heartbeats report one),
// plus the LBD distribution and learnt-DB churn counters aggregated
// from remote job results.
func TestPartitionHardnessExported(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: reg}))
	defer srv.Close()

	p := prog.MustParse(fibSrc)
	const partitions = 4
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: partitions, ChunkSize: 1,
		Metrics: reg,
	})
	var wg sync.WaitGroup
	for _, name := range []string{"hw0", "hw1"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, err := Work(context.Background(), addr, WorkerOptions{Name: name, Cores: 1}); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}
	res := waitResult(t, resCh)
	wg.Wait()
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}

	body := scrape(t, srv.URL)
	for part := 0; part < partitions; part++ {
		series := `parbmc_partition_hardness{partition="` + strconv.Itoa(part) + `"}`
		if !strings.Contains(body, series) {
			t.Errorf("missing %s in exposition", series)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", body)
	}
	// The solver-introspection aggregates travel with job results: every
	// learnt clause lands in exactly one LBD bucket.
	var lbdTotal float64
	for _, s := range reg.Samples("parbmc_lbd_bucket") {
		lbdTotal += s.Value
	}
	if lbdTotal != float64(res.RemoteStats.Learnt) {
		t.Errorf("lbd buckets sum to %v, want %d learnt", lbdTotal, res.RemoteStats.Learnt)
	}
	if v, ok := metricValue(body, "parbmc_remote_learnt_total"); !ok || v != float64(res.RemoteStats.Learnt) {
		t.Errorf("remote learnt: exposition %v (present %v) vs result %d", v, ok, res.RemoteStats.Learnt)
	}
}

// TestRemoteStatsOverProtocol pins that job results carry sat.Stats and
// solve wall time without any metrics registry attached.
func TestRemoteStatsOverProtocol(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 4, Partitions: 4, ChunkSize: 2,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "w", Cores: 1})
	}()
	res := waitResult(t, resCh)
	wg.Wait()
	if res.Verdict != core.Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.RemoteStats.Propagations == 0 {
		t.Fatalf("no remote stats over protocol: %+v", res.RemoteStats)
	}
}
