package distrib

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/prog"
)

// awaitFire arms plan.OnFire and returns a wait for the plan's first
// event to fire: the worker it is given to then holds a job.
func awaitFire(t *testing.T, plan *FaultPlan) func() {
	fired := make(chan struct{})
	var once sync.Once
	plan.OnFire = func(FaultEvent) { once.Do(func() { close(fired) }) }
	return func() {
		t.Helper()
		select {
		case <-fired:
		case <-time.After(30 * time.Second):
			t.Fatal("the faulty worker was never handed a job")
		}
	}
}

// startWorkerPair launches a slow worker (fault plan attached), waits
// for it to own a job, then adds a fast worker; returns a wait func.
func startWorkerPair(t *testing.T, addr string, slowPlan *FaultPlan) func() {
	t.Helper()
	// Head start: the slow worker must hold a cube before the fast one
	// drains the queue, or the scenario is vacuous.
	holds := awaitFire(t, slowPlan)
	var wg sync.WaitGroup
	for _, w := range []struct {
		name string
		plan *FaultPlan
	}{{"slow", slowPlan}, {"fast", nil}} {
		wg.Add(1)
		go func(name string, plan *FaultPlan) {
			defer wg.Done()
			if _, err := Work(context.Background(), addr, WorkerOptions{Name: name, Cores: 1, Faults: plan}); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(w.name, w.plan)
		if w.plan != nil {
			holds()
		}
	}
	return wg.Wait
}

// The tentpole acceptance scenario: one straggler worker (deterministic
// 3s pre-solve sleep on its first job, heartbeats flowing) and one
// healthy worker. A static run is hostage to the straggler; the
// adaptive run splits the stalled cube after Split.Grace, the healthy
// worker steals a child, and the cancelled parent result is discarded
// without being journaled or charged. The adaptive run must beat the
// static one by at least 1.5x.
func TestAdaptiveSplitRoutesAroundStraggler(t *testing.T) {
	p := prog.MustParse(fibSrc)
	const slowFor = 3 * time.Second

	static := func() *CoordinatorResult {
		addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
			Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
		}))
		wait := startWorkerPair(t, addr, SlowAt(slowFor, 0))
		res := waitResult(t, resCh)
		wait()
		return res
	}()
	if static.Verdict != core.Safe {
		t.Fatalf("static verdict %v", static.Verdict)
	}
	if static.Wall < slowFor {
		t.Fatalf("static run finished in %v despite a %v straggler: the slow worker never held a cube", static.Wall, slowFor)
	}

	reg := obs.NewRegistry()
	jpath := filepath.Join(t.TempDir(), "journal")
	opts := fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
		Split: partition.SplitPolicy{Depth: 2, Grace: 250 * time.Millisecond},
		// One charged failure would quarantine: proves cancelled parent
		// results are never charged to the attempt budget.
		MaxAttempts: 1,
		JournalPath: jpath,
		Metrics:     reg,
	})
	addr, resCh := startCoordinator(t, p, opts)
	wait := startWorkerPair(t, addr, SlowAt(slowFor, 0))
	res := waitResult(t, resCh)
	wait()

	if res.Verdict != core.Safe {
		t.Fatalf("adaptive verdict %v (quarantined %+v)", res.Verdict, res.Quarantined)
	}
	if res.Splits < 1 || res.Steals < 1 || res.Superseded < 1 {
		t.Fatalf("splits=%d steals=%d superseded=%d, want all >= 1", res.Splits, res.Steals, res.Superseded)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("cancelled straggler results charged the attempt budget: %+v", res.Quarantined)
	}
	if res.ChunksDecided != res.ChunksTotal {
		t.Fatalf("decided %d of %d chunks", res.ChunksDecided, res.ChunksTotal)
	}
	// The acceptance bound: adaptive at least 1.5x faster than static.
	if 3*res.Wall > 2*static.Wall {
		t.Fatalf("adaptive run %v not 1.5x faster than static %v", res.Wall, static.Wall)
	}

	// The counters surface on the metrics registry too.
	if got := reg.Counter("parbmc_cubes_split_total", "").Value(); got < 1 {
		t.Fatalf("parbmc_cubes_split_total = %d, want >= 1", got)
	}
	if got := reg.Counter("parbmc_steals_total", "").Value(); got < 1 {
		t.Fatalf("parbmc_steals_total = %d, want >= 1", got)
	}
	if got := reg.Counter("parbmc_results_superseded_total", "").Value(); got < 1 {
		t.Fatalf("parbmc_results_superseded_total = %d, want >= 1", got)
	}

	// Journal tree consistency: every split cube carries exactly one
	// SPLIT record and no terminal verdict; every terminal verdict is a
	// certified SAFE leaf.
	_, recs, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	split := map[partition.Cube]int{}
	terminal := map[partition.Cube]int{}
	for _, rec := range recs {
		cube := partition.Cube{From: rec.From, To: rec.To, Path: rec.Path}
		if rec.Split() {
			split[cube]++
			continue
		}
		terminal[cube]++
		if rec.Verdict != core.Safe.String() || !rec.Certified {
			t.Fatalf("terminal record %+v, want certified Safe", rec)
		}
	}
	if len(split) == 0 {
		t.Fatal("no SPLIT record journaled")
	}
	for cube, n := range split {
		if n != 1 {
			t.Fatalf("cube %v has %d SPLIT records", cube, n)
		}
		if terminal[cube] != 0 {
			t.Fatalf("split cube %v also has a terminal verdict: the superseded parent was journaled", cube)
		}
	}
	for cube, n := range terminal {
		if n != 1 {
			t.Fatalf("cube %v journaled %d terminal verdicts", cube, n)
		}
	}
}

// Hedged dispatch: with splitting disabled, the idle healthy worker
// speculatively duplicates the straggler's cube and wins; the loser's
// cancelled result is discarded — never journaled (exactly one record
// per cube) and never charged (MaxAttempts 1 would quarantine on any
// charge). The run must not wait out the straggler's sleep.
func TestHedgedLoserNotJournaledNotCharged(t *testing.T) {
	p := prog.MustParse(fibSrc)
	const slowFor = 3 * time.Second
	jpath := filepath.Join(t.TempDir(), "journal")
	reg := obs.NewRegistry()
	opts := fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
		Hedge: true, Split: partition.SplitPolicy{Grace: 250 * time.Millisecond},
		MaxAttempts: 1,
		JournalPath: jpath,
		Metrics:     reg,
	})
	addr, resCh := startCoordinator(t, p, opts)
	wait := startWorkerPair(t, addr, SlowAt(slowFor, 0))
	res := waitResult(t, resCh)
	wait()

	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v (quarantined %+v)", res.Verdict, res.Quarantined)
	}
	if res.Hedges < 1 || res.Superseded < 1 {
		t.Fatalf("hedges=%d superseded=%d, want both >= 1", res.Hedges, res.Superseded)
	}
	if res.Splits != 0 {
		t.Fatalf("splits=%d with Split.Depth 0", res.Splits)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("hedge loser charged the attempt budget: %+v", res.Quarantined)
	}
	// Two job counters: the metric counts every result that arrived, the
	// loser's acknowledged cancel included; Jobs only the ones that won
	// their claim and were committed, one per cube. (Without hedging,
	// splitting or failures they are equal: TestDistributedMetricsScrape.)
	if arrived := reg.Counter("parbmc_coordinator_jobs_total", "").Value(); res.Jobs != 2 || arrived < int64(res.Jobs) {
		t.Fatalf("%d results arrived, %d counted: want 2 counted and no fewer arrived", arrived, res.Jobs)
	}
	if res.Wall >= slowFor {
		t.Fatalf("run took %v: the hedge never cancelled the %v straggler", res.Wall, slowFor)
	}
	// The hedged cube was dispatched twice, its sibling once.
	var twice int
	for cube, n := range res.Attempts {
		if n == 2 {
			twice++
		} else if n != 1 {
			t.Fatalf("cube %v dispatched %d times", cube, n)
		}
	}
	if twice != 1 {
		t.Fatalf("%d cubes dispatched twice, want exactly the hedged one", twice)
	}
	// Exactly one journal record per cube: the loser was never committed.
	_, recs, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal has %d records, want 2 (one per cube)\n%+v", len(recs), recs)
	}
	seen := map[partition.Cube]bool{}
	for _, rec := range recs {
		cube := partition.Cube{From: rec.From, To: rec.To, Path: rec.Path}
		if seen[cube] {
			t.Fatalf("cube %v journaled twice", cube)
		}
		seen[cube] = true
		if rec.Verdict != core.Safe.String() || !rec.Certified {
			t.Fatalf("record %+v, want certified Safe", rec)
		}
	}
}

// Kill-the-primary mid-split: the primary dies by fault plan right
// after committing a SPLIT record and one child verdict. The standby
// must replay the cube tree from its replicated journal — parent
// superseded, children live — and drive the run to the same certified
// Safe verdict, with the promoted journal forming a consistent tree.
func TestHAFailoverMidSplitReplaysCubeTree(t *testing.T) {
	p := prog.MustParse(fibSrc)
	dir := t.TempDir()
	leasePath := filepath.Join(dir, "lease.json")
	lnA, lnB := listen(t), listen(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	adaptive := func(o CoordinatorOptions) CoordinatorOptions {
		o.Split = partition.SplitPolicy{Depth: 2, Grace: 300 * time.Millisecond}
		o.Hedge = true
		return o
	}
	optsA := adaptive(haFastOpts(t, filepath.Join(dir, "a")))
	// Commits with one slow and one fast worker arrive in a fixed order:
	// three fast cube verdicts, the straggler's SPLIT, then the stolen
	// child's verdict — killing at 5 lands just past the split.
	optsA.Faults = &CoordinatorFaultPlan{KillAfterJobs: 5}
	optsB := adaptive(haFastOpts(t, filepath.Join(dir, "b")))
	stateB := &HAState{}

	haA := HAOptions{LeasePath: leasePath, Holder: "alpha", Addr: addrA, LeaseTTL: 400 * time.Millisecond}
	haB := HAOptions{LeasePath: leasePath, Holder: "beta", Addr: addrB, LeaseTTL: 400 * time.Millisecond, State: stateB}

	ctx := context.Background()
	errA := make(chan error, 1)
	go func() {
		_, err := RunHA(ctx, lnA, p, optsA, haA)
		errA <- err
	}()
	waitLeaseHolder(t, leasePath, "alpha")
	type outcome struct {
		res *CoordinatorResult
		err error
	}
	resB := make(chan outcome, 1)
	go func() {
		res, err := RunHA(ctx, lnB, p, optsB, haB)
		resB <- outcome{res, err}
	}()

	endpoints := addrA + "," + addrB
	// Uniformly slow: every job sleeps until cancelled, so only the
	// split/hedge machinery (before and after the failover) can route
	// work around it.
	slow := SlowAt(10 * time.Second)
	holds := awaitFire(t, slow)
	var wg sync.WaitGroup
	for _, w := range []struct {
		name string
		plan *FaultPlan
	}{{"ws", slow}, {"wf", nil}} {
		wg.Add(1)
		go func(name string, plan *FaultPlan) {
			defer wg.Done()
			if _, err := Work(ctx, endpoints, WorkerOptions{
				// The standby promotes a lease TTL after the kill, later
				// under load: the outage is bounded in time, not in dials.
				Name: name, MaxReconnects: math.MaxInt,
				ReconnectBackoff: 25 * time.Millisecond,
				ReconnectTimeout: 60 * time.Second,
				Faults:           plan,
			}); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(w.name, w.plan)
		if w.plan != nil {
			holds() // the straggler must hold a cube first
		}
	}

	if err := <-errA; !errors.Is(err, ErrPrimaryKilled) {
		t.Fatalf("primary A returned %v, want ErrPrimaryKilled", err)
	}
	var b outcome
	select {
	case b = <-resB:
	case <-time.After(60 * time.Second):
		t.Fatal("standby never finished the run")
	}
	wg.Wait()
	if b.err != nil {
		t.Fatalf("standby: %v", b.err)
	}
	if b.res.Verdict != core.Safe {
		t.Fatalf("standby verdict %v, want Safe (quarantined %+v)", b.res.Verdict, b.res.Quarantined)
	}
	// The replicated SPLIT record is in the standby's tree — a fifth leaf
	// over the four roots, one path bit deep — without being counted as a
	// split of the standby's own run, which may or may not make another.
	if b.res.ChunksTotal != 5+b.res.Splits || b.res.MaxCubeDepth < 1 {
		t.Fatalf("standby ended with %d leaves at depth %d after %d splits of its own, want the replicated SPLIT's two children among them",
			b.res.ChunksTotal, b.res.MaxCubeDepth, b.res.Splits)
	}
	if role, epoch, _ := stateB.Role(); role != RolePrimary || epoch != 2 {
		t.Fatalf("standby state role=%s epoch=%d, want primary at epoch 2", role, epoch)
	}

	// The promoted journal is a consistent cube tree: split cubes carry
	// no terminal verdict, every terminal verdict is certified Safe.
	_, recs, err := journal.Read(optsB.JournalPath)
	if err != nil {
		t.Fatalf("read standby journal: %v", err)
	}
	split := map[partition.Cube]bool{}
	terminals := 0
	for _, rec := range recs {
		if rec.Split() {
			split[partition.Cube{From: rec.From, To: rec.To, Path: rec.Path}] = true
		}
	}
	if len(split) == 0 {
		t.Fatal("standby journal has no SPLIT record: the cube tree was not replicated or rebuilt")
	}
	seen := map[partition.Cube]bool{}
	for _, rec := range recs {
		if rec.Split() {
			continue
		}
		cube := partition.Cube{From: rec.From, To: rec.To, Path: rec.Path}
		if split[cube] {
			t.Fatalf("split cube %v also journaled a terminal verdict %q", cube, rec.Verdict)
		}
		if seen[cube] {
			t.Fatalf("cube %v journaled twice", cube)
		}
		seen[cube] = true
		if rec.Verdict != core.Safe.String() || !rec.Certified {
			t.Fatalf("terminal record %+v, want certified Safe", rec)
		}
		terminals++
	}

	// The replay cross-check: a fresh coordinator resuming the promoted
	// journal with no workers must reconstruct the tree and reach the
	// identical certified verdict purely from committed records.
	replayOpts := adaptive(fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
		JournalPath: optsB.JournalPath, Resume: true,
	}))
	_, replayCh := startCoordinator(t, p, replayOpts)
	replay := waitResult(t, replayCh)
	if replay.Verdict != core.Safe || replay.Jobs != 0 {
		t.Fatalf("journal replay: verdict %v after %d jobs, want Safe from 0 jobs", replay.Verdict, replay.Jobs)
	}
	if replay.Resumed != terminals {
		t.Fatalf("replay resumed %d leaves, want %d (every terminal record)", replay.Resumed, terminals)
	}
	if replay.ChunksDecided != replay.ChunksTotal {
		t.Fatalf("replay decided %d of %d leaves", replay.ChunksDecided, replay.ChunksTotal)
	}
}

// A departed worker's live gauge series must leave the registry (its
// job/failure counters stay as history). Unit level first, then a live
// run whose straggler emits heartbeats mid-job.
func TestWorkerGaugesDroppedOnDeparture(t *testing.T) {
	reg := obs.NewRegistry()
	m := newCoordMetrics(reg)
	m.heartbeat("w0", &Message{Type: "heartbeat", Conflicts: 7, Hardness: 1.5, MemBytes: 1 << 20, MemLimit: 1 << 22})
	m.jobResult("w0", nil, 5)
	srv := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: reg}))
	defer srv.Close()
	body := scrape(t, srv.URL)
	if !strings.Contains(body, `parbmc_worker_hardness{worker="w0"}`) {
		t.Fatalf("heartbeat did not register the hardness gauge:\n%s", body)
	}
	m.dropWorker("w0")
	body = scrape(t, srv.URL)
	for _, name := range []string{
		"parbmc_worker_hardness", "parbmc_worker_live_conflicts",
		"parbmc_worker_mem_bytes", "parbmc_worker_mem_limit_bytes",
	} {
		if strings.Contains(body, name+`{worker="w0"}`) {
			t.Fatalf("%s survived dropWorker:\n%s", name, body)
		}
	}
	if !strings.Contains(body, `parbmc_worker_jobs_total{worker="w0"} 1`) {
		t.Fatalf("job counter history lost on dropWorker:\n%s", body)
	}

	// Live run: the slow worker heartbeats during its sleep (gauges
	// appear), and once the run ends every departed worker's gauges are
	// gone while its counters persist.
	reg2 := obs.NewRegistry()
	srv2 := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: reg2}))
	defer srv2.Close()
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
		Metrics: reg2,
	}))
	wait := startWorkerPair(t, addr, SlowAt(500*time.Millisecond, 0))
	sawGauge := false
	var res *CoordinatorResult
poll:
	for {
		select {
		case res = <-resCh:
			break poll
		default:
			if strings.Contains(scrape(t, srv2.URL), `parbmc_worker_hardness{worker="slow"}`) {
				sawGauge = true
			}
			time.Sleep(time.Millisecond)
		}
	}
	wait()
	if !sawGauge {
		t.Fatal("never observed the slow worker's hardness gauge during its job")
	}
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	// The serve goroutines may still be returning; the gauges must be
	// unregistered within a bounded window.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := scrape(t, srv2.URL)
		if !strings.Contains(body, "parbmc_worker_hardness{") {
			if !strings.Contains(body, `parbmc_worker_jobs_total{worker="slow"}`) {
				t.Fatalf("job counter history lost with the gauges:\n%s", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker gauges still scraped after the run:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
