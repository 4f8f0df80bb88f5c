package distrib

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/prog"
)

const fibSrc = `
int i, j;
void t1() {
  int k = 0;
  while (k < 1) { i = i + j; k = k + 1; }
}
void t2() {
  int k = 0;
  while (k < 1) { j = j + i; k = k + 1; }
}
void main() {
  int tid1, tid2;
  i = 1;
  j = 1;
  tid1 = create(t1);
  tid2 = create(t2);
  join(tid1);
  join(tid2);
  assert(j < 3);
  assert(i < 3);
}
`

func startCoordinator(t *testing.T, p *prog.Program, opts CoordinatorOptions) (string, <-chan *CoordinatorResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan *CoordinatorResult, 1)
	go func() {
		res, err := Coordinate(context.Background(), ln, p, opts)
		if err != nil {
			t.Errorf("coordinator: %v", err)
		}
		ch <- res
	}()
	return ln.Addr().String(), ch
}

// fastFailureOpts are coordinator knobs scaled down so churn scenarios
// resolve in milliseconds rather than minutes.
func fastFailureOpts(opts CoordinatorOptions) CoordinatorOptions {
	opts.HeartbeatInterval = 50 * time.Millisecond
	opts.HeartbeatGrace = 250 * time.Millisecond
	opts.DrainTimeout = 2 * time.Second
	return opts
}

func waitResult(t *testing.T, resCh <-chan *CoordinatorResult) *CoordinatorResult {
	t.Helper()
	select {
	case res := <-resCh:
		return res
	case <-time.After(90 * time.Second):
		t.Fatal("distributed run did not finish")
		return nil
	}
}

func TestDistributedUnsafe(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 4, Partitions: 8, ChunkSize: 2,
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = Work(context.Background(), addr, WorkerOptions{Name: "w", Cores: 1})
		}(i)
	}
	res := waitResult(t, resCh)
	wg.Wait()
	if res.Verdict != core.Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Winner < 0 || res.Winner >= 8 {
		t.Fatalf("winner %d", res.Winner)
	}
}

func TestDistributedSafe(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	})
	var jobs int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := Work(context.Background(), addr, WorkerOptions{Name: "w" + string(rune('0'+i)), Cores: 1})
			if err != nil {
				t.Errorf("worker: %v", err)
			}
			mu.Lock()
			jobs += n
			mu.Unlock()
		}(i)
	}
	res := waitResult(t, resCh)
	wg.Wait()
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if jobs != 4 {
		t.Fatalf("jobs completed: %d, want 4", jobs)
	}
	if res.Jobs != 4 {
		t.Fatalf("coordinator jobs: %d", res.Jobs)
	}
	var healthJobs int
	for _, w := range res.Workers {
		healthJobs += w.Jobs
	}
	if len(res.Workers) != 2 || healthJobs != 4 {
		t.Fatalf("worker health %+v, want 2 workers with 4 jobs total", res.Workers)
	}
	for _, n := range res.Attempts {
		if n != 1 {
			t.Fatalf("attempts %v, want 1 per chunk", res.Attempts)
		}
	}
}

// Mid-job drop: the worker crashes on receiving its second job, then
// reconnects with backoff and picks the abandoned chunk back up — the
// whole run is served by one (reconnecting) worker.
func TestDistributedDropMidJobReconnect(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	}))
	done := make(chan error, 1)
	go func() {
		_, err := Work(context.Background(), addr, WorkerOptions{
			Name:             "churny",
			Faults:           &FaultPlan{Seed: 7, Events: []FaultEvent{{Job: 1, Kind: FaultDrop}}},
			MaxReconnects:    5,
			ReconnectBackoff: 20 * time.Millisecond,
		})
		done <- err
	}()
	res := waitResult(t, resCh)
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Reassigned < 1 {
		t.Fatalf("reassigned %d, want >= 1", res.Reassigned)
	}
	if len(res.Workers) != 1 || res.Workers[0].Connections < 2 {
		t.Fatalf("worker health %+v, want one worker with >= 2 connections", res.Workers)
	}
	if res.Workers[0].Failures < 1 {
		t.Fatalf("worker health %+v, want >= 1 recorded failure", res.Workers)
	}
}

// Stalled worker: one worker goes silent (no heartbeats, no result) far
// longer than the heartbeat grace but far shorter than the 10-minute
// JobTimeout. The run only finishes promptly if the heartbeat monitor —
// not the job timeout — evicts the stalled connection.
func TestDistributedStalledWorkerCaughtByHeartbeat(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	claimed := make(chan struct{})
	go func() {
		_, _ = Work(ctx, addr, WorkerOptions{
			Name: "staller",
			Faults: &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultStall, Stall: 20 * time.Second}},
				OnFire: func(FaultEvent) { close(claimed) }},
		})
	}()
	<-claimed // the staller holds a chunk before the healthy worker joins
	go func() {
		_, _ = Work(ctx, addr, WorkerOptions{Name: "healthy"})
	}()
	start := time.Now()
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("run took %v: stalled worker was not evicted by heartbeat", elapsed)
	}
	if res.Reassigned < 1 {
		t.Fatalf("reassigned %d, want >= 1", res.Reassigned)
	}
	for _, w := range res.Workers {
		if w.Name == "staller" && w.Failures < 1 {
			t.Fatalf("staller health %+v, want a recorded failure", w)
		}
	}
}

// Corrupt frame: the worker answers its first job with a malformed
// line; the coordinator must fail the attempt and let a healthy worker
// finish the run.
func TestDistributedCorruptFrameReassigned(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	}))
	claimed := make(chan struct{})
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{
			Name: "corruptor",
			Faults: &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultCorrupt}},
				OnFire: func(FaultEvent) { close(claimed) }},
		})
	}()
	<-claimed // the corruptor holds a chunk before the healthy worker joins
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "healthy"})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Reassigned < 1 {
		t.Fatalf("reassigned %d, want >= 1", res.Reassigned)
	}
}

// Failure before hello: peers that connect and send garbage (or nothing
// at all) must not disturb the run or the health registry.
func TestDistributedFailureBeforeHello(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	}))
	// One peer sends a non-hello line, one disconnects silently.
	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Write([]byte("not json\n")); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "healthy"})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(res.Workers) != 1 {
		t.Fatalf("worker health %+v, want only the real worker", res.Workers)
	}
	if res.Reassigned != 0 {
		t.Fatalf("reassigned %d, want 0", res.Reassigned)
	}
}

// Stale result: a worker replying with the wrong JobID must not have its
// answer credited to the outstanding chunk.
func TestDistributedStaleResultRejected(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	}))
	// A hand-rolled worker: hello, take a job, answer Safe under a bogus
	// JobID. If the coordinator accepted it, the chunk would (wrongly)
	// count as refuted.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wc := newConn(c, 5*time.Second)
	if err := wc.send(&Message{Type: "hello", WorkerName: "liar"}); err != nil {
		t.Fatal(err)
	}
	welcome, err := wc.recv(10 * time.Second)
	if err != nil || welcome.Type != "welcome" {
		t.Fatalf("expected welcome, got %v (%v)", welcome, err)
	}
	job, err := wc.recv(10 * time.Second)
	if err != nil || job.Type != "job" {
		t.Fatalf("expected job, got %v (%v)", job, err)
	}
	if err := wc.send(&Message{Type: "result", JobID: job.JobID + 1000, Verdict: sat.Unsat.String(), Winner: -1}); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{Name: "healthy"})
	}()
	res := waitResult(t, resCh)
	wc.close()
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Jobs != 4 {
		t.Fatalf("coordinator jobs %d, want 4 (stale result must not be credited)", res.Jobs)
	}
	if res.Reassigned < 1 {
		t.Fatalf("reassigned %d, want >= 1", res.Reassigned)
	}
	for _, w := range res.Workers {
		if w.Name == "liar" && w.Failures < 1 {
			t.Fatalf("liar health %+v, want a recorded failure", w)
		}
	}
}

// Poison-chunk / total-churn scenario (the acceptance criterion): every
// job attempt is killed mid-job, so every chunk hits its attempt budget.
// The run must terminate with a clean Unknown and a populated failure
// log — never a hang or an unbounded reassignment loop.
func TestDistributedPoisonChunksQuarantined(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 2, ChunkSize: 1,
		MaxAttempts: 2,
	}))
	// The worker drops on every job it ever receives, reconnecting each
	// time: 2 chunks x 2 attempts = 4 drops before everything is
	// quarantined.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Work(context.Background(), addr, WorkerOptions{
			Name:             "killer",
			Faults:           DropAt(0, 1, 2, 3, 4, 5, 6, 7),
			MaxReconnects:    6,
			ReconnectBackoff: 10 * time.Millisecond,
		})
	}()
	res := waitResult(t, resCh)
	<-done
	if res.Verdict != core.Unknown {
		t.Fatalf("verdict %v, want Unknown", res.Verdict)
	}
	if len(res.Quarantined) != 2 {
		t.Fatalf("failure log %+v, want 2 quarantined chunks", res.Quarantined)
	}
	for _, q := range res.Quarantined {
		if q.Attempts != 2 {
			t.Fatalf("chunk %v quarantined after %d attempts, want 2", q.Chunk, q.Attempts)
		}
		if len(q.Errors) != 2 {
			t.Fatalf("chunk %v has %d error entries, want 2", q.Chunk, len(q.Errors))
		}
		for _, e := range q.Errors {
			if !strings.Contains(e, "killer") {
				t.Fatalf("failure reason %q does not name the worker", e)
			}
		}
	}
	if res.Jobs != 0 {
		t.Fatalf("jobs %d, want 0", res.Jobs)
	}
}

// Drained workers: the only worker completes one job and dies without
// reconnecting. The old coordinator would block on Accept until ctx
// cancellation; now it must return Unknown once DrainTimeout elapses.
func TestDistributedDrainedWorkersReturnUnknown(t *testing.T) {
	p := prog.MustParse(fibSrc)
	opts := fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	})
	opts.DrainTimeout = 200 * time.Millisecond
	addr, resCh := startCoordinator(t, p, opts)
	go func() {
		_, _ = Work(context.Background(), addr, WorkerOptions{
			Name:   "quitter",
			Faults: DropAt(1),
		})
	}()
	res := waitResult(t, resCh)
	if res.Verdict != core.Unknown {
		t.Fatalf("verdict %v, want Unknown", res.Verdict)
	}
	if !res.Drained {
		t.Fatal("result not marked drained")
	}
	if res.Jobs != 1 {
		t.Fatalf("jobs %d, want 1", res.Jobs)
	}
}

// Reconnect jitter is a worker's own unless a fault plan fixes it:
// workers dropped together by one coordinator restart must not redial in
// lockstep, and a plan's Seed makes a churn scenario replay.
func TestReconnectJitterSeededPerWorker(t *testing.T) {
	delays := func(p *FaultPlan) []time.Duration {
		rng := p.jitter()
		var d []time.Duration
		for attempt := 1; attempt <= 8; attempt++ {
			d = append(d, backoffDelay(time.Second, attempt, rng))
		}
		return d
	}
	if a, b := delays(nil), delays(nil); slices.Equal(a, b) {
		t.Fatalf("two workers without a plan draw the same jitter: %v", a)
	}
	if a, b := delays(&FaultPlan{}), delays(&FaultPlan{}); slices.Equal(a, b) {
		t.Fatalf("two plans without a seed draw the same jitter: %v", a)
	}
	if a, b := delays(&FaultPlan{Seed: 7}), delays(&FaultPlan{Seed: 7}); !slices.Equal(a, b) {
		t.Fatalf("one seed, two jitter sequences: %v and %v", a, b)
	}
}

// A worker that dials only after the run ended is told so: for the drain
// window the coordinator answers a late hello with stop, and Work
// returns nil, not its reconnect error; after the window the port is
// closed. A run that did not end (its context was cancelled) tells no
// one it did: its port closes at once.
func TestLateWorkerLearnsTheRunEnded(t *testing.T) {
	p := prog.MustParse(fibSrc)
	opts := fastFailureOpts(CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 2, ChunkSize: 1})
	opts.DrainTimeout = 500 * time.Millisecond
	addr, resCh := startCoordinator(t, p, opts)
	if _, err := Work(context.Background(), addr, WorkerOptions{Name: "w"}); err != nil {
		t.Fatal(err)
	}
	if res := waitResult(t, resCh); res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if jobs, err := Work(context.Background(), addr, WorkerOptions{Name: "late"}); jobs != 0 || err != nil {
		t.Fatalf("late worker: %d jobs, %v; want it told the run is over", jobs, err)
	}
	time.Sleep(opts.DrainTimeout + 200*time.Millisecond)
	if _, err := Work(context.Background(), addr, WorkerOptions{Name: "later"}); err == nil {
		t.Fatal("a worker past the drain window was answered")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if res, err := Coordinate(ctx, ln, p, opts); err != nil || res.Verdict != core.Unknown {
		t.Fatalf("cancelled run: %+v, %v", res, err)
	}
	if _, err := Work(context.Background(), ln.Addr().String(), WorkerOptions{Name: "late"}); err == nil {
		t.Fatal("a cancelled run told a late worker it had ended")
	}
}

// A worker that can never reach the coordinator must give up after its
// reconnect budget instead of retrying forever.
func TestWorkerReconnectGivesUp(t *testing.T) {
	start := time.Now()
	_, err := Work(context.Background(), "127.0.0.1:1", WorkerOptions{
		MaxReconnects:    2,
		ReconnectBackoff: 10 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("expected error after exhausting reconnect budget")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("error %v, want reconnect give-up", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("reconnect loop ran too long")
	}
}

func TestFrameSizeCap(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		line := make([]byte, 10*1024)
		for i := range line {
			line[i] = 'x'
		}
		line[len(line)-1] = '\n'
		_, _ = b.Write(line)
	}()
	wc := newConn(a, time.Second)
	wc.maxFrame = 4096
	_, err := wc.recv(5 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "frame exceeds") {
		t.Fatalf("err %v, want frame-size error", err)
	}
}

func TestDistributedBenchmarkProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	b := bench.BoundedbufferBench()
	addr, resCh := startCoordinator(t, b.Program, CoordinatorOptions{
		Unwind: 2, Contexts: 6, Partitions: 8, ChunkSize: 4,
	})
	for i := 0; i < 2; i++ {
		go func() { _, _ = Work(context.Background(), addr, WorkerOptions{Cores: 2}) }()
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestWorkerDialError(t *testing.T) {
	_, err := Work(context.Background(), "127.0.0.1:1", WorkerOptions{})
	if err == nil {
		t.Fatal("expected dial error")
	}
}

// A negative heartbeat interval is refused input, not a way to switch
// heartbeats off: the run is refused before the coordinator accepts a
// connection, creates its journal or, in an HA pair, takes the lease.
// The dial is queued on the listener first, so the test's own Accept
// finds it only if the coordinator never took it.
func TestCoordinatorRefusesNegativeKnobs(t *testing.T) {
	p := prog.MustParse(fibSrc)
	for _, tc := range []struct {
		name string
		opts CoordinatorOptions
		want string
	}{
		{"heartbeat", CoordinatorOptions{HeartbeatInterval: -time.Second}, "heartbeat interval"},
	} {
		for _, ha := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ha=%v", tc.name, ha), func(t *testing.T) {
				dir := t.TempDir()
				opts := tc.opts
				opts.Unwind, opts.Contexts, opts.Partitions = 1, 3, 4
				opts.JournalPath = filepath.Join(dir, "run.wal")
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				dialed, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				dialed.Close() // queued all the same; a coordinator serving it reads EOF
				// Were the knob taken, the run would wait for workers: the
				// deadline turns that into a failure, not a hang.
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				defer cancel()
				lease := filepath.Join(dir, "lease.json")
				if ha {
					_, err = RunHA(ctx, ln, p, opts, HAOptions{LeasePath: lease})
				} else {
					_, err = Coordinate(ctx, ln, p, opts)
				}
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("err %v, want the %s refused", err, tc.want)
				}
				for _, f := range []string{opts.JournalPath, lease} {
					if _, err := os.Stat(f); !os.IsNotExist(err) {
						t.Fatalf("%s exists after a refused run (stat: %v)", f, err)
					}
				}
				_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(2 * time.Second))
				c, err := ln.Accept()
				if err != nil {
					t.Fatalf("the queued dial is gone: the refused run accepted it (%v)", err)
				}
				c.Close()
			})
		}
	}
}
