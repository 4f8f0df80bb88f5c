package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sat"
	"repro/prog"
)

// esOpts is eliminationstack u=2 c=4 in 8 partitions: SAFE, a template
// whose pass eliminates thousands of variables, and a couple of hundred
// conflicts left to every partition.
func esOpts() CoordinatorOptions {
	return CoordinatorOptions{Unwind: 2, Contexts: 4, Partitions: 8, ChunkSize: 1}
}

// runWorkers runs n honest workers against addr to the end of the run.
func runWorkers(t *testing.T, addr string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := runWorker(t, addr, fmt.Sprintf("w%d", i), nil, 0); err != nil {
				t.Errorf("worker w%d: %v", i, err)
			}
		}()
	}
	wg.Wait()
}

// searchCounters is what identifies a partition's search.
type searchCounters struct{ conflicts, propagations, decisions, restarts int64 }

// A partition's search is a function of the run's template and the
// partition — not of the worker it landed on, the jobs that worker ran
// before, the chunking, whether proofs are logged, or a hedge twin that
// lost — so every row the coordinator files equals the in-process
// runner's for the same formula, and RemoteStats their sum: what the
// templates themselves did is counted beside them, once per worker.
func TestDistributedCubeCountersMatchInProcess(t *testing.T) {
	p := bench.Eliminationstack()
	base := esOpts()
	v, err := newCertVerifier(p, base)
	if err != nil {
		t.Fatal(err)
	}
	// The in-process run of the same formula with the same freeze set: a
	// distributed run leaves every split literal to its cubes.
	pres, err := parallel.Solve(context.Background(), v.formula, v.parts, parallel.Options{Workers: 2, SplitLits: v.splitLits})
	if err != nil || pres.Status != sat.Unsat {
		t.Fatalf("in process: %v, %v", pres, err)
	}
	want := map[int]searchCounters{}
	var sum searchCounters
	for _, inst := range pres.Instances {
		c := searchCounters{inst.Stats.Conflicts, inst.Stats.Propagations, inst.Stats.Decisions, inst.Stats.Restarts}
		if c.conflicts == 0 {
			t.Fatalf("partition %d has no search to compare", inst.Partition)
		}
		want[inst.Partition] = c
		sum.conflicts, sum.propagations = sum.conflicts+c.conflicts, sum.propagations+c.propagations
		sum.decisions, sum.restarts = sum.decisions+c.decisions, sum.restarts+c.restarts
	}

	type variant struct {
		name    string
		workers int
		edit    func(*CoordinatorOptions)
		plan    *FaultPlan // of worker w0
	}
	variants := []variant{
		{"1 worker, uncertified", 1, func(o *CoordinatorOptions) { o.Certify = CertifyPolicy{Mode: CertifyOff} }, nil},
		{"2 workers", 2, func(o *CoordinatorOptions) {}, nil},
		{"3 workers, chunks of 2", 3, func(o *CoordinatorOptions) { o.ChunkSize = 2 }, nil},
		{"2 workers, chunks of 2, uncertified", 2, func(o *CoordinatorOptions) {
			o.ChunkSize, o.Certify = 2, CertifyPolicy{Mode: CertifyOff}
		}, nil},
		// w0 sits on its second job until the idle w1 duplicates it and
		// wins; the loser's acknowledged cancel carries no search.
		{"2 workers, one hedged duplicate", 2, func(o *CoordinatorOptions) {
			*o = fastFailureOpts(*o)
			o.Hedge, o.Split = true, partition.SplitPolicy{Grace: 100 * time.Millisecond}
		}, SlowAt(20*time.Second, 1)},
	}
	for _, vr := range variants {
		t.Run(vr.name, func(t *testing.T) {
			opts := base
			vr.edit(&opts)
			rec := report.NewRecorder()
			opts.Report = rec
			addr, resCh := startCoordinator(t, p, opts)
			var wg sync.WaitGroup
			for i := 0; i < vr.workers; i++ {
				var plan *FaultPlan
				if i == 0 {
					plan = vr.plan
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := runWorker(t, addr, fmt.Sprintf("w%d", i), plan, 0); err != nil {
						t.Errorf("worker w%d: %v", i, err)
					}
				}()
			}
			res := waitResult(t, resCh)
			wg.Wait()
			if res.Verdict != core.Safe || res.CertRejected != 0 || res.Reassigned != 0 {
				t.Fatalf("verdict %v, %d rejected, %d reassigned", res.Verdict, res.CertRejected, res.Reassigned)
			}
			if vr.plan != nil && res.Hedges == 0 {
				t.Fatal("no cube was hedged")
			}
			rows := rec.Build().Partitions
			if len(rows) != len(want) {
				t.Fatalf("%d partition rows, want %d", len(rows), len(want))
			}
			for _, row := range rows {
				got := searchCounters{row.Conflicts, row.Propagations, row.Decisions, row.Restarts}
				if got != want[row.Partition] {
					t.Errorf("partition %d on %s: %+v, in process %+v", row.Partition, row.Worker, got, want[row.Partition])
				}
				if row.ElimVars != 0 || row.Simplified != 0 {
					t.Errorf("partition %d claims the template's eliminations: %+v", row.Partition, row)
				}
			}
			rs := res.RemoteStats
			if got := (searchCounters{rs.Conflicts, rs.Propagations, rs.Decisions, rs.Restarts}); got != sum {
				t.Errorf("RemoteStats %+v, the in-process sum %+v", got, sum)
			}
			if len(res.Templates) == 0 || len(res.Templates) > vr.workers {
				t.Fatalf("%d templates reported by %d workers: %+v", len(res.Templates), vr.workers, res.Templates)
			}
			for _, tpl := range res.Templates {
				if tpl.ElimVars != pres.Template.Stats.ElimVars || tpl.ClausesOut != pres.Template.ClausesOut {
					t.Errorf("template of %s: %+v, in process %+v", tpl.Worker, tpl, pres.Template)
				}
			}
		})
	}
}

// One row, two executors: what a worker's prepared run makes of its
// instances in process (core.PartitionRow) is, counter for counter, the
// row the coordinator files after the same instance crossed the wire as
// a job's result — a field dropped at the worker, on the wire or at the
// coordinator's stamp shows here — and the stamp adds what only the
// coordinator knows: the worker, and under full certification that the
// partition's proof checked.
func TestPartitionRowsAgreeAcrossExecutors(t *testing.T) {
	p := prog.MustParse(fibSrc)
	const n = 4
	base := CoordinatorOptions{Unwind: 3, Contexts: 3, Partitions: n, ChunkSize: 1}
	opts := workerRun(base.Unwind, base.Contexts, base.Width, n, journal.Budget{}, false)
	prep, err := core.Prepare(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.From, opts.To = 0, n
	local, err := prep.Run(context.Background(), opts)
	if err != nil || local.Verdict != core.Safe || len(local.Instances) != n {
		t.Fatalf("in process: %+v, %v", local, err)
	}
	var decisions int64
	for _, inst := range local.Instances {
		decisions += inst.Stats.Decisions
	}
	if decisions == 0 {
		t.Fatal("no partition decided anything: there is no search to compare")
	}

	for _, mode := range []string{CertifyOff, CertifyFull} {
		t.Run(mode, func(t *testing.T) {
			o, rec := base, report.NewRecorder()
			o.Certify, o.Report = CertifyPolicy{Mode: mode}, rec
			addr, resCh := startCoordinator(t, p, o)
			runWorkers(t, addr, 1)
			if res := waitResult(t, resCh); res.Verdict != core.Safe || res.Jobs != n {
				t.Fatalf("verdict %v after %d jobs", res.Verdict, res.Jobs)
			}
			rows := rec.Build().Partitions
			if len(rows) != n {
				t.Fatalf("%d rows, want %d", len(rows), n)
			}
			for i, got := range rows {
				want := core.PartitionRow(local.Instances[i])
				if got.Worker != "w0" || got.Certified != (mode == CertifyFull) {
					t.Errorf("partition %d: stamped worker %q certified %v under %s", got.Partition, got.Worker, got.Certified, mode)
				}
				// What the coordinator stamps and what a clock measures apart,
				// the two rows are one.
				got.Worker, got.Certified = "", false
				got.SolveMillis, got.Hardness, got.ConflictRate = want.SolveMillis, want.Hardness, want.ConflictRate
				if got != want {
					t.Errorf("partition %d: the coordinator filed %+v, in process %+v", got.Partition, got, want)
				}
			}
		})
	}
}

// The prefix is never on the wire because both ends can derive it: what
// a worker's template logs and what the coordinator's does are the same
// proof, lemma for lemma and deletion for deletion — whichever job the
// worker prepared the run for, and also under a memory budget with no
// room for the pass, which both then skip — and the digest the
// coordinator derives while it streams its own into the checker is the
// digest of that proof.
func TestCoordinatorDerivesWorkerPrefix(t *testing.T) {
	for _, cell := range []struct {
		name   string
		p      *prog.Program
		opts   CoordinatorOptions
		noPass int64 // MiB: room for the solver, not for the pass beside it
	}{
		{"es.u2.c4.p8", bench.Eliminationstack(), CoordinatorOptions{Unwind: 2, Contexts: 4, Partitions: 8}, 4},
		{"fib2.u2.c6.p4", bench.Fibonacci(2), CoordinatorOptions{Unwind: 2, Contexts: 6, Partitions: 4}, 1},
	} {
		for _, memMB := range []int64{0, cell.noPass} {
			t.Run(fmt.Sprintf("%s/mem=%d", cell.name, memMB), func(t *testing.T) {
				opts := cell.opts
				opts.Budget = journal.Budget{MemMB: memMB}
				v, err := newCertVerifier(cell.p, opts)
				if err != nil {
					t.Fatal(err)
				}
				own, err := v.prep.Template().Prefix(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if (len(own.Lemmas) == 0) != (memMB != 0) {
					t.Fatalf("the coordinator's prefix has %d lemmas under a %d MiB budget", len(own.Lemmas), memMB)
				}
				// A worker, prepared by a job for the last partition alone.
				m := &Message{Source: prog.Format(cell.p), Unwind: opts.Unwind, Contexts: opts.Contexts,
					Partitions: opts.Partitions, From: opts.Partitions - 1, To: opts.Partitions - 1, Certify: CertifyFull}
				m.setBudget(opts.Budget)
				_, proofs := runKey(m)
				wopts := workerRun(m.Unwind, m.Contexts, m.Width, m.Partitions, m.budget(), proofs)
				wopts.From, wopts.To = m.From, m.To+1
				parsed, err := prog.Parse(m.Source)
				if err != nil {
					t.Fatal(err)
				}
				wprep, err := core.Prepare(parsed, wopts)
				if err != nil {
					t.Fatal(err)
				}
				theirs, err := wprep.Template().Prefix(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(own.Lemmas, theirs.Lemmas) || !reflect.DeepEqual(own.Deletes, theirs.Deletes) {
					t.Fatalf("the worker logged %d lemmas and %d deletions, the coordinator %d and %d, or not the same ones",
						len(theirs.Lemmas), len(theirs.Deletes), len(own.Lemmas), len(own.Deletes))
				}
				// The coordinator proper never holds the log: it streams.
				streaming, err := newCertVerifier(cell.p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := streaming.derive(context.Background()); err != nil {
					t.Fatal(err)
				}
				if streaming.prefix != own.Digest() || streaming.prefix != theirs.Digest() {
					t.Fatalf("derived digest %+v, of the kept log %+v", streaming.prefix, own.Digest())
				}
				if _, err := streaming.prep.Template().Prefix(context.Background()); err == nil {
					t.Fatal("a streamed prefix was kept all the same")
				}
			})
		}
	}
}

// A worker whose template is not the coordinator's — here one that
// prepared the run under a memory budget of its own, with no room for
// the pass — proves its verdicts honestly and to no avail: its first
// certificate is refused for what it is, a template mismatch, it is not
// handed a second job, the cube goes back on the queue at no cost to its
// attempt budget, and an honest worker finishes the run SAFE, every cube
// certified.
func TestUntrustedTemplateMismatch(t *testing.T) {
	p := bench.Eliminationstack()
	opts := esOpts()
	opts.MaxAttempts = 1 // a charged attempt would quarantine the cube
	rec := report.NewRecorder()
	opts.Report = rec
	addr, resCh := startCoordinator(t, p, opts)
	plan := &FaultPlan{Every: &FaultEvent{Kind: FaultOtherTemplate, MemMB: 4}}
	n, err := runWorker(t, addr, "other", plan, 0)
	if err != nil || n != 1 {
		t.Fatalf("the worker with the other template ran %d jobs (%v); want a clean stop after one", n, err)
	}
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe || res.Certified != res.ChunksTotal || len(res.Quarantined) != 0 {
		t.Fatalf("verdict %v, %d of %d certified, quarantined %+v", res.Verdict, res.Certified, res.ChunksTotal, res.Quarantined)
	}
	if res.CertRejected != 1 || res.Reassigned != 1 {
		t.Fatalf("%d certificates rejected, %d cubes reassigned; want one of each", res.CertRejected, res.Reassigned)
	}
	other := findWorker(res, "other")
	if other == nil || !other.Untrusted || other.Jobs != 0 {
		t.Fatalf("health of the worker with the other template: %+v", other)
	}
	if len(res.Templates) != 1 || res.Templates[0].Worker != "honest" {
		t.Fatalf("templates %+v: a refused result's must not be counted", res.Templates)
	}
}

// The reason an operator reads says which of the two it was.
func TestCertificateRejectionNamesTheTemplate(t *testing.T) {
	p, opts := bench.Eliminationstack(), esOpts()
	v, err := newCertVerifier(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.derive(context.Background()); err != nil {
		t.Fatal(err)
	}
	cube := partition.Cube{From: 2, To: 2}
	other := opts
	other.Budget.MemMB = 4
	_, err = v.verifySafe(cube, workerCertificate(t, p, other, cube))
	if err == nil || !strings.Contains(err.Error(), "template mismatch") {
		t.Fatalf("certificate over another budget's template: %v", err)
	}
	honest := workerCertificate(t, p, opts, cube)
	if _, err := v.verifySafe(cube, honest); err != nil {
		t.Fatalf("honest certificate: %v", err)
	}
	// The tail of another cube, under the right template.
	wrong := *honest
	wrong.Proofs = []PartitionProof{{Partition: 2, Proof: workerCertificate(t, p, opts, partition.Cube{From: 5, To: 5}).Proofs[0].Proof}}
	if _, err := v.verifySafe(cube, &wrong); err == nil || strings.Contains(err.Error(), "template mismatch") {
		t.Fatalf("another cube's tail: %v, want a proof that does not check", err)
	}
}

// A lemma index beyond the proof is counted round it, and a proof with
// no lemma to flip has the prefix it claims falsified: the fault fires
// on every SAFE certificate, which byzantineScenarioOn insists on.
func TestByzantineFlippedLemmaAlwaysFires(t *testing.T) {
	t.Run("beyond the tail", func(t *testing.T) {
		res := byzantineScenarioOn(t, bench.Eliminationstack(), esOpts(),
			&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipLemma, Lemma: 1<<30 + 1}}}, core.Safe)
		// The forged lemma kept the honest one's hint, so it went the way a
		// liar's goes: not refuted within the hint, not refuted at all.
		if res.CertifyWork.Fallbacks == 0 {
			t.Fatalf("certify work %+v: the forged lemma never reached the full test", res.CertifyWork)
		}
	})
	t.Run("empty tail", func(t *testing.T) {
		// fib u=1 c=3 is refuted by the template's pass: no tail has a lemma.
		res := byzantineScenario(t, CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2},
			&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipLemma, Lemma: 3}}}, core.Safe)
		if res.RemoteStats.Learnt != 0 {
			t.Fatalf("%d lemmas learnt remotely: the cell no longer has empty tails", res.RemoteStats.Learnt)
		}
	})
}

// hintRun runs esOpts' cell to the end on one worker under plan and
// returns the result with what /metrics says of the hints that failed.
func hintRun(t *testing.T, plan *FaultPlan) (*CoordinatorResult, float64) {
	t.Helper()
	opts, reg := esOpts(), obs.NewRegistry()
	opts.Metrics = reg
	addr, resCh := startCoordinator(t, bench.Eliminationstack(), opts)
	if _, err := runWorker(t, addr, "w0", plan, 0); err != nil {
		t.Fatalf("worker: %v", err)
	}
	res := waitResult(t, resCh)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	fallbacks, ok := metricValue(buf.String(), "parbmc_certify_hint_fallbacks_total")
	if !ok {
		t.Fatal("no parbmc_certify_hint_fallbacks_total on /metrics")
	}
	return res, fallbacks
}

// Hostile hints are the one lie a worker is not refused for: the proofs
// are honest, so every chunk is certified, the worker stays trusted, and
// the verdict and every solver counter are those of the honest run. What
// the lie costs shows where it should — fallbacks, and the propagations
// they take — and an honest fleet shows none: every learnt lemma is
// refuted within its hint.
func TestByzantineHostileHintsAccepted(t *testing.T) {
	honest, honestMetric := hintRun(t, nil)
	hostile, hostileMetric := hintRun(t, &FaultPlan{Every: &FaultEvent{Kind: FaultHostileHints}})
	if honestMetric != 0 || int64(hostileMetric) != hostile.CertifyWork.Fallbacks {
		t.Fatalf("parbmc_certify_hint_fallbacks_total: %v honest, %v hostile; the result says %d", honestMetric, hostileMetric, hostile.CertifyWork.Fallbacks)
	}
	for name, res := range map[string]*CoordinatorResult{"honest": honest, "hostile": hostile} {
		if res.Verdict != core.Safe || res.Certified != res.ChunksTotal || res.CertRejected != 0 || res.CertBytes == 0 {
			t.Fatalf("%s hints: verdict %v, %d of %d chunks certified, %d certificates rejected, %d bytes accepted",
				name, res.Verdict, res.Certified, res.ChunksTotal, res.CertRejected, res.CertBytes)
		}
		if w := findWorker(res, "w0"); w == nil || w.Untrusted || w.CertRejections != 0 {
			t.Fatalf("%s hints: worker health %+v", name, w)
		}
	}
	if got, want := hostile.RemoteStats, honest.RemoteStats; got.Conflicts != want.Conflicts || got.Propagations != want.Propagations ||
		got.Decisions != want.Decisions || got.Restarts != want.Restarts || got.Learnt != want.Learnt {
		t.Fatalf("the search moved with the hints:\n%+v\n%+v", got, want)
	}
	if w := honest.CertifyWork; w.Fallbacks != 0 || w.Hinted != honest.RemoteStats.Learnt {
		t.Fatalf("honest hints: %+v for %d learnt lemmas; want every one refuted within its hint", w, honest.RemoteStats.Learnt)
	}
	if h, w := hostile.CertifyWork, honest.CertifyWork; h.Lemmas != w.Lemmas || h.Fallbacks == 0 || h.Propagations <= w.Propagations {
		t.Fatalf("hostile hints: %+v, honest %+v; want the same lemmas, fallbacks, and more propagations", h, w)
	}
	t.Logf("%d lemmas learnt; honest hints %+v, %d bytes; hostile %+v, %d bytes",
		honest.RemoteStats.Learnt, honest.CertifyWork, honest.CertBytes, hostile.CertifyWork, hostile.CertBytes)
}

// templateSpans counts the template builds in a worker's trace.
func templateSpans(events []obs.Event) (n int) {
	for _, e := range events {
		if e.Name == "template" {
			n++
		}
	}
	return n
}

// Under sampling a worker's jobs alternate between the level that ships
// proofs and the one that does not; the run certifies either way, so
// one proof-logging template, prepared once, serves both.
func TestCertifySampleModePreparesOnce(t *testing.T) {
	p := bench.Eliminationstack()
	opts := esOpts()
	opts.Certify = CertifyPolicy{Mode: CertifyFull, SampleEvery: 2}
	addr, resCh := startCoordinator(t, p, opts)
	sink := obs.NewCollectorSink()
	if _, err := Work(context.Background(), addr, WorkerOptions{Name: "sampled", Cores: 1, Tracer: obs.NewTracer(sink)}); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe || res.Certified != 4 || res.CertRejected != 0 || res.Jobs != 8 {
		t.Fatalf("verdict %v, %d certified (want 4 of 8 sampled), %d rejected, %d jobs", res.Verdict, res.Certified, res.CertRejected, res.Jobs)
	}
	if n := templateSpans(sink.Events()); n != 1 || len(res.Templates) != 1 {
		t.Fatalf("%d template spans in the worker's trace, %d templates reported: want one", n, len(res.Templates))
	}
}

// cancelAfterSpan cancels a context a moment after a span of the given
// name ends.
type cancelAfterSpan struct {
	name   string
	after  time.Duration
	cancel context.CancelFunc
}

func (c cancelAfterSpan) Emit(e obs.Event) {
	if e.Name == c.name {
		time.AfterFunc(c.after, c.cancel)
	}
}

// A cancel that lands while the template is being built — here a few
// milliseconds after the run was prepared, into the load or the pass on
// 75 000 clauses — discards it with what it would take to build it
// again, and the worker's next job starts over; what the first job
// reports is an acknowledged cancel.
func TestCancelDuringWorkerTemplateBuild(t *testing.T) {
	p := bench.Eliminationstack()
	m := &Message{Type: "job", JobID: 1, Source: prog.Format(p), Unwind: 2, Contexts: 6, Partitions: 8, Certify: CertifyFull}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &worker{opts: WorkerOptions{Cores: 1,
		Tracer: obs.NewTracer(cancelAfterSpan{name: "partition", after: 5 * time.Millisecond, cancel: cancel})}}
	reply, cert := w.runJob(ctx, m, nil, nil, nil)
	if reply.Error != "" || reply.Verdict != core.Unknown.String() || reply.Cause != sat.CauseCancelled.String() || cert != nil {
		t.Fatalf("cancelled job: %+v, certificate %v", reply, cert)
	}
	if w.run != nil || reply.Template != nil {
		t.Fatalf("the worker kept the run (%v) of a template whose build was cut short, or reported it: %+v", w.run != nil, reply.Template)
	}
	m.JobID, m.From, m.To = 2, 3, 3
	reply, cert = w.runJob(context.Background(), m, nil, nil, nil)
	if reply.Error != "" || reply.Verdict != core.Safe.String() || cert == nil || cert.Prefix == nil || reply.Template == nil {
		t.Fatalf("the job after: %+v, certificate %+v", reply, cert)
	}
	if w.run == nil {
		t.Fatal("the worker holds no run after a job that built its template")
	}
}

// The watchdog trips during a cube: the job comes back as a memory
// give-up — which a coordinator that set no memory budget re-queues
// (TestWatchdogAbortIsRequeued) — the template goes with the cube's
// solver, and the worker's next job builds it again.
func TestWatchdogTripRebuildsTemplate(t *testing.T) {
	p := bench.Eliminationstack()
	m := &Message{Type: "job", JobID: 1, Source: prog.Format(p), Unwind: 2, Contexts: 4, Partitions: 8, From: 1, To: 1}
	w := &worker{opts: WorkerOptions{Cores: 1}}
	if reply, _ := w.runJob(context.Background(), m, nil, nil, nil); reply.Verdict != core.Safe.String() || reply.Template == nil {
		t.Fatalf("first job: %+v", reply)
	}
	held := w.run
	tripped := make(chan struct{})
	close(tripped)
	m.JobID, m.From, m.To = 2, 2, 2
	reply, _ := w.runJob(context.Background(), m, nil, nil, tripped)
	if reply.Verdict != core.Unknown.String() || reply.Cause != sat.CauseMemory.String() || reply.Template != nil {
		t.Fatalf("job under a tripped watchdog: %+v", reply)
	}
	if held == nil || w.run != nil {
		t.Fatal("the template outlived the watchdog's trip")
	}
	m.JobID = 3
	if reply, _ := w.runJob(context.Background(), m, nil, nil, nil); reply.Verdict != core.Safe.String() || reply.Template == nil {
		t.Fatalf("the job after: %+v, want the cube decided on a template built again", reply)
	}

}

// The template is the run's, not the connection's: a worker that loses
// its primary mid-run and re-homes to the standby that continues the
// same run goes on with the template it has — one build in its trace,
// none reported to the second coordinator — and the standby, which
// derives its own checker when it takes over, certifies what is left.
func TestHATemplateSurvivesFailover(t *testing.T) {
	p := bench.Eliminationstack()
	dir := t.TempDir()
	leasePath := filepath.Join(dir, "lease.json")
	lnA, lnB := listen(t), listen(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	ha := func(sub string) CoordinatorOptions {
		opts := haFastOpts(t, filepath.Join(dir, sub))
		opts.Unwind, opts.Contexts, opts.Partitions = 2, 4, 8
		return opts
	}
	optsA, optsB := ha("a"), ha("b")
	optsA.Faults = &CoordinatorFaultPlan{KillAfterJobs: 3}

	ctx := context.Background()
	errA := make(chan error, 1)
	go func() {
		_, err := RunHA(ctx, lnA, p, optsA, HAOptions{LeasePath: leasePath, Holder: "alpha", Addr: addrA, LeaseTTL: 400 * time.Millisecond})
		errA <- err
	}()
	waitLeaseHolder(t, leasePath, "alpha")
	type outcome struct {
		res *CoordinatorResult
		err error
	}
	resB := make(chan outcome, 1)
	go func() {
		res, err := RunHA(ctx, lnB, p, optsB, HAOptions{LeasePath: leasePath, Holder: "beta", Addr: addrB, LeaseTTL: 400 * time.Millisecond, State: &HAState{}})
		resB <- outcome{res, err}
	}()

	sink := obs.NewCollectorSink()
	jobs, err := Work(ctx, addrA+","+addrB, WorkerOptions{
		Name: "w0", MaxReconnects: 10, ReconnectBackoff: 25 * time.Millisecond, ReconnectTimeout: 60 * time.Second,
		Tracer: obs.NewTracer(sink),
	})
	if err != nil || jobs < 4 {
		t.Fatalf("worker: %d jobs, %v; want it to have served both primaries", jobs, err)
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
	if b.err != nil {
		t.Fatalf("standby: %v", b.err)
	}
	if b.res.Verdict != core.Safe || b.res.CertRejected != 0 || b.res.Jobs == 0 || b.res.Certified != b.res.Jobs {
		t.Fatalf("standby: verdict %v, %d jobs of which %d certified, %d rejected", b.res.Verdict, b.res.Jobs, b.res.Certified, b.res.CertRejected)
	}
	if n := templateSpans(sink.Events()); n != 1 || len(b.res.Templates) != 0 {
		t.Fatalf("%d template builds in the worker's trace, %d reported to the standby: want the one it made for the first primary",
			n, len(b.res.Templates))
	}
}
