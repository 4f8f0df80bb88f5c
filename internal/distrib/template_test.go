package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
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
// template itself did is counted beside them, once, the coordinator's,
// and each worker restored it from the same bytes.
func TestDistributedCubeCountersMatchInProcess(t *testing.T) {
	p := bench.Eliminationstack()
	base := esOpts()
	v, err := newCertVerifier(p, base)
	if err != nil {
		t.Fatal(err)
	}
	// The in-process run of the same formula with the same freeze set: a
	// distributed run leaves every split literal to its cubes.
	pres, err := parallel.Solve(context.Background(), formulaOf(t, v), v.prep.Partitions(),
		parallel.Options{Workers: 2, SplitLits: v.prep.SplitLits()})
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
			if tpl := res.Template; tpl.ElimVars != pres.Template.Stats.ElimVars || tpl.ClausesOut != pres.Template.ClausesOut {
				t.Errorf("the run's template %+v, in process %+v", tpl, pres.Template)
			}
			if len(res.Restores) == 0 || len(res.Restores) > vr.workers {
				t.Fatalf("%d restores reported by %d workers: %+v", len(res.Restores), vr.workers, res.Restores)
			}
			for _, r := range res.Restores {
				if r.Bytes != res.TemplateBytes {
					t.Errorf("%s restored from %d bytes, the coordinator sent %d", r.Worker, r.Bytes, res.TemplateBytes)
				}
			}
		})
	}
}

// One row, two executors: what the in-process runner makes of the
// instances of a run whose cubes arrive from outside, as a distributed
// run's do (core.PartitionRow), is, counter for counter, the row the
// coordinator files after the same instance crossed the wire as a job's
// result — a field dropped at the worker, on the wire or at the
// coordinator's stamp shows here — and the stamp adds what only the
// coordinator knows: the worker, and under full certification that the
// partition's proof checked.
func TestPartitionRowsAgreeAcrossExecutors(t *testing.T) {
	p := prog.MustParse(fibSrc)
	const n = 4
	base := CoordinatorOptions{Unwind: 3, Contexts: 3, Partitions: n, ChunkSize: 1}
	// The range marks the run as one whose cubes arrive from outside: its
	// template leaves every split literal to them, as the coordinator's.
	local, err := core.Verify(context.Background(), p, core.Options{Unwind: base.Unwind, Contexts: base.Contexts, Partitions: n, From: 0, To: n})
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
				want := report.PartitionRowOf(local.Instances[i])
				if got.Worker != "w0" || got.Certified != (mode == CertifyFull) {
					t.Errorf("partition %d: stamped worker %q certified %v under %s", got.Partition, got.Worker, got.Certified, mode)
				}
				// What the coordinator stamps and what a clock measures apart,
				// the two rows are one.
				got.Worker, got.Certified = "", false
				got.SolveMillis = want.SolveMillis
				if got != want {
					t.Errorf("partition %d: the coordinator filed %+v, in process %+v", got.Partition, got, want)
				}
			}
		})
	}
}

// The run's template is the coordinator's, shipped: a worker restores
// it and builds none, and the restored one is the one the coordinator
// built — its snapshot the same bytes, which is every field a clone
// reads (sat's TestRestoreEqualsSnapshot); a certifying run's template
// is the other's with the clause IDs of its log beside the clauses, and
// restored, the two search every cube alike; under a memory budget with
// no room for the pass, the coordinator skips it and ships the
// unsimplified solver.
// Every cube's tail, solved on the restored template under the
// assumptions the job carries, checks on the coordinator's checker (and
// a SAT cube's model on its encoding).
func TestWorkerRestoresCoordinatorTemplate(t *testing.T) {
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
				ctx := context.Background()
				opts := cell.opts
				opts.Budget = journal.Budget{MemMB: memMB}
				v, data := derivedVerifier(t, cell.p, opts)
				if elim := v.prep.Template().Result().Stats.ElimVars; (elim == 0) != (memMB != 0) {
					t.Fatalf("the coordinator's template eliminated %d variables under a %d MiB budget", elim, memMB)
				}
				uncertified := opts
				uncertified.Certify = CertifyPolicy{Mode: CertifyOff}
				_, off := derivedVerifier(t, cell.p, uncertified)
				plain, err := sat.Restore(off, sat.Options{})
				if err != nil {
					t.Fatal(err)
				}
				named, err := sat.Restore(data, sat.Options{})
				if err != nil || len(data) <= len(off) {
					t.Fatalf("the template is %d bytes certified, %d not (%v): no clause IDs", len(data), len(off), err)
				}
				for i := range v.prep.Manifest().Partitions {
					w := shippedWorker(data)
					cube := partition.Cube{From: i, To: i}
					m := jobFor(t, v, opts, cube)
					key := runKey{template: w.shipped.sum, budget: m.budget(), proofs: true}
					run, restored, err := w.held(m, key, nil, nil)
					if err != nil || restored == nil || restored.Bytes != int64(len(data)) {
						t.Fatalf("restore: %+v, %v", restored, err)
					}
					if got, err := run.tpl.Snapshot(ctx); err != nil || !bytes.Equal(got, data) {
						t.Fatalf("the restored template snapshots to %d bytes (%v), not the %d it was restored from", len(got), err, len(data))
					}
					a, b := plain.Clone(), named.Clone()
					b.EnableProof()
					sa, _ := a.Solve(m.Assume[0]...)
					sb, _ := b.Solve(m.Assume[0]...)
					if x, y := a.Stats(), b.Stats(); sa != sb || x.Conflicts != y.Conflicts || x.Propagations != y.Propagations || x.Decisions != y.Decisions {
						t.Fatalf("partition %d: %v on the uncertified template, %v on the certified one:\n%+v\n%+v", i, sa, sb, x, y)
					}
					reply, cert := w.runJob(ctx, m, nil, nil)
					if reply.Error != "" || reply.Restore != nil {
						t.Fatalf("partition %d: %+v", i, reply)
					}
					switch reply.Verdict {
					case sat.Unsat.String():
						_, err = v.verifySafe(cube, cert)
					case sat.Sat.String():
						err = v.verifyUnsafe(cube, reply.Winner, cert)
					default:
						t.Fatalf("partition %d: verdict %s", i, reply.Verdict)
					}
					if err != nil {
						t.Fatalf("partition %d: %s, and its certificate does not check on the coordinator's encoding: %v", i, reply.Verdict, err)
					}
				}
			})
		}
	}
}

// One simplification pass per distributed run, and one front end,
// certified or not: the coordinator's "template" span is the only build
// in the process, and it eliminated variables; each worker's trace holds
// a restore and a solve per job and no build — no unfold, flatten,
// encode or partition either — and no cube made a pass of its own in
// its search.
func TestOnePassPerDistributedRun(t *testing.T) {
	p := bench.Eliminationstack()
	for _, mode := range []string{CertifyFull, CertifyOff} {
		t.Run(mode, func(t *testing.T) {
			opts := esOpts()
			opts.Certify = CertifyPolicy{Mode: mode}
			coord := obs.NewCollectorSink()
			opts.Tracer = obs.NewTracer(coord)
			addr, resCh := startCoordinator(t, p, opts)
			workers := [2]*obs.CollectorSink{obs.NewCollectorSink(), obs.NewCollectorSink()}
			var wg sync.WaitGroup
			for i, sink := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := Work(context.Background(), addr, WorkerOptions{Name: fmt.Sprintf("w%d", i), Cores: 1, Tracer: obs.NewTracer(sink)}); err != nil {
						t.Errorf("worker w%d: %v", i, err)
					}
				}()
			}
			res := waitResult(t, resCh)
			wg.Wait()
			if res.Verdict != core.Safe || res.TemplateBytes == 0 {
				t.Fatalf("verdict %v, %d template bytes", res.Verdict, res.TemplateBytes)
			}
			passes := 0
			for _, e := range coord.Events() {
				if e.Name == "template" {
					passes++
					if fmt.Sprint(e.Attrs["elim_vars"]) == "0" {
						t.Errorf("the coordinator's template eliminated nothing: %+v", e)
					}
				}
			}
			if passes != 1 || res.Template.ElimVars == 0 {
				t.Fatalf("%d template builds by the coordinator (%+v); want the run's one pass", passes, res.Template)
			}
			restores := 0
			for i, sink := range workers {
				n := templateSpans(t, sink.Events())
				jobs, solves := 0, 0
				for _, e := range sink.Events() {
					switch e.Name {
					case "worker_job":
						jobs++
					case "solve":
						solves++
					}
				}
				if jobs > 0 && (n == 0 || solves != jobs) {
					t.Errorf("worker w%d: %d jobs, %d restores, %d solves in its trace", i, jobs, n, solves)
				}
				restores += n
			}
			if restores == 0 || restores != len(res.Restores) {
				t.Fatalf("%d restores in the workers' traces, %d reported", restores, len(res.Restores))
			}
			if rs := res.RemoteStats; rs.ElimVars != 0 || rs.Simplified != 0 {
				t.Fatalf("the cubes made a pass of their own: %d variables eliminated, %d clauses removed", rs.ElimVars, rs.Simplified)
			}
		})
	}
}

// A template stream that breaks its framing — declared over the cap,
// cut short by another frame, or out of sequence — ends the connection:
// the worker drops it with the stream's error, answers nothing, and
// solves no job on part of a template.
func TestTemplateStreamRefused(t *testing.T) {
	job := Message{Type: "job", JobID: 1, RunManifest: &RunManifest{Unwind: 1, Contexts: 3, Partitions: 4}}
	for _, tc := range []struct {
		name   string
		size   int64
		frames []*Message
	}{
		{"oversized", maxTemplateBytes + 1, nil},
		{"cut short", 100, []*Message{
			{Type: "template", JobID: 1, Seq: 0, Data: make([]byte, 50)},
			{Type: "cancel", JobID: 1},
		}},
		{"out of sequence", 100, []*Message{{Type: "template", JobID: 1, Seq: 1, Data: make([]byte, 100)}}},
		{"overflowing", 100, []*Message{{Type: "template", JobID: 1, Seq: 0, Data: make([]byte, 101)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln := listen(t)
			defer ln.Close()
			answered := make(chan *Message, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				wc := newConn(c, 5*time.Second)
				defer wc.close()
				if _, err := wc.recv(5 * time.Second); err != nil {
					return
				}
				m := job
				m.TemplateSize = tc.size
				_ = wc.send(&Message{Type: "welcome", Role: RolePrimary})
				_ = wc.send(&m)
				for _, f := range tc.frames {
					_ = wc.send(f)
				}
				reply, _ := wc.recv(5 * time.Second)
				answered <- reply
			}()
			jobs, err := Work(context.Background(), ln.Addr().String(), WorkerOptions{Name: "w", Cores: 1})
			if jobs != 0 || !errors.Is(err, errStream) {
				t.Fatalf("worker: %d jobs, %v; want the connection dropped on the template stream", jobs, err)
			}
			if reply := <-answered; reply != nil {
				t.Fatalf("the worker answered %+v", reply)
			}
		})
	}
}

// A worker whose template is not the coordinator's — here one that
// solved on the shipped template with a clause of its own added — proves
// its verdicts honestly for that clause set and to no avail: with no
// digest to compare, the coordinator's proof check refuses its first
// certificate, it is not handed a second job, the cube goes back on the
// queue at no cost to its attempt budget, and an honest worker finishes
// the run SAFE, every cube certified.
func TestUntrustedTemplateMismatch(t *testing.T) {
	p := bench.Eliminationstack()
	opts := esOpts()
	opts.MaxAttempts = 1 // a charged attempt would quarantine the cube
	rec := report.NewRecorder()
	opts.Report = rec
	addr, resCh := startCoordinator(t, p, opts)
	plan := &FaultPlan{Every: &FaultEvent{Kind: FaultOtherTemplate}}
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
	if len(res.Restores) != 1 || res.Restores[0].Worker != "honest" {
		t.Fatalf("restores %+v: a refused result's must not be counted", res.Restores)
	}
}

// The reason an operator reads names the first lemma of the other
// template's tail that does not check on the coordinator's; the honest
// tail checks, and the tail of another cube does not.
func TestCertificateRejectionNamesTheTemplate(t *testing.T) {
	p, opts := bench.Eliminationstack(), esOpts()
	v, data := derivedVerifier(t, p, opts)
	cube := partition.Cube{From: 2, To: 2}
	other := workerCertificate(t, v, opts, data, cube, &FaultEvent{Kind: FaultOtherTemplate})
	_, err := v.verifySafe(cube, other)
	if err == nil || !regexp.MustCompile(`partition 2 .*lemma \d+ of \d+ is not a RUP consequence`).MatchString(err.Error()) {
		t.Fatalf("certificate over another template: %v, want the first lemma that does not check", err)
	}
	honest := workerCertificate(t, v, opts, data, cube, nil)
	if _, err := v.verifySafe(cube, honest); err != nil {
		t.Fatalf("honest certificate: %v", err)
	}
	// The tail of another cube, under the right template.
	wrong := *honest
	wrong.Proofs = []PartitionProof{{Partition: 2, Proof: workerCertificate(t, v, opts, data, partition.Cube{From: 5, To: 5}, nil).Proofs[0].Proof}}
	if _, err := v.verifySafe(cube, &wrong); err == nil {
		t.Fatal("another cube's tail checked")
	}
}

// A lemma index beyond the proof is counted round it, and a proof with
// no lemma to flip has the prefix it claims falsified: the fault fires
// on every SAFE certificate, which byzantineScenarioOn insists on.
func TestByzantineFlippedLemmaAlwaysFires(t *testing.T) {
	t.Run("beyond the tail", func(t *testing.T) {
		// The forged lemma kept the honest one's chain, which does not
		// end false under it: the certificate is rejected there.
		byzantineScenarioOn(t, bench.Eliminationstack(), esOpts(),
			&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipLemma, Lemma: 1<<30 + 1}}}, core.Safe)
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

// Hostile chains are a lie the coordinator refuses: the chain is the
// proof, so a certificate whose lemmas are honest and whose chains are
// not is rejected — along those chains, at the cost of no more chain IDs
// than it shipped — its worker is marked untrusted, and an honest worker
// finishes the cube with the verdict unchanged.
func TestByzantineHostileHintsRejected(t *testing.T) {
	p, opts := bench.Eliminationstack(), esOpts()
	v, data := derivedVerifier(t, p, opts)
	cube := partition.Cube{From: 2, To: 2}
	honest := workerCertificate(t, v, opts, data, cube, nil)
	if _, err := v.verifySafe(cube, honest); err != nil {
		t.Fatalf("honest certificate: %v", err)
	}
	hostile := honest
	mutateResult(&FaultEvent{Kind: FaultHostileHints}, nil, &Message{}, &hostile)
	var shipped int64
	for _, pp := range hostile.Proofs {
		for _, c := range parsedProof(t, pp.Proof).Chains {
			shipped += int64(len(c))
		}
	}
	work, err := v.verifySafe(cube, hostile)
	if err == nil || !strings.Contains(err.Error(), "not a RUP consequence") {
		t.Fatalf("certificate with hostile chains: %v, want a lemma that does not check", err)
	}
	if work.Lemmas == 0 || work.ChainClauses > shipped {
		t.Fatalf("hostile chains cost the checker %+v for %d chain IDs shipped", work, shipped)
	}

	res := byzantineScenarioOn(t, p, opts, &FaultPlan{Every: &FaultEvent{Kind: FaultHostileHints}}, core.Safe)
	if res.Certified != res.ChunksTotal {
		t.Fatalf("%d of %d chunks certified", res.Certified, res.ChunksTotal)
	}
	t.Logf("one hostile certificate: %+v for %d chain IDs shipped; the run: %d certificates rejected", work, shipped, res.CertRejected)
}

// templateSpans counts the template restores in a worker's trace, and
// the builds and front-end phases: a worker runs none.
func templateSpans(t *testing.T, events []obs.Event) (n int) {
	for _, e := range events {
		switch e.Name {
		case "template_restore":
			n++
		case "template", "verify", "unfold", "flatten", "encode", "partition", "validate":
			t.Errorf("a worker ran %q: %+v", e.Name, e)
		}
	}
	return n
}

// Under sampling a worker's jobs alternate between the level that ships
// proofs and the one that does not; the run certifies either way, so
// one proof-logging template, restored once, serves both.
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
	if n := templateSpans(t, sink.Events()); n != 1 || len(res.Restores) != 1 {
		t.Fatalf("%d restores in the worker's trace, %d reported: want one", n, len(res.Restores))
	}
}

// A cancel that lands while the coordinator builds the run's template —
// a few milliseconds into the load or the pass — ends the run there:
// Coordinate returns at once, with no error and no verdict, no template
// shipped and nothing left running (-race counts the pipeline that
// derives the checker beside the pass).
func TestCancelDuringCoordinatorTemplateBuild(t *testing.T) {
	ln := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	res, err := Coordinate(ctx, ln, bench.Eliminationstack(), CoordinatorOptions{Unwind: 2, Contexts: 6, Partitions: 8})
	if err != nil || res.Verdict != core.Unknown || res.TemplateBytes != 0 || res.Jobs != 0 {
		t.Fatalf("cancelled during the template's build: %+v, %v", res, err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("the cancelled run took %v", d)
	}
}

// The watchdog trips during a cube: it cancels the job, which comes back
// a cancelled Unknown — a coordinator re-queues it
// (TestWatchdogTripRequeuedUnderMemBudget) — with the trip on its span;
// the template goes with the cube's solver, and the worker's next job
// restores it again from the bytes its connection kept.
func TestWatchdogTripRebuildsTemplate(t *testing.T) {
	p, opts := bench.Eliminationstack(), CoordinatorOptions{Unwind: 2, Contexts: 4, Partitions: 8, Certify: CertifyPolicy{Mode: CertifyOff}}
	v, data := derivedVerifier(t, p, opts)
	w := shippedWorker(data)
	sink := obs.NewCollectorSink()
	w.opts.Tracer = obs.NewTracer(sink)
	job := func(id, part int) *Message {
		m := jobFor(t, v, opts, partition.Cube{From: part, To: part})
		m.JobID, m.Certify = id, ""
		return m
	}
	if reply, _ := w.runJob(context.Background(), job(1, 1), nil, nil); reply.Verdict != sat.Unsat.String() || reply.Restore == nil {
		t.Fatalf("first job: %+v", reply)
	}
	tripped, trip := context.WithCancelCause(context.Background())
	trip(memTrip{used: 950, limit: 1000})
	reply, _ := w.runJob(tripped, job(2, 2), nil, nil)
	if reply.Verdict != sat.Unknown.String() || reply.Cause != sat.CauseCancelled.String() || reply.Restore != nil {
		t.Fatalf("job under a tripped watchdog: %+v", reply)
	}
	if w.run == nil || w.run.tpl.Ready() {
		t.Fatal("the template outlived the watchdog's trip, or the worker forgot the run")
	}
	var trips []string
	for _, e := range sink.Events() {
		if e.Name == "worker_job" && e.Attrs["mem_trip"] != nil {
			trips = append(trips, fmt.Sprintf("job %v: %v", e.Attrs["job"], e.Attrs["mem_trip"]))
		}
	}
	if fmt.Sprint(trips) != "[job 2: memory watchdog tripped at 950 of 1000 bytes]" {
		t.Fatalf("trips on the job spans: %v, want job 2's alone", trips)
	}
	if reply, _ := w.runJob(context.Background(), job(3, 2), nil, nil); reply.Verdict != sat.Unsat.String() || reply.Restore == nil {
		t.Fatalf("the job after: %+v, want the cube decided on the template restored again", reply)
	}
}

// The template is the run's, not the connection's: a worker that loses
// its primary mid-run and re-homes to the standby that continues the
// same run is sent the standby's template — the same bytes, the standby
// builds what the primary built — and goes on with the one it has: one
// restore in its trace, none reported to the second coordinator. The
// standby, which derives its own checker when it takes over, certifies
// what is left.
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
	if n := templateSpans(t, sink.Events()); n != 1 || len(b.res.Restores) != 0 {
		t.Fatalf("%d template restores in the worker's trace, %d reported to the standby: want the one it made for the first primary",
			n, len(b.res.Restores))
	}
}
