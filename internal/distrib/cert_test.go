package distrib

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/prog"
)

func TestParseCertifyPolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"", "full", false},
		{"full", "full", false},
		{"off", "off", false},
		{"sample=4", "sample=4", false},
		{"sample=1", "full", false},
		{"sample=0", "", true},
		{"sample=x", "", true},
		{"sample=4x", "", true},
		{"sample=4 junk", "", true},
		{"sample=+4", "", true},
		{"sample=", "", true},
		{"bogus", "", true},
	}
	for _, c := range cases {
		p, err := ParseCertifyPolicy(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseCertifyPolicy(%q): no error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCertifyPolicy(%q): %v", c.in, err)
			continue
		}
		if p.String() != c.want {
			t.Errorf("ParseCertifyPolicy(%q) = %q, want %q", c.in, p, c.want)
		}
	}
}

func TestCertifyPolicyJobLevel(t *testing.T) {
	full := CertifyPolicy{}
	for id := 1; id <= 4; id++ {
		if lvl := full.jobLevel(id); lvl != CertifyFull {
			t.Fatalf("full policy job %d: %q", id, lvl)
		}
	}
	sampled := CertifyPolicy{Mode: CertifyFull, SampleEvery: 2}
	want := []string{CertifyFull, CertifyModel, CertifyFull, CertifyModel}
	for id := 1; id <= 4; id++ {
		if lvl := sampled.jobLevel(id); lvl != want[id-1] {
			t.Fatalf("sample=2 job %d: %q, want %q", id, lvl, want[id-1])
		}
	}
	off := CertifyPolicy{Mode: CertifyOff}
	if lvl := off.jobLevel(1); lvl != CertifyOff {
		t.Fatalf("off policy job 1: %q", lvl)
	}
}

func TestPackBitsRoundTrip(t *testing.T) {
	bits := []bool{true, false, true, true, false, false, false, true, true, false}
	packed := packBits(bits)
	got, err := unpackBits(packed, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d: %v", i, got[i])
		}
	}
	if _, err := unpackBits(packed, len(bits)+8); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCertificateEncodeDecode(t *testing.T) {
	flat := lemmasOnly([][]uint32{{uint32(cnf.PosLit(1)), uint32(cnf.NegLit(2))}, {}})
	cert := &Certificate{
		NumVars: 12,
		Model:   packBits(make([]bool, 12)),
		Proofs:  []PartitionProof{{Partition: 3, Proof: flat}, {Partition: -1}},
	}
	data := encodeCertificate(cert)
	got, err := decodeCertificate(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVars != cert.NumVars || !bytes.Equal(got.Model, cert.Model) {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Proofs) != 2 || got.Proofs[0].Partition != 3 || !bytes.Equal(got.Proofs[0].Proof, flat) ||
		got.Proofs[1].Partition != -1 || len(got.Proofs[1].Proof) != 0 {
		t.Fatalf("proofs: %+v", got.Proofs)
	}
	// The wire form is the header and the bytes as they are: no envelope
	// around a proof.
	if !bytes.Contains(data, flat) || len(data) > len(certMagic)+len(cert.Model)+len(flat)+8 {
		t.Fatalf("%d bytes on the wire for a %d-byte model and a %d-byte proof", len(data), len(cert.Model), len(flat))
	}

	if nilData := encodeCertificate(nil); nilData != nil {
		t.Fatalf("nil certificate: %v", nilData)
	}
	for name, bad := range map[string][]byte{
		"garbage":   []byte("not a certificate at all"),
		"truncated": data[:len(data)/2],
		"trailing":  append(slices.Clone(data), 0),
		"json":      []byte(`{"num_vars":12,"proofs":[{"partition":3,"proof":"AA=="}]}`),
	} {
		if _, err := decodeCertificate(bad); err == nil {
			t.Errorf("%s certificate accepted", name)
		}
	}
}

// runWorker runs one worker to completion. Byzantine workers may see
// their connection die in a race with the coordinator's stop, so errors
// are returned rather than fatal.
func runWorker(t *testing.T, addr, name string, plan *FaultPlan, reconnects int) (int, error) {
	t.Helper()
	return Work(context.Background(), addr, WorkerOptions{
		Name: name, Cores: 1, Faults: plan,
		MaxReconnects: reconnects, ReconnectBackoff: 20 * time.Millisecond,
	})
}

func findWorker(res *CoordinatorResult, name string) *WorkerHealth {
	for i := range res.Workers {
		if res.Workers[i].Name == name {
			return &res.Workers[i]
		}
	}
	return nil
}

// TestCertifiedDistributedSafe: the default policy (zero value) is full
// certification, and honest SAFE verdicts come back with checkable
// refutation proofs for every partition.
func TestCertifiedDistributedSafe(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
	})
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Certified != 2 || res.CertRejected != 0 {
		t.Fatalf("certified %d, rejected %d", res.Certified, res.CertRejected)
	}
}

// TestCertifiedDistributedUnsafe: an honest UNSAFE verdict ships its
// model, which the coordinator re-evaluates and replays before believing
// the counterexample.
func TestCertifiedDistributedUnsafe(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 4, Partitions: 8, ChunkSize: 2,
	})
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Winner < 0 || res.Winner >= 8 {
		t.Fatalf("winner %d", res.Winner)
	}
	if res.Certified == 0 || res.CertRejected != 0 {
		t.Fatalf("certified %d, rejected %d", res.Certified, res.CertRejected)
	}
	if res.CertifyMillis < 0 {
		t.Fatalf("certify millis %d", res.CertifyMillis)
	}
}

// byzantineScenario runs one lying worker to rejection, then an honest
// worker to completion, and checks the lie did not survive: the final
// verdict is the true one, the liar is quarantined as untrusted, and the
// rejection metric moved.
func byzantineScenario(t *testing.T, opts CoordinatorOptions, plan *FaultPlan, want core.Verdict) *CoordinatorResult {
	t.Helper()
	return byzantineScenarioOn(t, prog.MustParse(fibSrc), fastFailureOpts(opts), plan, want)
}

// byzantineScenarioOn is byzantineScenario on any program, with the
// coordinator's timeouts as given: jobs that take seconds under the
// race detector must not be evicted for a late heartbeat.
func byzantineScenarioOn(t *testing.T, p *prog.Program, opts CoordinatorOptions, plan *FaultPlan, want core.Verdict) *CoordinatorResult {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	addr, resCh := startCoordinator(t, p, opts)

	// The liar runs alone first, so it is guaranteed to be handed a
	// chunk and be caught lying about it.
	if _, err := runWorker(t, addr, "liar", plan, 0); err != nil &&
		!strings.Contains(err.Error(), "use of closed") {
		t.Logf("liar worker ended: %v", err)
	}
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	res := waitResult(t, resCh)

	if res.Verdict != want {
		t.Fatalf("verdict %v, want %v", res.Verdict, want)
	}
	if res.CertRejected == 0 {
		t.Fatal("no certificate rejected")
	}
	liar := findWorker(res, "liar")
	if liar == nil || !liar.Untrusted || liar.CertRejections == 0 {
		t.Fatalf("liar health: %+v", liar)
	}
	honest := findWorker(res, "honest")
	if honest == nil || honest.Untrusted {
		t.Fatalf("honest health: %+v", honest)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if v, ok := metricValue(buf.String(), "parbmc_coordinator_certificates_rejected_total"); !ok || v == 0 {
		t.Fatalf("parbmc_coordinator_certificates_rejected_total = %v, %v", v, ok)
	}
	if v, ok := metricValue(buf.String(), "parbmc_worker_certificates_rejected_total"); !ok || v == 0 {
		t.Fatalf("parbmc_worker_certificates_rejected_total = %v, %v", v, ok)
	}
	return res
}

// A worker flipping SAFE to UNSAFE with a fabricated model must not
// produce a false alarm: the model fails re-evaluation, the worker is
// quarantined, and the honest re-solve restores SAFE.
func TestByzantineFlipVerdictRejected(t *testing.T) {
	byzantineScenario(t,
		CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2},
		&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipVerdict}}},
		core.Safe)
}

// A worker claiming UNSAFE with a garbage model on a safe program must
// not flip the global verdict.
func TestByzantineBogusModelRejected(t *testing.T) {
	byzantineScenario(t,
		CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2},
		&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultBogusModel}}},
		core.Safe)
}

// A worker suppressing a real counterexample (UNSAFE flipped to SAFE,
// shipping no proofs) is caught by the missing-refutation check; the
// honest re-solve still finds the bug. The liar lies on every job it is
// given, whichever chunk that happens to be.
func TestByzantineSuppressedBugRejected(t *testing.T) {
	byzantineScenario(t,
		CoordinatorOptions{Unwind: 1, Contexts: 4, Partitions: 8, ChunkSize: 2},
		&FaultPlan{Events: []FaultEvent{
			{Job: 0, Kind: FaultFlipVerdict}, {Job: 1, Kind: FaultFlipVerdict},
			{Job: 2, Kind: FaultFlipVerdict}, {Job: 3, Kind: FaultFlipVerdict},
		}},
		core.Unsafe)
}

// A truncated certificate is caught at decode time and treated as a lie,
// not as a transport hiccup.
func TestByzantineTruncatedProofRejected(t *testing.T) {
	byzantineScenario(t,
		CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2},
		&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultTruncatedProof}}},
		core.Safe)
}

// An oversized certificate declaration is rejected before a single
// payload byte is read.
func TestByzantineOversizedProofRejected(t *testing.T) {
	byzantineScenario(t,
		CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2},
		&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultOversizedProof}}},
		core.Safe)
}

// simplificationLemmas solves one partition the way a worker's solver
// does and reports where the lemmas of its simplification pass sit in
// the proof: the pass runs between two conflicts, so the first Progress
// snapshot that shows eliminated variables has counted exactly the
// lemmas learnt before it.
func simplificationLemmas(t *testing.T, v *certVerifier, part int) (from, to int) {
	t.Helper()
	f := formulaOf(t, v)
	s := sat.New(f.NumVars, sat.Options{ProgressEvery: 1})
	s.EnableProof()
	s.AddFormula(f)
	from = -1
	s.Progress = func(st sat.Stats) {
		if from < 0 && st.ElimVars > 0 {
			from = int(st.Learnt)
		}
	}
	if st, err := s.Solve(v.prep.Partitions()[part].Assumptions...); err != nil || st != sat.Unsat {
		t.Fatalf("partition %d: %v, %v", part, st, err)
	}
	if from < 0 {
		t.Fatalf("partition %d was refuted in %d propagations without a simplification pass", part, s.Stats().Propagations)
	}
	return from, s.ProofLog().NumLemmas() - int(s.Stats().Learnt-int64(from))
}

// TestCertifiedAcrossSimplification: a SAFE verdict certifies against
// the coordinator's own, un-simplified encoding wherever the
// simplification pass ran, because the pass logs every clause it derives
// as a lemma and every clause it drops as a deletion. In one chunk
// (eliminationstack u=2 c=5 whole: the run's only cube is solved on an
// un-simplified template and simplifies in its own search, after 40
// propagations per clause) the pass is in the proof the worker ships,
// and a certificate with one literal of one of its lemmas negated is
// rejected like any other lie. In two halves the pass is the template's:
// the coordinator derives its lemmas itself, no worker ships or can
// forge them, every partition's statistics are its search's alone, and
// a lemma flipped in the tail is what is rejected.
func TestCertifiedAcrossSimplification(t *testing.T) {
	if testing.Short() {
		t.Skip("solves and checks eliminationstack u=2 c=5 several times")
	}
	p := bench.Eliminationstack()
	whole := CoordinatorOptions{
		Unwind: 2, Contexts: 5, Partitions: 1, ChunkSize: 1,
		Certify: CertifyPolicy{Mode: CertifyFull},
	}
	halves := whole
	halves.Partitions = 2
	v, err := newCertVerifier(p, whole)
	if err != nil {
		t.Fatal(err)
	}
	from, to := simplificationLemmas(t, v, 0)

	honest := func(t *testing.T, opts CoordinatorOptions) *CoordinatorResult {
		addr, resCh := startCoordinator(t, p, opts)
		if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
			t.Fatalf("worker: %v", err)
		}
		res := waitResult(t, resCh)
		if res.Verdict != core.Safe || res.Certified != opts.Partitions || res.CertRejected != 0 {
			t.Fatalf("verdict %v, %d certified, %d rejected", res.Verdict, res.Certified, res.CertRejected)
		}
		return res
	}
	t.Run("honest", func(t *testing.T) {
		t.Run("in the search", func(t *testing.T) {
			res := honest(t, whole)
			if res.RemoteStats.ElimVars == 0 || res.CertifyWork.Lemmas < int64(to-from) {
				t.Fatalf("%d variables eliminated remotely, %d lemmas checked; the pass alone logged %d",
					res.RemoteStats.ElimVars, res.CertifyWork.Lemmas, to-from)
			}
		})
		t.Run("in the template", func(t *testing.T) {
			res := honest(t, halves)
			if res.Template.ElimVars == 0 || len(res.Restores) != 1 || res.Restores[0].Worker != "honest" {
				t.Fatalf("template %+v restored %+v; want it simplified, and restored by the one worker", res.Template, res.Restores)
			}
			if res.RemoteStats.ElimVars != 0 || res.RemoteStats.Simplified != 0 {
				t.Fatalf("the partitions claim the template's eliminations: %+v", res.RemoteStats)
			}
			// The checker took on the template's lemmas — some tens of
			// thousands, as many as it removed clauses or more — once, and
			// then the partitions' own.
			if got, pass := res.CertifyWork.Lemmas, res.Template.Simplified; got < pass+int64(res.RemoteStats.Learnt) {
				t.Fatalf("%d lemmas checked; the template's pass removed %d clauses and the partitions learnt %d", got, pass, res.RemoteStats.Learnt)
			}
		})
	})
	t.Run("flipped", func(t *testing.T) {
		t.Run("in the search", func(t *testing.T) {
			// A lemma index that falls among the simplification lemmas.
			byzantineScenarioOn(t, p, whole,
				&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipLemma, Lemma: (from + to) / 2}}},
				core.Safe)
		})
		t.Run("in the template", func(t *testing.T) {
			byzantineScenarioOn(t, p, halves,
				&FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipLemma, Lemma: 1 << 20}}},
				core.Safe)
		})
	})
}

// An untrusted worker's reconnection attempts are refused for the rest
// of the run.
func TestUntrustedWorkerRefused(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
	}))
	plan := &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultBogusModel}}}
	if _, err := runWorker(t, addr, "liar", plan, 0); err != nil {
		t.Logf("liar worker ended: %v", err)
	}
	// Reconnect as the same (now untrusted) name: the coordinator must
	// stop it immediately without handing it a job.
	n, err := runWorker(t, addr, "liar", nil, 0)
	if err != nil {
		t.Fatalf("refused worker should get a clean stop, got %v", err)
	}
	if n != 0 {
		t.Fatalf("untrusted worker completed %d jobs", n)
	}
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

// Sampling certifies the UNSAFE model on every job but demands SAFE
// proofs only on every Nth one; the uncertified SAFE verdicts are
// accepted but marked uncertified.
func TestCertifySampleMode(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
		Certify: CertifyPolicy{Mode: CertifyFull, SampleEvery: 2},
	})
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Certified != 2 || res.CertRejected != 0 {
		t.Fatalf("certified %d (want 2 of 4 sampled), rejected %d", res.Certified, res.CertRejected)
	}
}

// With certification off no verdict is certified and no proof travels,
// but every UNSAFE model is replayed on the coordinator's encoding all
// the same, as the worker once replayed its own: a liar's model that
// does not replay — a SAFE cube claimed UNSAFE on a fabricated or a
// garbage model — is a failed attempt, not a rejected certificate, and
// the honest worker's re-solve keeps the run SAFE.
func TestCertifyOff(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *FaultPlan
	}{
		{"honest", nil},
		{"flipped verdict", &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipVerdict}}}},
		{"bogus model", &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultBogusModel}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prog.MustParse(fibSrc)
			addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
				Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
				Certify: CertifyPolicy{Mode: CertifyOff},
			}))
			if tc.plan != nil {
				if _, err := runWorker(t, addr, "liar", tc.plan, 0); err == nil {
					t.Fatal("the liar's connection outlived its lie")
				}
			}
			if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
				t.Fatalf("worker: %v", err)
			}
			res := waitResult(t, resCh)
			if res.Verdict != core.Safe {
				t.Fatalf("verdict %v", res.Verdict)
			}
			if res.Certified != 0 || res.CertifyMillis != 0 || res.CertRejected != 0 {
				t.Fatalf("certified %d, certify millis %d, %d rejected with certification off", res.Certified, res.CertifyMillis, res.CertRejected)
			}
			if tc.plan == nil {
				return
			}
			liar := findWorker(res, "liar")
			if liar == nil || liar.Untrusted || liar.Failures != 1 || res.Reassigned != 1 {
				t.Fatalf("liar %+v, %d reassigned; want one failed attempt, re-queued", liar, res.Reassigned)
			}
		})
	}
}

// A journal written by an uncertified run must not leak unverified
// verdicts into a certified resume: the uncertified records are
// re-queued and re-solved instead of replayed.
func TestResumeRequeuesUncertifiedRecords(t *testing.T) {
	p := prog.MustParse(fibSrc)
	jpath := t.TempDir() + "/run.journal"
	base := CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
		JournalPath: jpath,
	}

	run1 := base
	run1.Certify = CertifyPolicy{Mode: CertifyOff}
	addr, resCh := startCoordinator(t, p, run1)
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("run 1 worker: %v", err)
	}
	if res := waitResult(t, resCh); res.Verdict != core.Safe {
		t.Fatalf("run 1 verdict %v", res.Verdict)
	}

	run2 := base // zero-value Certify: full
	run2.Resume = true
	addr, resCh = startCoordinator(t, p, run2)
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("run 2 worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("run 2 verdict %v", res.Verdict)
	}
	if res.Resumed != 0 {
		t.Fatalf("run 2 replayed %d uncertified records", res.Resumed)
	}
	if res.Certified != 2 {
		t.Fatalf("run 2 certified %d", res.Certified)
	}
}

// The counterpart: records committed by a certified run carry the
// certified marker and replay without workers.
func TestResumeReplaysCertifiedRecords(t *testing.T) {
	p := prog.MustParse(fibSrc)
	jpath := t.TempDir() + "/run.journal"
	base := CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
		JournalPath: jpath,
	}

	addr, resCh := startCoordinator(t, p, base)
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("run 1 worker: %v", err)
	}
	if res := waitResult(t, resCh); res.Verdict != core.Safe {
		t.Fatalf("run 1 verdict %v", res.Verdict)
	}

	run2 := base
	run2.Resume = true
	_, resCh = startCoordinator(t, p, run2)
	res := waitResult(t, resCh) // no workers: the journal must decide the run
	if res.Verdict != core.Safe {
		t.Fatalf("run 2 verdict %v", res.Verdict)
	}
	if res.Resumed != 2 {
		t.Fatalf("run 2 resumed %d", res.Resumed)
	}
}

// A panicking solver path becomes a structured worker error: the process
// survives, reconnects, and finishes the run honestly.
func TestWorkerPanicRecovery(t *testing.T) {
	p := prog.MustParse(fibSrc)
	addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
	}))
	plan := &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultPanic}}}
	n, err := runWorker(t, addr, "phoenix", plan, 3)
	if err != nil {
		t.Fatalf("worker did not survive its panic: %v", err)
	}
	if n < 2 {
		t.Fatalf("worker completed %d jobs, want the full run after the panic", n)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	w := findWorker(res, "phoenix")
	if w == nil || w.Failures == 0 {
		t.Fatalf("panicking job was not charged as a failure: %+v", w)
	}
	if w.Untrusted {
		t.Fatal("a panic is not a lie: worker must stay trusted")
	}
}

// runJob's recover boundary, exercised directly.
func TestRunJobRecoversPanic(t *testing.T) {
	m := &Message{Type: "job", JobID: 7, RunManifest: &RunManifest{Unwind: 1, Contexts: 3, Partitions: 4},
		From: 0, To: 1, Certify: CertifyFull}
	w := &worker{opts: WorkerOptions{Name: "w", Cores: 1}}
	reply, cert := w.runJob(context.Background(), m, nil, &FaultEvent{Job: 0, Kind: FaultPanic})
	if reply == nil || reply.JobID != 7 {
		t.Fatalf("reply %+v", reply)
	}
	if reply.Error == "" || !strings.Contains(reply.Error, "panic") {
		t.Fatalf("error %q", reply.Error)
	}
	if cert != nil {
		t.Fatal("panicked job produced a certificate")
	}
}

// newCertVerifier is the verifier Coordinate makes of its prepared run,
// before it builds the run's template.
func newCertVerifier(p *prog.Program, opts CoordinatorOptions) (*certVerifier, error) {
	return prepareRun(p, &opts)
}

// derivedVerifier is the coordinator's verifier as Coordinate leaves it
// before its accept loop — the run's template built, its checker derived
// beside the pass when the run certifies, and the solver gone — and the
// template's snapshot, which every connection is sent.
func derivedVerifier(t *testing.T, p *prog.Program, opts CoordinatorOptions) (*certVerifier, []byte) {
	t.Helper()
	v, err := newCertVerifier(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	tpl := v.prep.Template()
	data, err := tpl.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tpl.Drop()
	return v, data
}

// shippedWorker is a worker on a connection that was sent data, the
// snapshot of the run's template.
func shippedWorker(data []byte) *worker {
	return &worker{opts: WorkerOptions{Cores: 1}, shipped: &shippedTemplate{data: data, sum: sha256.Sum256(data)}}
}

// jobFor is the job frame the coordinator of v's run sends for a cube.
func jobFor(t *testing.T, v *certVerifier, opts CoordinatorOptions, cube partition.Cube) *Message {
	t.Helper()
	m := jobFrame(&opts, v.prep.Manifest(), 0)
	m.JobID, m.From, m.To, m.Certify = 1, cube.From, cube.To, CertifyFull
	var err error
	if m.Assume, err = v.assumptions(cube); err != nil {
		t.Fatal(err)
	}
	return &m
}

// workerCertificate solves a cube the way a worker does — on clones of
// the template restored from data, the run's snapshot, under the
// assumptions of v's job frame — under the fault f (nil: none), and
// returns the certificate it would ship.
func workerCertificate(t *testing.T, v *certVerifier, opts CoordinatorOptions, data []byte, cube partition.Cube, f *FaultEvent) *Certificate {
	t.Helper()
	reply, cert := shippedWorker(data).runJob(context.Background(), jobFor(t, v, opts, cube), nil, f)
	if reply.Error != "" || reply.Verdict != sat.Unsat.String() || cert == nil || reply.Restore == nil {
		t.Fatalf("cube %s: verdict %q, error %q, restore %+v, certificate %+v", cube.Key(), reply.Verdict, reply.Error, reply.Restore, cert)
	}
	return cert
}

// TestByzantineFabricatedProofThenHonest puts what no wire fault
// reaches — a well-formed certificate whose proofs do not check — to
// the verifier, from two goroutines at once as two workers' serve loops
// would: a certificate fabricated at its second partition (so the
// checker has already been through an honest proof and a reset) is
// rejected there, and the honest certificate checks right after it,
// every time, with the checker's work reported.
func TestByzantineFabricatedProofThenHonest(t *testing.T) {
	// eliminationstack u=2 c=4 in 8: every partition takes a couple of
	// hundred lemmas of its own to refute after the template's pass (the
	// fib cells are refuted by the pass, or nearly).
	p, opts := bench.Eliminationstack(), CoordinatorOptions{Unwind: 2, Contexts: 4, Partitions: 8}
	v, data := derivedVerifier(t, p, opts)
	// The honest proofs are a worker's.
	cube := partition.Cube{From: 0, To: 1}
	honest := workerCertificate(t, v, opts, data, cube, nil)
	var lemmas int64
	for _, pp := range honest.Proofs {
		if n := parsedProof(t, pp.Proof).NumLemmas(); n < 2 {
			t.Fatalf("partition %d: %d lemmas; want a proof to fabricate from", pp.Partition, n)
		}
		lemmas += int64(parsedProof(t, pp.Proof).NumLemmas())
	}
	// The second proof loses its first half: the lemmas left no longer
	// follow by unit propagation.
	second := parsedProof(t, honest.Proofs[1].Proof).Lemmas
	fabricated := &Certificate{NumVars: honest.NumVars, Proofs: []PartitionProof{
		honest.Proofs[0],
		{Partition: cube.To, Proof: lemmasOnly(second[(len(second)+1)/2:])},
	}}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				work, err := v.verifySafe(cube, fabricated)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("partition %d", cube.To)) {
					t.Errorf("fabricated certificate: %v, want a rejection at partition %d", err, cube.To)
				}
				if work.Lemmas == 0 {
					t.Errorf("rejected certificate: checker's work not reported: %+v", work)
				}
				work, err = v.verifySafe(cube, honest)
				if err != nil {
					t.Errorf("honest certificate after a rejected one: %v", err)
				}
				if work.Lemmas != lemmas || work.ChainClauses < lemmas {
					t.Errorf("honest certificate: work %+v, want %d lemmas", work, lemmas)
				}
			}
		}()
	}
	wg.Wait()
}

// formulaOf is the formula of v's run, as the coordinator reads it.
func formulaOf(t *testing.T, v *certVerifier) *cnf.Formula {
	t.Helper()
	f, err := v.prep.Template().Formula()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// takenApart is a shipped proof's lemmas and chains, for a test to count
// or to make another proof of.
type takenApart struct {
	Lemmas, Chains [][]uint32
}

func (p *takenApart) NumLemmas() int { return len(p.Lemmas) }

// parsedProof takes a shipped proof apart (sat.Proof.Steps).
func parsedProof(t *testing.T, p sat.Proof) *takenApart {
	t.Helper()
	out := &takenApart{}
	if err := p.Steps(func(deleted bool, clause, ids []uint32) error {
		if !deleted {
			out.Lemmas = append(out.Lemmas, slices.Clone(clause))
			out.Chains = append(out.Chains, slices.Clone(ids))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// lemmasOnly is the proof that logs lemmas (sat.FlatLog.Step), with no
// chain and no deletion.
func lemmasOnly(lemmas [][]uint32) sat.Proof {
	var log sat.FlatLog
	for _, l := range lemmas {
		log.Step(false, l, nil)
	}
	return sat.Proof(log)
}

// TestCertifyWorkReported: the proof checkers' lemmas and the chain
// clauses they walked reach the result and the counters, so the
// checker's rate can be read beside the solvers'. Every lemma is
// refuted along its chain, one clause of it at least.
func TestCertifyWorkReported(t *testing.T) {
	reg := obs.NewRegistry()
	addr, resCh := startCoordinator(t, prog.MustParse(fibSrc), CoordinatorOptions{
		Unwind: 2, Contexts: 3, Partitions: 4, ChunkSize: 2, Metrics: reg,
	})
	if _, err := runWorker(t, addr, "honest", nil, 0); err != nil {
		t.Fatalf("worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe || res.Certified != 2 {
		t.Fatalf("verdict %v, %d certified", res.Verdict, res.Certified)
	}
	w := res.CertifyWork
	if w.Lemmas == 0 || w.ChainClauses < w.Lemmas {
		t.Fatalf("certify work %+v", w)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for series, want := range map[string]int64{
		"parbmc_coordinator_certify_lemmas_total":        w.Lemmas,
		"parbmc_coordinator_certify_chain_clauses_total": w.ChainClauses,
	} {
		if v, ok := metricValue(buf.String(), series); !ok || int64(v) != want {
			t.Errorf("%s = %v, %v; result says %d", series, v, ok, want)
		}
	}
}
