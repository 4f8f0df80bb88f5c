package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/internal/trace"
	"repro/prog"
)

// Trust-but-verify: a remote verdict is only as trustworthy as the
// evidence shipped with it. Workers attach a Certificate to every
// definite result — the winning partition's satisfying model for UNSAFE
// claims, one RUP refutation proof per partition for SAFE claims — and
// the coordinator re-checks that evidence against its *own* encoding of
// the program before the verdict may touch the run state or the journal.
// The coordinator's encoding is the root of trust: a worker that lies
// about a verdict, ships a bogus model, or fabricates a proof is caught
// at the aggregation point (the only place a single faulty process could
// otherwise invert the global answer) and quarantined as untrusted.
//
// A SAFE proof is a tail: what the partition's solver logged after it
// was cloned from the run's template (core.Prepared). What the template
// logged before — the prefix, the derivations and deletions of its
// simplification pass — is never on the wire. The coordinator prepares
// the same run from its own encoding, takes the prefix from its own
// template, and checks every tail on one proof checker extended by it;
// of a worker's prefix it reads a digest, to tell an operator that a
// refused worker had built another template, not forged a proof.

const (
	// maxCertBytes caps one certificate's wire size. A declared size
	// above the cap is rejected before a single frame is read, so a
	// Byzantine worker cannot make the coordinator buffer an arbitrary
	// payload; and since nothing on the way in expands — the envelope is
	// not compressed, and a proof's flat form (sat.ParseFlat) may ask for
	// sixteen bytes of memory per byte sent and no more — the cap bounds
	// what decoding allocates too.
	maxCertBytes = 64 << 20 // 64 MiB
	// certFrameData is the raw payload per "cert" wire frame. JSON
	// base64-expands []byte by 4/3, so 8 MiB of data stays well under
	// the 16 MiB frame cap.
	certFrameData = 8 << 20
)

// errCertificate marks a certificate rejection — evidence that is
// missing, malformed, oversized, or fails verification. It is
// distinguished from transport errors because the response differs:
// a rejected certificate quarantines the worker as untrusted, while a
// transport failure only charges a retryable attempt.
var errCertificate = errors.New("certificate rejected")

// Certify levels requested per job / configured per run.
const (
	// CertifyFull requires proofs for SAFE chunks and a model for UNSAFE.
	CertifyFull = "full"
	// CertifyModel requires only the UNSAFE model (a sampled-out SAFE
	// chunk is accepted uncertified); the cheap half of certification,
	// since the model falls out of the solve for free while proof
	// recording costs memory proportional to the search.
	CertifyModel = "model"
	// CertifyOff disables certification entirely.
	CertifyOff = "off"
)

// CertifyPolicy selects which definite remote verdicts must carry a
// verified certificate. The zero value is full certification — the sound
// default; weaker modes are an explicit opt-out for runs where proof
// traffic dominates.
type CertifyPolicy struct {
	// Mode is CertifyFull, CertifyModel is not a run mode (it only
	// appears on individual jobs under sampling), or CertifyOff.
	Mode string
	// SampleEvery, in sample mode, requires an UNSAT proof on every Nth
	// job (1-based; the first job is always sampled); other jobs carry
	// only the UNSAFE-model obligation. 0 or 1 degenerates to full.
	SampleEvery int
}

// ParseCertifyPolicy parses the -certify flag grammar:
// "full" | "off" | "sample=N".
func ParseCertifyPolicy(s string) (CertifyPolicy, error) {
	switch {
	case s == "" || s == CertifyFull:
		return CertifyPolicy{Mode: CertifyFull}, nil
	case s == CertifyOff:
		return CertifyPolicy{Mode: CertifyOff}, nil
	case len(s) > 7 && s[:7] == "sample=":
		var n int
		if _, err := fmt.Sscanf(s[7:], "%d", &n); err != nil || n < 1 {
			return CertifyPolicy{}, fmt.Errorf("distrib: bad certify sample rate %q", s)
		}
		return CertifyPolicy{Mode: CertifyFull, SampleEvery: n}, nil
	}
	return CertifyPolicy{}, fmt.Errorf("distrib: bad certify mode %q (want full|sample=N|off)", s)
}

// normalize applies the zero-value default (full certification).
func (p CertifyPolicy) normalize() CertifyPolicy {
	if p.Mode == "" {
		p.Mode = CertifyFull
	}
	return p
}

// Enabled reports whether any verification happens at all.
func (p CertifyPolicy) Enabled() bool { return p.normalize().Mode != CertifyOff }

// jobLevel returns the certify level to request for the id-th job
// (1-based): proofs on sampled jobs, model-only otherwise.
func (p CertifyPolicy) jobLevel(id int) string {
	p = p.normalize()
	if p.Mode == CertifyOff {
		return CertifyOff
	}
	if p.SampleEvery > 1 && (id-1)%p.SampleEvery != 0 {
		return CertifyModel
	}
	return CertifyFull
}

func (p CertifyPolicy) String() string {
	p = p.normalize()
	if p.Mode == CertifyFull && p.SampleEvery > 1 {
		return fmt.Sprintf("sample=%d", p.SampleEvery)
	}
	return p.Mode
}

// PartitionProof pairs one partition index with its RUP refutation.
type PartitionProof struct {
	Partition int
	Proof     *sat.Proof
}

// Certificate is the independently checkable evidence behind a definite
// remote verdict. It travels as JSON (wireCertificate), split across
// "cert" wire frames after the result frame.
type Certificate struct {
	// NumVars is the variable count of the worker's formula; it must
	// match the coordinator's own encoding or the certificate is
	// rejected without further inspection.
	NumVars int `json:"num_vars,omitempty"`
	// Model is the winning partition's satisfying assignment, bit-packed
	// LSB-first (UNSAFE verdicts).
	Model []byte `json:"model,omitempty"`
	// Proofs carries one refutation per partition of the chunk (SAFE
	// verdicts under full certification): the tail its solver logged.
	Proofs []PartitionProof `json:"-"`
	// Prefix identifies the log the tails continue, that of the worker's
	// template; it is compared, never checked. Before tails there was no
	// such field: a certificate without it is from the other side of that
	// change and is refused like any other whose template is not the
	// coordinator's.
	Prefix *sat.ProofDigest `json:"prefix,omitempty"`
}

// packBits packs a bool slice LSB-first.
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// unpackBits reverses packBits for n bits.
func unpackBits(data []byte, n int) ([]bool, error) {
	if n < 0 || len(data) != (n+7)/8 {
		return nil, fmt.Errorf("model is %d bytes, want %d for %d vars", len(data), (n+7)/8, n)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = data[i/8]&(1<<uint(i%8)) != 0
	}
	return out, nil
}

// wireCertificate is the JSON envelope: the certificate's own fields,
// and in place of Proofs each proof as one byte string, its flat form
// (sat.AppendFlat). encoding/json takes longer over a hinted proof spelt
// out as arrays of numbers than the checker takes to check it.
type wireCertificate struct {
	*Certificate
	Proofs []wireProof `json:"proofs,omitempty"`
}

type wireProof struct {
	Partition int    `json:"partition"`
	Proof     []byte `json:"proof"`
}

// encodeCertificate serialises a certificate for the wire. A nil
// certificate encodes to nil (no cert frames follow the result).
func encodeCertificate(c *Certificate) ([]byte, error) {
	if c == nil {
		return nil, nil
	}
	w := wireCertificate{Certificate: c}
	for _, pp := range c.Proofs {
		wp := wireProof{Partition: pp.Partition}
		if pp.Proof != nil {
			wp.Proof = sat.AppendFlat(nil, pp.Proof)
		}
		w.Proofs = append(w.Proofs, wp)
	}
	return json.Marshal(w)
}

// decodeCertificate reverses encodeCertificate.
func decodeCertificate(data []byte) (*Certificate, error) {
	w := wireCertificate{Certificate: &Certificate{}}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("certificate json: %w", err)
	}
	for _, wp := range w.Proofs {
		pp := PartitionProof{Partition: wp.Partition}
		if wp.Proof != nil {
			proof, err := sat.ParseFlat(wp.Proof)
			if err != nil {
				return nil, fmt.Errorf("certificate: partition %d: %w", wp.Partition, err)
			}
			pp.Proof = proof
		}
		w.Certificate.Proofs = append(w.Certificate.Proofs, pp)
	}
	return w.Certificate, nil
}

// buildCertificate assembles the evidence for one honestly computed job
// result: the raw model for UNSAFE (any certify level above off), the
// per-partition proof tails and the digest of the prefix they continue
// for SAFE (full level only — the run kept them iff the job asked).
func buildCertificate(res *core.Result, level string, prefix *sat.ProofDigest) *Certificate {
	if level == CertifyOff || level == "" {
		return nil
	}
	switch res.Verdict {
	case core.Unsafe:
		return &Certificate{NumVars: len(res.Model), Model: packBits(res.Model)}
	case core.Safe:
		if level != CertifyFull {
			return nil
		}
		c := &Certificate{NumVars: res.Vars, Prefix: prefix}
		for _, inst := range res.Instances {
			if inst.Proof != nil {
				c.Proofs = append(c.Proofs, PartitionProof{Partition: inst.Partition, Proof: inst.Proof})
			}
		}
		return c
	}
	return nil
}

// certVerifier holds the coordinator's own prepared run — the root of
// trust every remote certificate is checked against, and what counts the
// scheduler bits a run can split on. Workers receive only the program
// source; whatever formula they actually solved, their evidence must
// check out against this encoding, and a sub-cube's assumptions are
// rebuilt from its split literals, not trusted from the wire. prefix is
// the digest of what its template logged, once Coordinate derived it.
type certVerifier struct {
	prep   *core.Prepared
	prefix sat.ProofDigest
}

// newCertVerifier prepares the run exactly as workers are instructed to:
// same bounds, same total partition count, same budget, proofs logged,
// and its cubes handed out from outside. Its template certifies and
// digests: what it logs goes into its checker, not into memory.
func newCertVerifier(p *prog.Program, opts CoordinatorOptions) (*certVerifier, error) {
	run := workerRun(opts.Unwind, opts.Contexts, opts.Width, opts.Partitions, opts.Budget, true)
	run.CertifyUnsat = true
	prep, err := core.Prepare(p, run)
	if err != nil {
		return nil, fmt.Errorf("distrib: coordinator encoding failed: %w", err)
	}
	prep.Template().DigestPrefix()
	return &certVerifier{prep: prep}, nil
}

// workerRun is the run a job describes, as core.Prepare wants it said:
// what a worker prepares for the jobs of one run, and the coordinator to
// derive what they all logged. The range marks the run as one whose
// cubes arrive from outside; which range does not matter.
func workerRun(unwind, contexts, width, partitions int, budget journal.Budget, proofs bool) core.Options {
	return core.Options{
		Unwind: unwind, Contexts: contexts, Width: width, Partitions: partitions,
		To: max(partitions, 1), Budget: budget, KeepProofs: proofs,
	}
}

// litHolds evaluates a literal under the solver-convention model
// (model[v-1] is variable v).
func litHolds(l cnf.Lit, model []bool) bool {
	return model[l.Var()-1] != l.Neg()
}

// verifyUnsafe checks an UNSAFE claim end to end: the claimed winner
// lies in the cube, the shipped model satisfies every clause of the
// coordinator's formula plus the winner partition's assumptions
// (extended with the cube path's scheduler bits), and the decoded
// counterexample replays to a real assertion violation on the concrete
// interpreter. A model found under a sub-cube's extra assumptions still
// satisfies the parent formula, so sub-cube verification composes: the
// sub-cube's UNSAFE is the parent's UNSAFE.
func (v *certVerifier) verifyUnsafe(cube partition.Cube, winner int, cert *Certificate) error {
	if cert == nil || len(cert.Model) == 0 {
		return fmt.Errorf("UNSAFE claim without a model certificate")
	}
	enc, parts := v.prep.Encoded(), v.prep.Partitions()
	if winner < cube.From || winner > cube.To || winner >= len(parts) {
		return fmt.Errorf("claimed winner %d outside cube %s", winner, cube.Key())
	}
	if f := enc.Formula(); cert.NumVars != f.NumVars {
		return fmt.Errorf("model covers %d vars, coordinator encoding has %d", cert.NumVars, f.NumVars)
	}
	model, err := unpackBits(cert.Model, cert.NumVars)
	if err != nil {
		return err
	}
	for i, c := range enc.Formula().Clauses {
		satisfied := false
		for _, l := range c {
			if litHolds(l, model) {
				satisfied = true
				break
			}
		}
		if !satisfied {
			return fmt.Errorf("claimed model falsifies clause %d of the coordinator's encoding", i)
		}
	}
	assumps, err := parts[winner].CubeAssumptions(cube.Path, v.prep.SplitLits())
	if err != nil {
		return fmt.Errorf("cube %s: %v", cube.Key(), err)
	}
	for _, l := range assumps {
		if !litHolds(l, model) {
			return fmt.Errorf("claimed model violates cube %s assumption %v", cube.Key(), l)
		}
	}
	tr := trace.Decode(enc, model)
	viol, err := trace.Validate(enc, tr)
	if err != nil {
		return fmt.Errorf("counterexample replay failed: %v", err)
	}
	if viol == nil {
		return fmt.Errorf("counterexample replay reached no assertion violation")
	}
	return nil
}

// verifySafe checks a SAFE claim: the certificate must refute every
// partition of the cube with a RUP proof tail that checks against the
// coordinator's formula extended by the coordinator's prefix, under that
// partition's assumptions extended with the cube path. Per-sub-cube
// proofs compose to cover the parent: the two children of a split
// partition the parent's assumption space exactly (same literal, both
// polarities), so refuting both children refutes the parent. It reports
// the proof checker's work, rejected proofs included.
func (v *certVerifier) verifySafe(cube partition.Cube, cert *Certificate) (work sat.ProofCheckerStats, err error) {
	if cert == nil {
		return work, fmt.Errorf("SAFE claim without a proof certificate")
	}
	parts := v.prep.Partitions()
	if cube.From < 0 || cube.To >= len(parts) {
		return work, fmt.Errorf("cube %s outside the coordinator's %d partitions", cube.Key(), len(parts))
	}
	proofs := make(map[int]*sat.Proof, len(cert.Proofs))
	for _, pp := range cert.Proofs {
		if _, dup := proofs[pp.Partition]; dup {
			return work, fmt.Errorf("duplicate proof for partition %d", pp.Partition)
		}
		proofs[pp.Partition] = pp.Proof
	}
	// The tails of another template prove nothing here, and saying so
	// beats "lemma 1 is not a RUP consequence": the worker runs another
	// build or was told another budget, and is refused, not suspected.
	if cert.Prefix == nil || *cert.Prefix != v.prefix {
		return work, fmt.Errorf("template mismatch: the worker's proofs continue %s, the coordinator's template logged %s (another build, or another budget)",
			describeDigest(cert.Prefix), describeDigest(&v.prefix))
	}
	for idx := cube.From; idx <= cube.To; idx++ {
		proof := proofs[idx]
		if proof == nil {
			return work, fmt.Errorf("no refutation proof for partition %d", idx)
		}
		assumps, err := parts[idx].CubeAssumptions(cube.Path, v.prep.SplitLits())
		if err != nil {
			return work, fmt.Errorf("cube %s: %v", cube.Key(), err)
		}
		done, err := v.prep.Template().Check(assumps, proof)
		work.Add(done)
		if err != nil {
			return work, fmt.Errorf("partition %d (cube %s): %v", idx, cube.Key(), err)
		}
	}
	return work, nil
}

func describeDigest(d *sat.ProofDigest) string {
	if d == nil {
		return "no prefix at all"
	}
	return fmt.Sprintf("a prefix of %d lemmas (sha256 %.12s)", d.Lemmas, d.SHA256)
}

// readCertificate reads the certificate frames a result declared via
// CertSize and decodes them. Errors wrapped in errCertificate are the
// worker's fault (oversized declaration, protocol violation, corrupt
// payload) and condemn the worker; bare errors are transport failures
// and only charge a retryable attempt.
func (co *coordinator) readCertificate(wc *conn, id int, key string, reply *Message, heartbeats bool) (*Certificate, error) {
	if reply.CertSize == 0 {
		return nil, nil
	}
	if reply.CertSize < 0 || reply.CertSize > maxCertBytes {
		return nil, fmt.Errorf("%w: job %d on %s declares a %d-byte certificate (cap %d)",
			errCertificate, id, key, reply.CertSize, int64(maxCertBytes))
	}
	grace := co.opts.JobTimeout
	if heartbeats && co.opts.HeartbeatGrace < grace {
		grace = co.opts.HeartbeatGrace
	}
	data := make([]byte, 0, reply.CertSize)
	for seq := 0; int64(len(data)) < reply.CertSize; seq++ {
		m, err := wc.recv(grace)
		if err != nil {
			return nil, fmt.Errorf("job %d on %s: certificate frame %d: %v", id, key, seq, err)
		}
		if m.Type != "cert" || m.JobID != id || m.Seq != seq {
			return nil, fmt.Errorf("%w: job %d on %s: expected cert frame %d, got %q job=%d seq=%d",
				errCertificate, id, key, seq, m.Type, m.JobID, m.Seq)
		}
		if len(m.Data) == 0 || int64(len(data)+len(m.Data)) > reply.CertSize {
			return nil, fmt.Errorf("%w: job %d on %s: certificate frames overflow the declared %d bytes",
				errCertificate, id, key, reply.CertSize)
		}
		data = append(data, m.Data...)
	}
	cert, err := decodeCertificate(data)
	if err != nil {
		return nil, fmt.Errorf("%w: job %d on %s: %v", errCertificate, id, key, err)
	}
	return cert, nil
}

// rejectCertificate quarantines the worker behind a rejected certificate
// and puts its cube back on the queue. The cube is not charged a
// failed attempt — it did nothing wrong, and a fleet with one persistent
// liar must not be able to quarantine cubes by burning their budgets.
func (co *coordinator) rejectCertificate(a *partition.Assignment, key, reason string) {
	co.health.certRejected(key)
	co.health.failed(key)
	co.metrics.certRejected.Inc()
	co.metrics.workerCertRejected(key)
	co.mu.Lock()
	co.res.CertRejected++
	co.mu.Unlock()
	co.retry(a, reason, false)
}

// certify puts a definite verdict's evidence to the coordinator's own
// encoding, under the cube's full assumption set, path bits included —
// a SAFE one only at the level that ships proofs — and accounts for the
// check: its time and the proof checker's work. The error wraps
// errCertificate.
func (co *coordinator) certify(a *partition.Assignment, key, level string, reply *Message, cert *Certificate, jobSpan *obs.Span) (certified bool, err error) {
	certSpan := jobSpan.Child("certify_verify", obs.KV("level", level))
	start := time.Now()
	var work sat.ProofCheckerStats
	var verr error
	switch {
	case reply.Verdict == core.Unsafe.String():
		verr = co.verifier.verifyUnsafe(a.Cube, reply.Winner, cert)
	case reply.Verdict == core.Safe.String() && level == CertifyFull:
		work, verr = co.verifier.verifySafe(a.Cube, cert)
	}
	dur := time.Since(start)
	certSpan.End(obs.KV("ok", verr == nil))
	co.metrics.certifySeconds.Observe(dur.Seconds())
	co.metrics.certifyPropagations.Add(work.Propagations)
	co.metrics.certifyHintFallbacks.Add(work.Fallbacks)
	certified = verr == nil && (reply.Verdict == core.Unsafe.String() || level == CertifyFull)
	co.mu.Lock()
	co.res.CertifyMillis += dur.Milliseconds()
	co.res.CertifyWork.Add(work)
	if certified {
		co.res.Certified++
		co.res.CertBytes += reply.CertSize
	}
	co.mu.Unlock()
	if verr != nil {
		return false, fmt.Errorf("%w: job %d on %s: %v", errCertificate, a.JobID, key, verr)
	}
	if certified {
		co.metrics.certVerified.Inc()
	}
	return certified, nil
}
