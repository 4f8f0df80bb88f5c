package distrib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
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
// The model travels in every certify mode, for a worker never sees the
// program and cannot replay its own counterexample: the coordinator
// decodes every UNSAFE model on its encoding and replays it on the
// concrete interpreter before it believes the verdict. Uncertified, that
// replay is the only check, a model that fails it a failed attempt.
//
// A SAFE proof is a tail: what the partition's solver logged after it
// was cloned from the run's template. What the template logged before —
// the prefix, the derivations and deletions of its simplification pass —
// is never on the wire, and needs no name there: the template is the
// coordinator's own, built from its encoding and shipped to every worker
// (Coordinate), so every honest tail continues the coordinator's prefix
// by construction, and it checks every tail on one proof checker
// extended by it. A worker that solved on anything else is refused at
// the first lemma that does not check.

const (
	// maxCertBytes caps one certificate's wire size. A declared size
	// above the cap is rejected before a single frame is read, so a
	// Byzantine worker cannot make the coordinator buffer an arbitrary
	// payload; and since nothing on the way in expands, the cap bounds
	// what checking it costs in memory too. The envelope is not
	// compressed, and decoding copies nothing (decodeCertificate); the
	// proofs are checked straight off the bytes, a step as it is read
	// (sat.ProofChecker.Check), which allocates per proof two buffers
	// as long as its longest clause and chain, and per step nothing but
	// what a lemma adds to the checker while the proof is checked: a
	// lemma of n literals, which takes n+2 bytes or more, grows the
	// checker's arena by n+1 words and its ID table by one — fewer than
	// sixteen bytes of memory per byte sent, all given back at the next
	// proof.
	maxCertBytes = 64 << 20 // 64 MiB
)

// errCertificate marks a certificate rejection — evidence that is
// missing, malformed, oversized, or fails verification. It is
// distinguished from transport errors because the response differs:
// a rejected certificate quarantines the worker as untrusted, while a
// transport failure only charges a retryable attempt.
var errCertificate = errors.New("certificate rejected")

// errRederive marks a check the coordinator could not make because it
// could not make its formula again (parallel.Template.Formula): its own
// fault, not the worker's, so a failed attempt of the cube and never a
// pass.
var errRederive = errors.New("the coordinator's formula")

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
	case strings.HasPrefix(s, "sample="):
		digits := s[len("sample="):]
		n, err := strconv.Atoi(digits)
		if err != nil || n < 1 || strings.TrimLeft(digits, "0123456789") != "" {
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
	// Proof is the tail the partition's solver logged
	// (parallel.InstanceResult.Proof), as it goes from the solver to the
	// coordinator's checker (sat.ProofChecker.Check); empty, of no step.
	Proof sat.Proof
}

// Certificate is the independently checkable evidence behind a definite
// remote verdict. It travels in its wire form (encodeCertificate), split
// across "cert" wire frames after the result frame (sendChunked).
type Certificate struct {
	// NumVars is the variable count of the template the worker solved
	// on; a model must cover the coordinator's own encoding's or the
	// certificate is rejected without further inspection.
	NumVars int
	// Model is the winning partition's satisfying assignment, bit-packed
	// LSB-first (UNSAFE verdicts).
	Model []byte
	// Proofs carries one refutation per partition of the chunk (SAFE
	// verdicts under full certification): the tail its solver logged.
	Proofs []PartitionProof
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

// certMagic opens a certificate's wire form, which is raw bytes behind a
// small header — the proofs are flat already, and an envelope that spelt
// them out (JSON, base64) cost more CPU than checking them:
//
//	"PBMCRT2"        magic and version
//	NumVars          uvarint
//	m, m bytes       the model
//	P                uvarint: proofs
//	P times          partition (zigzag varint), n (uvarint), then n
//	                 bytes: the proof's steps (sat.FlatLog), none if n is 0
const certMagic = "PBMCRT2"

// encodeCertificate serialises a certificate for the wire. A nil
// certificate encodes to nil (no cert frames follow the result).
func encodeCertificate(c *Certificate) []byte {
	if c == nil {
		return nil
	}
	size := len(certMagic) + 3*binary.MaxVarintLen64 + len(c.Model)
	for _, pp := range c.Proofs {
		size += 2*binary.MaxVarintLen64 + len(pp.Proof)
	}
	out := append(make([]byte, 0, size), certMagic...)
	out = binary.AppendUvarint(out, uint64(c.NumVars))
	out = binary.AppendUvarint(out, uint64(len(c.Model)))
	out = append(out, c.Model...)
	out = binary.AppendUvarint(out, uint64(len(c.Proofs)))
	for _, pp := range c.Proofs {
		out = binary.AppendVarint(out, int64(pp.Partition))
		out = binary.AppendUvarint(out, uint64(len(pp.Proof)))
		out = append(out, pp.Proof...)
	}
	return out
}

// decodeCertificate reverses encodeCertificate, on bytes that may be
// anyone's: a count or a length the bytes behind it cannot honour, or a
// byte left over, is an error. The model and the proofs are slices of
// data, not copies, and a proof's form is left to its check
// (sat.ProofChecker.Check): what decoding allocates is one
// PartitionProof per two bytes at most.
func decodeCertificate(data []byte) (*Certificate, error) {
	rest, ok := bytes.CutPrefix(data, []byte(certMagic))
	if !ok {
		return nil, fmt.Errorf("certificate: no %q header", certMagic)
	}
	var err error
	next := func() uint64 {
		v, n := binary.Uvarint(rest)
		if n <= 0 && err == nil {
			err = fmt.Errorf("certificate: no number in the last %d bytes", len(rest))
		}
		rest = rest[max(n, 0):]
		return v
	}
	take := func(n uint64) []byte {
		if n > uint64(len(rest)) && err == nil {
			err = fmt.Errorf("certificate: %d bytes declared, %d left", n, len(rest))
		}
		if err != nil {
			return nil
		}
		b := rest[:n:n]
		rest = rest[n:]
		return b
	}
	c := &Certificate{}
	vars := next()
	if vars > math.MaxInt32 && err == nil {
		err = fmt.Errorf("certificate: %d variables", vars)
	}
	c.NumVars = int(vars)
	if c.Model = take(next()); len(c.Model) == 0 {
		c.Model = nil
	}
	proofs := next()
	if err == nil && proofs > uint64(len(rest))/2 {
		err = fmt.Errorf("certificate: %d proofs ahead of %d bytes", proofs, len(rest))
	}
	for i := uint64(0); i < proofs && err == nil; i++ {
		part, n := binary.Varint(rest)
		if n <= 0 || part < math.MinInt32 || part > math.MaxInt32 {
			err = fmt.Errorf("certificate: proof %d: no partition index", i)
			break
		}
		rest = rest[n:]
		c.Proofs = append(c.Proofs, PartitionProof{Partition: int(part), Proof: take(next())})
	}
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("certificate: %d bytes left over", len(rest))
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// buildCertificate assembles the evidence for one honestly computed job
// result: the raw model for UNSAFE, at every level — the coordinator
// replays it whether or not the run certifies — and the per-partition
// proof tails for SAFE (full level only: the job kept them iff it asked).
// vars is the variable count of the template the job was solved on.
func buildCertificate(res *parallel.Result, level string, vars int) *Certificate {
	switch res.Status {
	case sat.Sat:
		return &Certificate{NumVars: len(res.Model), Model: packBits(res.Model)}
	case sat.Unsat:
		if level != CertifyFull {
			return nil
		}
		c := &Certificate{NumVars: vars}
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
// trust every remote verdict is checked against. Workers receive the
// run's template and each cube's assumption literals, which it makes
// (assumptions) from this encoding and its split literals; whatever they
// actually solved, their evidence must check out against this encoding,
// under the cube's assumptions rebuilt the same way, not trusted from the
// wire. Its template is the run's, which Coordinate built — deriving the
// checker beside it when the run certifies — and shipped.
type certVerifier struct {
	prep *core.Prepared
}

// prepareRun prepares the coordinator's own copy of the run: the one it
// partitions, journals and reports, whose template every worker
// restores, whose cubes' assumptions every job carries and on whose
// encoding every counterexample is replayed. When the run certifies, the
// template's build derives the run's proof checker from what it logs,
// which it does not keep: the coordinator joins no proof to it. The
// formula goes once the template and the checker have loaded it, in every
// mode (parallel.Template.Formula).
func prepareRun(p *prog.Program, opts *CoordinatorOptions) (*certVerifier, error) {
	prep, err := core.Prepare(p, core.Options{
		Unwind: opts.Unwind, Contexts: opts.Contexts, Width: opts.Width, Partitions: opts.Partitions,
		To: opts.Partitions, Budget: opts.Budget, CertifyUnsat: opts.Certify.Enabled(),
	})
	if err != nil {
		return nil, fmt.Errorf("distrib: coordinator encoding failed: %w", err)
	}
	return &certVerifier{prep: prep}, nil
}

// assumptions are the assumption literals of every partition of a cube,
// in order: the partition's own, extended by the split literals its path
// fixes — what a job of the cube carries, and what its evidence is
// checked under.
func (v *certVerifier) assumptions(cube partition.Cube) ([][]cnf.Lit, error) {
	parts := v.prep.Partitions()
	if cube.From < 0 || cube.To < cube.From || cube.To >= len(parts) {
		return nil, fmt.Errorf("cube %s outside the coordinator's %d partitions", cube.Key(), len(parts))
	}
	out := make([][]cnf.Lit, 0, cube.To-cube.From+1)
	for _, pt := range parts[cube.From : cube.To+1] {
		lits, err := pt.CubeAssumptions(cube.Path, v.prep.SplitLits())
		if err != nil {
			return nil, fmt.Errorf("cube %s: %v", cube.Key(), err)
		}
		out = append(out, lits)
	}
	return out, nil
}

// litHolds evaluates a literal under the solver-convention model
// (model[v-1] is variable v).
func litHolds(l cnf.Lit, model []bool) bool {
	return model[l.Var()-1] != l.Neg()
}

// replay checks an UNSAFE claim's model the way every run does, certified
// or not: it covers the coordinator's encoding, and the counterexample
// decoded from it replays to a real assertion violation on the concrete
// interpreter. It reads no formula — an uncertified run has let it go —
// and returns the model.
func (v *certVerifier) replay(cert *Certificate) ([]bool, error) {
	if cert == nil || len(cert.Model) == 0 {
		return nil, fmt.Errorf("UNSAFE claim without a model certificate")
	}
	if cert.NumVars != v.prep.Vars() {
		return nil, fmt.Errorf("model covers %d vars, coordinator encoding has %d", cert.NumVars, v.prep.Vars())
	}
	model, err := unpackBits(cert.Model, cert.NumVars)
	if err != nil {
		return nil, err
	}
	enc := v.prep.Encoded()
	viol, err := trace.Validate(enc, trace.Decode(enc, model))
	if err != nil {
		return nil, fmt.Errorf("counterexample replay failed: %v", err)
	}
	if viol == nil {
		return nil, fmt.Errorf("counterexample replay reached no assertion violation")
	}
	return model, nil
}

// verifyUnsafe checks an UNSAFE claim end to end: the claimed winner
// lies in the cube, the shipped model replays (replay), and it satisfies
// every clause of the coordinator's formula plus the winner partition's
// assumptions (extended with the cube path's scheduler bits). A model
// found under a sub-cube's extra assumptions still satisfies the parent
// formula, so sub-cube verification composes: the sub-cube's UNSAFE is
// the parent's UNSAFE. The formula went when the template had loaded it:
// the run's encoder makes it again here, checked against its digest
// (parallel.Template.Formula), and it goes again with the check.
func (v *certVerifier) verifyUnsafe(cube partition.Cube, winner int, cert *Certificate) error {
	if winner < cube.From || winner > cube.To {
		return fmt.Errorf("claimed winner %d outside cube %s", winner, cube.Key())
	}
	model, err := v.replay(cert)
	if err != nil {
		return err
	}
	f, err := v.prep.Template().Formula()
	if err != nil {
		return fmt.Errorf("%w: %v", errRederive, err)
	}
	falsified, i := -1, 0
	f.Each(func(c cnf.Clause) {
		if falsified < 0 && !slices.ContainsFunc(c, func(l cnf.Lit) bool { return litHolds(l, model) }) {
			falsified = i
		}
		i++
	})
	if falsified >= 0 {
		return fmt.Errorf("claimed model falsifies clause %d of the coordinator's encoding", falsified)
	}
	assumps, err := v.assumptions(partition.Cube{From: winner, To: winner, Path: cube.Path})
	if err != nil {
		return err
	}
	for _, l := range assumps[0] {
		if !litHolds(l, model) {
			return fmt.Errorf("claimed model violates cube %s assumption %v", cube.Key(), l)
		}
	}
	return nil
}

// verifySafe checks a SAFE claim: the certificate must refute every
// partition of the cube with a RUP proof tail that checks against the
// coordinator's formula extended by its template's prefix, under that
// partition's assumptions extended with the cube path. Per-sub-cube
// proofs compose to cover the parent: the two children of a split
// partition the parent's assumption space exactly (same literal, both
// polarities), so refuting both children refutes the parent. It reports
// the proof checker's work, rejected proofs included.
func (v *certVerifier) verifySafe(cube partition.Cube, cert *Certificate) (work sat.ProofCheckerStats, err error) {
	if cert == nil {
		return work, fmt.Errorf("SAFE claim without a proof certificate")
	}
	assumps, err := v.assumptions(cube)
	if err != nil {
		return work, err
	}
	// Every proof is one of the cube's, and is checked: a proof the
	// decoder left unread is not let through unread.
	proofs := make(map[int]sat.Proof, len(cert.Proofs))
	for _, pp := range cert.Proofs {
		if _, dup := proofs[pp.Partition]; dup {
			return work, fmt.Errorf("duplicate proof for partition %d", pp.Partition)
		}
		if pp.Partition < cube.From || pp.Partition > cube.To {
			return work, fmt.Errorf("proof for partition %d outside cube %s", pp.Partition, cube.Key())
		}
		proofs[pp.Partition] = pp.Proof
	}
	for i, assume := range assumps {
		idx := cube.From + i
		proof, ok := proofs[idx] // an empty one is a proof of no step
		if !ok {
			return work, fmt.Errorf("no refutation proof for partition %d", idx)
		}
		done, err := v.prep.Template().Check(assume, proof)
		work.Add(done)
		if err != nil {
			return work, fmt.Errorf("partition %d (cube %s): %v", idx, cube.Key(), err)
		}
	}
	return work, nil
}

// readCertificate reads the certificate a result declared via CertSize
// and decodes it. Errors wrapped in errCertificate are the worker's fault
// (oversized declaration, protocol violation, corrupt payload) and
// condemn the worker; bare errors are transport failures and only charge
// a retryable attempt.
func (co *coordinator) readCertificate(wc *conn, id int, key string, reply *Message) (*Certificate, error) {
	if reply.CertSize == 0 {
		return nil, nil
	}
	data, err := readChunks(func() (*Message, error) { return wc.recv(co.opts.HeartbeatGrace) },
		"cert", id, reply.CertSize, maxCertBytes)
	switch {
	case errors.Is(err, errStream):
		return nil, fmt.Errorf("%w: job %d on %s: %v", errCertificate, id, key, err)
	case err != nil:
		return nil, fmt.Errorf("job %d on %s: %v", id, key, err)
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
	co.opts.Health.certRejected(key)
	co.tally.add(func(r *CoordinatorResult) { r.CertRejected++ })
	co.retry(a, reason, false)
}

// certify puts a definite verdict's evidence to the coordinator's own
// encoding, under the cube's full assumption set, path bits included —
// a SAFE one only at the level that ships proofs — and accounts for the
// check: its time and the proof checker's work. The error wraps
// errCertificate, or errRederive when the check could not be made.
func (co *coordinator) certify(a *partition.Assignment, key, level string, reply *Message, cert *Certificate, jobSpan *obs.Span) (certified bool, err error) {
	certSpan := jobSpan.Child("certify_verify", obs.KV("level", level))
	start := time.Now()
	var work sat.ProofCheckerStats
	var verr error
	status := sat.ParseStatus(reply.Verdict)
	switch {
	case status == sat.Sat:
		verr = co.verifier.verifyUnsafe(a.Cube, reply.Winner, cert)
	case status == sat.Unsat && level == CertifyFull:
		work, verr = co.verifier.verifySafe(a.Cube, cert)
	}
	dur := time.Since(start)
	certSpan.End(obs.KV("ok", verr == nil))
	co.metrics.certifySeconds.Observe(dur.Seconds())
	certified = verr == nil && (status == sat.Sat || level == CertifyFull)
	co.tally.add(func(r *CoordinatorResult) {
		r.CertifyMillis += dur.Milliseconds()
		r.CertifyWork.Add(work)
		if certified {
			r.Certified++
			r.CertBytes += reply.CertSize
		}
	})
	switch {
	case errors.Is(verr, errRederive):
		return false, fmt.Errorf("job %d on %s: %w", a.JobID, key, verr)
	case verr != nil:
		return false, fmt.Errorf("%w: job %d on %s: %v", errCertificate, a.JobID, key, verr)
	}
	return certified, nil
}
