package sat

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// This file serialises refutation proofs. Two formats are supported:
//
//   - DRAT-style text (WriteDRAT / ParseDRAT): one lemma per line as
//     signed DIMACS literals terminated by 0, and a deletion as the same
//     behind "d", where the solver logged it: the format external proof
//     checkers and humans read. It has no place for hints.
//   - The flat form (AppendFlat / ParseFlat) the distributed certificate
//     layer ships: the whole proof, hints included, as one string of
//     uvarints.
//
// The Proof struct also marshals as JSON as it stands (cnf.Lit is an
// integer, a Hint a base64 string); nothing ships it that way (see
// distrib's wireCertificate for why).
//
// Digest is the third: a proof's identity, for two parties that each
// hold one and want to know whether it is the same one without sending
// it.
//
// Size accounting (NumLemmas / NumLits) lets senders and receivers
// budget serialisation up front and report what a check took on.

// NumLemmas returns the number of derived clauses in the proof,
// nil-safe.
func (p *Proof) NumLemmas() int {
	if p == nil {
		return 0
	}
	return len(p.Lemmas)
}

// NumLits returns the total literal count across all lemmas. Nil-safe.
func (p *Proof) NumLits() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, c := range p.Lemmas {
		n += len(c)
	}
	return n
}

// steps walks the proof in the order a checker takes it: each deletion
// before the first lemma it precedes, the rest after the last.
func (p *Proof) steps(visit func(deleted bool, c cnf.Clause) error) error {
	dels := p.Deletes
	for i, lemma := range p.Lemmas {
		for ; len(dels) > 0 && dels[0].At <= i; dels = dels[1:] {
			if err := visit(true, dels[0].Clause); err != nil {
				return err
			}
		}
		if err := visit(false, lemma); err != nil {
			return err
		}
	}
	for _, d := range dels {
		if err := visit(true, d.Clause); err != nil {
			return err
		}
	}
	return nil
}

// ProofDigest identifies a proof: how many lemmas it has and the
// SHA-256 of its steps.
type ProofDigest struct {
	Lemmas int    `json:"lemmas"`
	SHA256 string `json:"sha256"`
}

// ProofDigester computes a ProofDigest from the steps of a proof as they
// come (Solver.StreamProof), in the order a checker takes them.
type ProofDigester struct {
	h      hash.Hash
	lemmas int
	buf    []byte
}

func NewProofDigester() *ProofDigester { return &ProofDigester{h: sha256.New()} }

// Step takes one step: a lemma, or a deletion, in cnf.Lit's encoding.
func (d *ProofDigester) Step(deleted bool, clause []uint32) {
	// No literal is 0 or 1, so the step kind doubles as a separator.
	kind := uint32(0)
	if deleted {
		kind = 1
	} else {
		d.lemmas++
	}
	d.buf = binary.LittleEndian.AppendUint32(d.buf[:0], kind)
	for _, l := range clause {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, l)
	}
	d.h.Write(d.buf)
}

// Sum is the digest of the steps so far.
func (d *ProofDigester) Sum() ProofDigest {
	return ProofDigest{Lemmas: d.lemmas, SHA256: hex.EncodeToString(d.h.Sum(nil))}
}

// Digest hashes the proof's steps, deletions included, in the order a
// checker takes them: equal digests mean the same lemmas and the same
// deletions at the same places, literal for literal. Nil hashes as the
// empty proof.
func (p *Proof) Digest() ProofDigest {
	d := NewProofDigester()
	if p == nil {
		return d.Sum()
	}
	var buf []uint32
	_ = p.steps(func(deleted bool, c cnf.Clause) error {
		buf = buf[:0]
		for _, l := range c {
			buf = append(buf, uint32(l))
		}
		d.Step(deleted, buf)
		return nil
	})
	return d.Sum()
}

// AppendFlat appends the flat form of p (nil: the empty proof) to dst.
// Every number is a uvarint, every literal in cnf.Lit's encoding:
//
//	L T D H      lemmas; literals in lemmas and deletions together;
//	             deletions; hints (at most L)
//	L times      n, then the lemma's n literals
//	D times      At (0 for a negative one, L for one beyond), n, then the
//	             deleted clause's n literals
//	H times      b, then the b bytes of the hint, as Hint keeps them
//
// Fixing a Deletion's At to the range changes nothing about when it takes
// effect.
func AppendFlat(dst []byte, p *Proof) []byte {
	if p == nil {
		p = &Proof{}
	}
	lits := p.NumLits()
	for _, d := range p.Deletes {
		lits += len(d.Clause)
	}
	hints := p.Hints[:min(len(p.Hints), len(p.Lemmas))]
	for _, n := range [4]int{len(p.Lemmas), lits, len(p.Deletes), len(hints)} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	clause := func(c cnf.Clause) {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		for _, l := range c {
			dst = binary.AppendUvarint(dst, uint64(l))
		}
	}
	for _, c := range p.Lemmas {
		clause(c)
	}
	for _, d := range p.Deletes {
		dst = binary.AppendUvarint(dst, uint64(min(max(d.At, 0), len(p.Lemmas))))
		clause(d.Clause)
	}
	for _, h := range hints {
		dst = binary.AppendUvarint(dst, uint64(len(h)))
		dst = append(dst, h...)
	}
	return dst
}

// ParseFlat reads a proof from its flat form, which may be anyone's: a
// count the bytes behind it cannot honour, a literal beyond 32 bits, a
// deletion placed after the last lemma or a byte left over is an error,
// and so is a header that asks for more than sixteen bytes of memory per
// byte of data — a slice header for each of a proof's worth of empty
// clauses is the one way to. What the header asks for is allocated once,
// clauses carved from one slab; the hints alias data.
func ParseFlat(data []byte) (*Proof, error) {
	r := flatReader{data: data}
	nl, nt, nd, nh := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
	// A lemma, a literal and a hint each take a byte or more of what
	// follows, a deletion two. In 8-byte words, a clause header is 3, a
	// literal 1, a Deletion 4, a Hint 3.
	rest, budget := uint64(len(r.data)), 2*uint64(len(data))
	if r.err == nil && (max(nl, nt, nd, nh) > rest || nl+nt+2*nd+nh > rest || nh > nl || 3*nl+nt+4*nd+3*nh > budget) {
		r.err = fmt.Errorf("counts %d %d %d %d ahead of %d bytes", nl, nt, nd, nh, rest)
	}
	if r.err != nil {
		return nil, fmt.Errorf("sat: flat proof: %w", r.err)
	}
	p := &Proof{}
	if nl > 0 {
		p.Lemmas = make([]cnf.Clause, nl)
	}
	slab := make([]cnf.Lit, 0, nt)
	clause := func() cnf.Clause {
		n := r.uvarint()
		if r.err == nil && n > uint64(cap(slab)-len(slab)) {
			r.err = fmt.Errorf("more literals than the %d declared", nt)
		}
		if r.err != nil {
			return nil
		}
		start := len(slab)
		for range n {
			l := r.uvarint()
			if l > math.MaxUint32 && r.err == nil {
				r.err = fmt.Errorf("literal %d beyond 32 bits", l)
			}
			if r.err != nil {
				return nil
			}
			slab = append(slab, cnf.Lit(l))
		}
		return slab[start:len(slab):len(slab)]
	}
	for i := range p.Lemmas {
		p.Lemmas[i] = clause()
	}
	if nd > 0 {
		p.Deletes = make([]Deletion, nd)
	}
	for i := range p.Deletes {
		at := r.uvarint()
		if at > nl && r.err == nil {
			r.err = fmt.Errorf("deletion %d placed at %d, after the last of %d lemmas", i, at, nl)
		}
		p.Deletes[i] = Deletion{At: int(at), Clause: clause()}
	}
	if nh > 0 {
		p.Hints = make([]Hint, nh)
	}
	for i := range p.Hints {
		p.Hints[i] = r.bytes(r.uvarint())
	}
	switch {
	case r.err != nil:
	case len(slab) != cap(slab):
		r.err = fmt.Errorf("%d literals, %d declared", len(slab), nt)
	case len(r.data) > 0:
		r.err = fmt.Errorf("%d bytes left over", len(r.data))
	}
	if r.err != nil {
		return nil, fmt.Errorf("sat: flat proof: %w", r.err)
	}
	return p, nil
}

// flatReader takes uvarints and byte strings off the front of data until
// the first that is not there; from then on it returns zeros and err
// says which.
type flatReader struct {
	data []byte
	err  error
}

func (r *flatReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.err = fmt.Errorf("no number in the last %d bytes", len(r.data))
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *flatReader) bytes(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.data)) {
		r.err = fmt.Errorf("%d bytes wanted of the last %d", n, len(r.data))
	}
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// WriteDRAT writes the proof as DRAT-style text: one lemma per line of
// space-separated signed DIMACS literals, each terminated by " 0", and
// "d " before those of a deleted clause. A header comment records the
// lemma count so a truncated file is detectable by eye.
func WriteDRAT(w io.Writer, p *Proof) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "c RUP proof, %d lemmas, %d literals\n", p.NumLemmas(), p.NumLits()); err != nil {
		return err
	}
	if p != nil {
		err := p.steps(func(deleted bool, c cnf.Clause) error {
			if deleted {
				bw.WriteString("d ")
			}
			for _, l := range c {
				fmt.Fprintf(bw, "%d ", l.Dimacs())
			}
			_, err := bw.WriteString("0\n")
			return err
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseDRAT reads a DRAT-style text proof: comment lines ("c ...") are
// skipped, every other line must be signed DIMACS literals terminated
// by 0, behind "d" for a deletion. The empty clause ("0" alone) parses
// as a zero-length lemma.
func ParseDRAT(r io.Reader) (*Proof, error) {
	p := &Proof{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		line, deleted := strings.CutPrefix(line, "d")
		var lemma cnf.Clause
		terminated := false
		for _, tok := range strings.Fields(line) {
			if terminated {
				return nil, fmt.Errorf("sat: drat line %d: literals after terminating 0", lineNo)
			}
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: drat line %d: bad literal %q", lineNo, tok)
			}
			if n == 0 {
				terminated = true
				continue
			}
			lemma = append(lemma, cnf.FromDimacs(n))
		}
		if !terminated {
			return nil, fmt.Errorf("sat: drat line %d: missing terminating 0", lineNo)
		}
		if deleted {
			p.Deletes = append(p.Deletes, Deletion{At: len(p.Lemmas), Clause: lemma})
		} else {
			p.Lemmas = append(p.Lemmas, lemma)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sat: drat: %w", err)
	}
	return p, nil
}
