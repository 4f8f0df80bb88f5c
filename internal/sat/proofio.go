package sat

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// This file serialises refutation proofs. Two formats are supported:
//
//   - DRAT-style text (WriteDRAT / ParseDRAT): one lemma per line as
//     signed DIMACS literals terminated by 0, and a deletion as the same
//     behind "d", where the solver logged it: the format external proof
//     checkers and humans read.
//   - The JSON encoding the distributed certificate layer uses is the
//     Proof struct itself: cnf.Lit is an integer, so Lemmas marshals as
//     [][]int in the solver's internal literal encoding (2v / 2v+1),
//     and Deletes as {At, Clause} objects, left out when there are none.
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
