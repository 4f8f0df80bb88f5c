package sat

import (
	"bufio"
	"encoding/binary"
	"fmt"
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
//     checkers and humans read. It has no place for clause IDs, so
//     neither for chains nor for the IDs of deletions.
//   - The flat form (AppendFlat / ParseFlat) the distributed certificate
//     layer ships: the whole proof, IDs and chains included, as one
//     string of uvarints.
//
// The Proof struct also marshals as JSON as it stands (cnf.Lit and a
// clause ID are integers); nothing ships it that way (see distrib's
// wireCertificate for why).
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

// AppendFlat appends the flat form of p (nil: the empty proof) to dst.
// Every number is a uvarint, every literal in cnf.Lit's encoding:
//
//	L T D C I    lemmas; literals in lemmas and deletions together;
//	             deletions; chains (at most L); IDs in the chains
//	L times      n, then the lemma's n literals
//	D times      At (0 for a negative one, L for one beyond), ID, n, then
//	             the deleted clause's n literals
//	C times      k, then the chain's k IDs, each as the zigzag of its
//	             difference from the one before it, the first's from 0
//
// Fixing a Deletion's At to the range changes nothing about when it takes
// effect.
func AppendFlat(dst []byte, p *Proof) []byte {
	if p == nil {
		p = &Proof{}
	}
	lits, ids := p.NumLits(), 0
	for _, d := range p.Deletes {
		lits += len(d.Clause)
	}
	chains := p.Chains[:min(len(p.Chains), len(p.Lemmas))]
	for _, c := range chains {
		ids += len(c)
	}
	for _, n := range [5]int{len(p.Lemmas), lits, len(p.Deletes), len(chains), ids} {
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
		dst = binary.AppendUvarint(dst, uint64(d.ID))
		clause(d.Clause)
	}
	for _, c := range chains {
		dst = binary.AppendUvarint(dst, uint64(len(c)))
		prev := int64(0)
		for _, id := range c {
			dst = binary.AppendVarint(dst, int64(id)-prev)
			prev = int64(id)
		}
	}
	return dst
}

// ParseFlat reads a proof from its flat form, which may be anyone's: a
// count the bytes behind it cannot honour, a literal or an ID beyond 32
// bits, a deletion placed after the last lemma or a byte left over is an
// error, and so is a header that asks for more than sixteen bytes of
// memory per byte of data — a slice header for each of a proof's worth
// of empty clauses is the one way to. What the header asks for is
// allocated once: clauses carved from one slab, chains from another.
func ParseFlat(data []byte) (*Proof, error) {
	r := flatReader{data: data}
	nl, nt, nd, nc, ni := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
	// A lemma, a literal, a chain and an ID each take a byte or more of
	// what follows, a deletion three. In 8-byte words, a clause header is
	// 3, a literal 1, a Deletion 5, a chain 3 and an ID a half.
	rest, budget := uint64(len(r.data)), 2*uint64(len(data))
	if r.err == nil && (max(nl, nt, nd, nc, ni) > rest || nl+nt+3*nd+nc+ni > rest || nc > nl ||
		3*nl+nt+5*nd+3*nc+ni/2 > budget) {
		r.err = fmt.Errorf("counts %d %d %d %d %d ahead of %d bytes", nl, nt, nd, nc, ni, rest)
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
		at, id := r.uvarint(), r.uvarint()
		if at > nl && r.err == nil {
			r.err = fmt.Errorf("deletion %d placed at %d, after the last of %d lemmas", i, at, nl)
		}
		if id > math.MaxUint32 && r.err == nil {
			r.err = fmt.Errorf("deletion %d: ID %d beyond 32 bits", i, id)
		}
		p.Deletes[i] = Deletion{At: int(at), ID: uint32(id), Clause: clause()}
	}
	if nc > 0 {
		p.Chains = make([][]uint32, nc)
	}
	ids := make([]uint32, 0, ni)
	for i := range p.Chains {
		k := r.uvarint()
		if r.err == nil && k > uint64(cap(ids)-len(ids)) {
			r.err = fmt.Errorf("more chain IDs than the %d declared", ni)
		}
		start, prev := len(ids), int64(0)
		for range k {
			if r.err != nil {
				break
			}
			id := prev + r.varint()
			if (id < 0 || id > math.MaxUint32) && r.err == nil {
				r.err = fmt.Errorf("chain %d: ID %d out of range", i, id)
			}
			ids = append(ids, uint32(id))
			prev = id
		}
		if k > 0 {
			p.Chains[i] = ids[start:len(ids):len(ids)]
		}
	}
	switch {
	case r.err != nil:
	case len(slab) != cap(slab):
		r.err = fmt.Errorf("%d literals, %d declared", len(slab), nt)
	case len(ids) != cap(ids):
		r.err = fmt.Errorf("%d chain IDs, %d declared", len(ids), ni)
	case len(r.data) > 0:
		r.err = fmt.Errorf("%d bytes left over", len(r.data))
	}
	if r.err != nil {
		return nil, fmt.Errorf("sat: flat proof: %w", r.err)
	}
	return p, nil
}

// flatReader takes uvarints and varints off the front of data until the
// first that is not there; from then on it returns zeros and err says
// which.
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

func (r *flatReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.err = fmt.Errorf("no number in the last %d bytes", len(r.data))
		return 0
	}
	r.data = r.data[n:]
	return v
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
// by 0, behind "d" for a deletion, which names no ID (noID). The empty
// clause ("0" alone) parses as a zero-length lemma.
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
			p.Deletes = append(p.Deletes, Deletion{At: len(p.Lemmas), ID: noID, Clause: lemma})
		} else {
			p.Lemmas = append(p.Lemmas, lemma)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sat: drat: %w", err)
	}
	return p, nil
}
