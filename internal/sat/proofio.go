package sat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/cnf"
)

// This file reads and writes a proof's flat form (Proof, FlatLog, Steps)
// and writes it as DRAT-style text (WriteDRAT): one lemma per line as
// signed DIMACS literals terminated by 0, and a deletion as the same
// behind "d", where the solver logged it — the format external proof
// checkers and humans read. The text has no place for clause IDs, so
// neither for chains nor for the IDs of deletions, and ProofChecker
// cannot check it.

// Steps checks the form of p (see scanFlat for what it refuses) and then
// hands visit its steps in order: each deletion before the first lemma
// it precedes, as the solver logged it, and each lemma with its chain.
// ids is a lemma's chain, a deletion's ID alone; clause and ids are valid
// for the length of the call. An error from visit ends the walk and is
// returned.
func (p Proof) Steps(visit func(deleted bool, clause, ids []uint32) error) error {
	v, err := scanFlat(p)
	if err != nil {
		return err
	}
	lemmas, dels, chains := flatReader{data: v.lemmas}, flatReader{data: v.dels}, flatReader{data: v.chains}
	var clause, ids []uint32
	left, at := v.nd, uint64(0) // deletions to hand out, and the At of the next
	if left > 0 {
		at = dels.uvarint()
	}
	for i := uint64(0); ; i++ {
		for ; left > 0 && at <= i; left-- {
			ids = append(ids[:0], uint32(dels.uvarint()))
			clause = dels.clause(clause[:0])
			if err := visit(true, clause, ids); err != nil {
				return err
			}
			if left > 1 {
				at = dels.uvarint()
			}
		}
		if i == uint64(v.nl) {
			return nil
		}
		clause, ids = lemmas.clause(clause[:0]), chains.chain(ids[:0])
		if err := visit(false, clause, ids); err != nil {
			return err
		}
	}
}

// NumLemmas returns the number of lemmas in the proof, 0 for one Steps
// refuses. It checks the form and reads the count off the header.
func (p Proof) NumLemmas() int {
	v, _ := scanFlat(p)
	return v.nl
}

// NumLits returns the number of literals across the proof's lemmas, 0
// for one Steps refuses.
func (p Proof) NumLits() int {
	_, n := p.size()
	return n
}

func (p Proof) size() (lemmas, lits int) {
	p.Steps(func(deleted bool, clause, _ []uint32) error {
		if !deleted {
			lemmas++
			lits += len(clause)
		}
		return nil
	})
	return lemmas, lits
}

func appendFlatClause(dst []byte, c []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	for _, l := range c {
		dst = binary.AppendUvarint(dst, uint64(l))
	}
	return dst
}

func appendFlatChain(dst []byte, chain []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(chain)))
	prev := int64(0)
	for _, id := range chain {
		dst = binary.AppendVarint(dst, int64(id)-prev)
		prev = int64(id)
	}
	return dst
}

// FlatLog is a proof log kept in its flat form as it is written, a
// logging solver's (Solver.ProofLog): each literal and ID a byte or two,
// and no slice per lemma. Every number is a uvarint, every literal in
// cnf.Lit's encoding:
//
//	L T D L I    lemmas; literals in lemmas and deletions together;
//	             deletions; chains, one per lemma; IDs in the chains
//	L times      n, then the lemma's n literals
//	D times      At, the number of lemmas logged before it, ID, n, then
//	             the deleted clause's n literals
//	L times      k, then the chain's k IDs, each as the zigzag of its
//	             difference from the one before it, the first's from 0
//
// The form puts every lemma before the first deletion and the chains
// behind both, so the log writes the three apart and AppendTo joins them
// behind the header. A proof has this one form: what Steps accepts,
// logged again step by step, is the same bytes.
type FlatLog struct {
	lemmas, deletes, chains []byte
	nl, nt, nd, ni          int
}

// Step logs a step as Solver.StreamProof hands it out: a lemma and its
// chain, or with deleted set a clause dropped and its ID alone.
func (f *FlatLog) Step(deleted bool, clause, ids []uint32) {
	f.nt += len(clause)
	if deleted {
		f.deletes = binary.AppendUvarint(f.deletes, uint64(f.nl))
		f.deletes = binary.AppendUvarint(f.deletes, uint64(ids[0]))
		f.deletes = appendFlatClause(f.deletes, clause)
		f.nd++
		return
	}
	f.lemmas = appendFlatClause(f.lemmas, clause)
	f.chains = appendFlatChain(f.chains, ids)
	f.nl++
	f.ni += len(ids)
}

// AppendTo appends the log's flat form to dst.
func (f *FlatLog) AppendTo(dst []byte) []byte {
	for _, n := range [5]int{f.nl, f.nt, f.nd, f.nl, f.ni} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = append(dst, f.lemmas...)
	dst = append(dst, f.deletes...)
	return append(dst, f.chains...)
}

// flatView is a flat proof whose form scanFlat has checked: its counts
// and its three sections, which Steps takes apart with no check of its
// own.
type flatView struct {
	nl, nd               int
	lemmas, dels, chains []byte
}

// scanFlat checks the flat form of a proof, which may be anyone's,
// without taking it apart. It refuses what FlatLog never writes: a number
// cut short or written in more bytes than it takes, a count the bytes
// behind it cannot honour, chains that are not one per lemma, a literal
// or an ID beyond 32 bits, a deletion placed after the last lemma or
// before the one ahead of it, a byte left over. Every count is held to
// the bytes behind the header up front, so a header that promises more
// than they can hold is refused before a byte of it is read. No reader
// sizes its memory by the counts: what Steps and the checker hold grows
// with what they have read.
func scanFlat(data []byte) (flatView, error) {
	r := flatReader{data: data}
	nl, nt, nd, nc, ni := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
	// A lemma, a literal, a chain and an ID each take a byte or more of
	// what follows, a deletion three: FlatLog writes nothing this refuses.
	rest := uint64(len(r.data))
	switch {
	case r.err != nil:
	case max(nl, nt, nd, nc, ni) > rest || nl+nt+3*nd+nc+ni > rest:
		r.err = fmt.Errorf("counts %d %d %d %d %d ahead of %d bytes", nl, nt, nd, nc, ni, rest)
	case nc != nl:
		r.err = fmt.Errorf("%d chains for %d lemmas", nc, nl)
	}
	v := flatView{nl: int(nl), nd: int(nd)}
	lits, section := uint64(0), r.data
	clause := func() {
		n := r.uvarint()
		if r.err == nil && n > nt-lits {
			r.err = fmt.Errorf("more literals than the %d declared", nt)
		}
		for range n {
			if l := r.uvarint(); l > math.MaxUint32 && r.err == nil {
				r.err = fmt.Errorf("literal %d beyond 32 bits", l)
			}
			if r.err != nil {
				return
			}
		}
		lits += n
	}
	for i := uint64(0); i < nl && r.err == nil; i++ {
		clause()
	}
	v.lemmas, section = section[:len(section)-len(r.data)], r.data
	last := uint64(0)
	for i := uint64(0); i < nd && r.err == nil; i++ {
		at, id := r.uvarint(), r.uvarint()
		switch {
		case r.err != nil:
		case at > nl:
			r.err = fmt.Errorf("deletion %d placed at %d, after the last of %d lemmas", i, at, nl)
		case at < last:
			r.err = fmt.Errorf("deletion %d placed at %d, before the one ahead of it at %d", i, at, last)
		case id > math.MaxUint32:
			r.err = fmt.Errorf("deletion %d: ID %d beyond 32 bits", i, id)
		}
		last = at
		clause()
	}
	v.dels, section = section[:len(section)-len(r.data)], r.data
	ids := uint64(0)
	for i := uint64(0); i < nc && r.err == nil; i++ {
		k := r.uvarint()
		if r.err == nil && k > ni-ids {
			r.err = fmt.Errorf("more chain IDs than the %d declared", ni)
		}
		prev := int64(0)
		for j := uint64(0); j < k && r.err == nil; j++ {
			id := prev + r.varint()
			if (id < 0 || id > math.MaxUint32) && r.err == nil {
				r.err = fmt.Errorf("chain %d: ID %d out of range", i, id)
			}
			prev = id
		}
		ids += k
	}
	v.chains = section[:len(section)-len(r.data)]
	switch {
	case r.err != nil:
	case lits != nt:
		r.err = fmt.Errorf("%d literals, %d declared", lits, nt)
	case ids != ni:
		r.err = fmt.Errorf("%d chain IDs, %d declared", ids, ni)
	case len(r.data) > 0:
		r.err = fmt.Errorf("%d bytes left over", len(r.data))
	}
	if r.err != nil {
		return flatView{}, fmt.Errorf("sat: flat proof: %w", r.err)
	}
	return v, nil
}

// clause appends the next clause of a checked lemma or deletion section
// to lits.
func (r *flatReader) clause(lits []uint32) []uint32 {
	for range r.uvarint() {
		lits = append(lits, uint32(r.uvarint()))
	}
	return lits
}

// chain appends the next chain of a checked chain section to ids.
func (r *flatReader) chain(ids []uint32) []uint32 {
	prev := int64(0)
	for range r.uvarint() {
		prev += r.varint()
		ids = append(ids, uint32(prev))
	}
	return ids
}

// flatReader takes uvarints and varints off the front of data until the
// first that is not there, or is written in more bytes than it takes;
// from then on it returns zeros and err says which.
type flatReader struct {
	data []byte
	err  error
}

func (r *flatReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	switch {
	case n <= 0:
		r.err = fmt.Errorf("no number in the last %d bytes", len(r.data))
		return 0
	case n > 1 && r.data[n-1] == 0:
		r.err = fmt.Errorf("a number written long, in %d bytes", n)
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *flatReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1) // the zigzag binary.AppendVarint writes
}

// WriteDRAT writes the proof as DRAT-style text: one lemma per line of
// space-separated signed DIMACS literals, each terminated by " 0", and
// "d " before those of a deleted clause. A header comment records the
// lemma count so a truncated file is detectable by eye. A proof Steps
// refuses is an error, and nothing is written.
func WriteDRAT(w io.Writer, p Proof) error {
	lemmas, lits := p.size()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c RUP proof, %d lemmas, %d literals\n", lemmas, lits)
	err := p.Steps(func(deleted bool, clause, _ []uint32) error {
		if deleted {
			bw.WriteString("d ")
		}
		for _, l := range clause {
			fmt.Fprintf(bw, "%d ", cnf.Lit(l).Dimacs())
		}
		_, err := bw.WriteString("0\n")
		return err
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
