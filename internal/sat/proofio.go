package sat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/cnf"
)

// This file serialises refutation proofs. Two formats are supported:
//
//   - DRAT-style text (WriteDRAT): one lemma per line as signed DIMACS
//     literals terminated by 0, and a deletion as the same behind "d",
//     where the solver logged it: the format external proof checkers and
//     humans read. It has no place for clause IDs, so neither for chains
//     nor for the IDs of deletions, and ProofChecker cannot check it.
//   - The flat form (AppendFlat / ParseFlat) a logging solver keeps
//     (FlatLog) and the distributed certificate layer ships: the whole
//     proof, IDs and chains included, as one string of uvarints, which a
//     checker reads a step at a time (ProofChecker.CheckFlat).
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
// before the first lemma it precedes, the rest after the last. ids is a
// lemma's chain, a deletion's ID alone.
func (p *Proof) steps(visit func(deleted bool, c cnf.Clause, ids []uint32) error) error {
	var id [1]uint32
	dels := p.Deletes
	deletion := func() error {
		d := dels[0]
		dels, id[0] = dels[1:], d.ID
		return visit(true, d.Clause, id[:])
	}
	for i, lemma := range p.Lemmas {
		for len(dels) > 0 && dels[0].At <= i {
			if err := deletion(); err != nil {
				return err
			}
		}
		if err := visit(false, lemma, p.chain(i)); err != nil {
			return err
		}
	}
	for len(dels) > 0 {
		if err := deletion(); err != nil {
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
// effect. A logging solver writes the same bytes as it goes (FlatLog).
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
	for _, c := range p.Lemmas {
		dst = appendFlatClause(dst, c)
	}
	for _, d := range p.Deletes {
		dst = binary.AppendUvarint(dst, uint64(min(max(d.At, 0), len(p.Lemmas))))
		dst = binary.AppendUvarint(dst, uint64(d.ID))
		dst = appendFlatClause(dst, d.Clause)
	}
	for _, c := range chains {
		dst = appendFlatChain(dst, c)
	}
	return dst
}

func appendFlatClause[L cnf.Lit | lit](dst []byte, c []L) []byte {
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

// FlatLog is a proof log kept in its flat form as it is written: a
// logging solver's (Solver.FlatProof), whose log is checked and shipped
// as bytes and never held as a Proof — each literal and ID a byte or two
// instead of the four or eight of a Proof, and no slice per lemma. The
// flat form puts every lemma before the first deletion and the chains
// behind both, so the log writes the three apart and AppendTo joins them
// behind the header: AppendTo(dst) is AppendFlat(dst, p) for the Proof p
// of the same steps, every lemma with its chain.
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
// and its three sections, which the readers below take apart with no
// check of their own.
type flatView struct {
	nl, nt, nd, nc, ni   int
	lemmas, dels, chains []byte
}

// scanFlat checks the flat form of a proof, which may be anyone's,
// without taking it apart: a count the bytes behind it cannot honour, a
// literal or an ID beyond 32 bits, a deletion placed after the last lemma
// or a byte left over is an error, and so is a header that asks for more
// than sixteen bytes of memory per byte of data as a Proof (ParseFlat) —
// a slice header for each of a proof's worth of empty clauses is the one
// way to.
func scanFlat(data []byte) (flatView, error) {
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
	v := flatView{nl: int(nl), nt: int(nt), nd: int(nd), nc: int(nc), ni: int(ni)}
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
	for i := uint64(0); i < nd && r.err == nil; i++ {
		at, id := r.uvarint(), r.uvarint()
		if at > nl && r.err == nil {
			r.err = fmt.Errorf("deletion %d placed at %d, after the last of %d lemmas", i, at, nl)
		}
		if id > math.MaxUint32 && r.err == nil {
			r.err = fmt.Errorf("deletion %d: ID %d beyond 32 bits", i, id)
		}
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

// ParseFlat reads a proof from its flat form, which may be anyone's (see
// scanFlat for what it refuses). What the header asks for is allocated
// once: clauses carved from one slab, chains from another.
func ParseFlat(data []byte) (*Proof, error) {
	v, err := scanFlat(data)
	if err != nil {
		return nil, err
	}
	p := &Proof{}
	slab := make([]cnf.Lit, 0, v.nt)
	clause := func(r *flatReader) cnf.Clause {
		start := len(slab)
		if slab = r.clause(slab); len(slab) == start {
			return nil // the empty clause
		}
		return slab[start:len(slab):len(slab)]
	}
	lemmas, dels, chains := flatReader{data: v.lemmas}, flatReader{data: v.dels}, flatReader{data: v.chains}
	if v.nl > 0 {
		p.Lemmas = make([]cnf.Clause, v.nl)
	}
	for i := range p.Lemmas {
		p.Lemmas[i] = clause(&lemmas)
	}
	if v.nd > 0 {
		p.Deletes = make([]Deletion, v.nd)
	}
	for i := range p.Deletes {
		at, id := dels.uvarint(), dels.uvarint()
		p.Deletes[i] = Deletion{At: int(at), ID: uint32(id), Clause: clause(&dels)}
	}
	if v.nc > 0 {
		p.Chains = make([][]uint32, v.nc)
	}
	ids := make([]uint32, 0, v.ni)
	for i := range p.Chains {
		start := len(ids)
		ids = chains.chain(ids)
		if len(ids) > start {
			p.Chains[i] = ids[start:len(ids):len(ids)]
		}
	}
	return p, nil
}

// clause appends the next clause of a checked lemma or deletion section
// to lits.
func (r *flatReader) clause(lits cnf.Clause) cnf.Clause {
	for range r.uvarint() {
		lits = append(lits, cnf.Lit(r.uvarint()))
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
		err := p.steps(func(deleted bool, c cnf.Clause, _ []uint32) error {
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
