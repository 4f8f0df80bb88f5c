package sat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/cnf"
)

// This file reads and writes a proof's bytes (Proof, FlatLog, Steps)
// and writes it as DRAT-style text (WriteDRAT): one lemma per line as
// signed DIMACS literals terminated by 0, and a deletion as the same
// behind "d", where the solver logged it — the format external proof
// checkers and humans read. The text has no place for clause IDs, so
// neither for chains nor for the IDs of deletions, and ProofChecker
// cannot check it.

// Steps hands visit the proof's steps in log order, each as it is read:
// a lemma with its chain, or with deleted set a clause dropped and its ID
// alone; clause and ids are valid for the length of the call. The bytes
// may be anyone's, and each step is checked before it is handed out:
// Steps refuses, as an error, a number cut short (a step cut mid-way
// among them) or written in more bytes than it takes, a literal or a
// deletion's ID beyond 32 bits, a chain ID below 0 or beyond 32 bits,
// and a literal count or a chain length larger than the bytes behind it
// — the last before a byte of it is read, so its two buffers never hold
// more numbers than the proof has bytes. The steps before a refused one
// have been visited. An error from visit ends the walk and is returned.
func (p Proof) Steps(visit func(deleted bool, clause, ids []uint32) error) error {
	r := flatReader{data: p}
	var clause, ids []uint32
	for len(r.data) > 0 {
		head := r.uvarint()
		deleted := head&1 != 0
		clause = r.words(clause[:0], r.count(head>>1, "literals"))
		if deleted {
			ids = r.words(ids[:0], 1)
		} else {
			ids = r.chain(ids[:0])
		}
		if r.err != nil {
			return fmt.Errorf("sat: proof: %w", r.err)
		}
		if err := visit(deleted, clause, ids); err != nil {
			return err
		}
	}
	return nil
}

// NumLemmas returns the number of lemmas in the proof, 0 for one Steps
// refuses.
func (p Proof) NumLemmas() int {
	n, _, _ := p.size()
	return n
}

// NumLits returns the number of literals across the proof's lemmas, 0
// for one Steps refuses.
func (p Proof) NumLits() int {
	_, n, _ := p.size()
	return n
}

func (p Proof) size() (lemmas, lits int, err error) {
	err = p.Steps(func(deleted bool, clause, _ []uint32) error {
		if !deleted {
			lemmas++
			lits += len(clause)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return lemmas, lits, nil
}

// FlatLog is a proof log kept as the bytes of its Proof as it is
// written, a logging solver's (Solver.ProofLog): each literal and ID a
// byte or two, and no slice per step. A proof is its steps in log order,
// with no header and nothing between them; every number is a uvarint,
// every literal in cnf.Lit's encoding. A step is
//
//	n<<1 | deleted   its clause's length, and whether it is a deletion
//	n times          the clause's literals
//	a deletion:      the deleted clause's ID
//	a lemma:         k, then its chain's k IDs, each as the zigzag of its
//	                 difference from the one before it, the first's from 0
//
// IDs are absolute (see Proof), so a clone's tail behind its template's
// prefix is the two appended. A proof has this one form: what Steps
// accepts, logged again step by step, is the same bytes.
type FlatLog []byte

// Step logs a step as Steps hands it out: a lemma and its chain, or
// with deleted set a clause dropped and its ID alone.
func (f *FlatLog) Step(deleted bool, clause, ids []uint32) {
	head := uint64(len(clause)) << 1
	if deleted {
		head |= 1
	}
	b := binary.AppendUvarint(*f, head)
	for _, l := range clause {
		b = binary.AppendUvarint(b, uint64(l))
	}
	if deleted {
		*f = binary.AppendUvarint(b, uint64(ids[0]))
		return
	}
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id)-prev)
		prev = int64(id)
	}
	*f = b
}

// flatReader takes uvarints off the front of data until the first that
// is not there, is written in more bytes than it takes, or is out of
// range; from then on it returns zeros and err says which.
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

// count is n, the number of what a step holds next, each a byte or more
// of the bytes behind it: 0 and an error if they cannot hold n.
func (r *flatReader) count(n uint64, what string) uint64 {
	if r.err == nil && n > uint64(len(r.data)) {
		r.err = fmt.Errorf("%d %s ahead of %d bytes", n, what, len(r.data))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// words appends the next n numbers, literals or a deletion's ID, to dst,
// grown to hold them up front: n is a count the bytes behind it can hold.
func (r *flatReader) words(dst []uint32, n uint64) []uint32 {
	dst = slices.Grow(dst, int(n))
	for range n {
		w := r.uvarint()
		if w > math.MaxUint32 && r.err == nil {
			r.err = fmt.Errorf("%d beyond 32 bits", w)
		}
		if r.err != nil {
			return dst
		}
		dst = append(dst, uint32(w))
	}
	return dst
}

// chain appends the next chain, its length and then its IDs, to ids.
func (r *flatReader) chain(ids []uint32) []uint32 {
	k := r.count(r.uvarint(), "chain IDs")
	ids = slices.Grow(ids, int(k))
	prev := int64(0)
	for range k {
		u := r.uvarint()
		prev += int64(u>>1) ^ -int64(u&1) // the zigzag binary.AppendVarint writes
		if (prev < 0 || prev > math.MaxUint32) && r.err == nil {
			r.err = fmt.Errorf("chain ID %d out of range", prev)
		}
		if r.err != nil {
			return ids
		}
		ids = append(ids, uint32(prev))
	}
	return ids
}

// WriteDRAT writes the proof as DRAT-style text: one lemma per line of
// space-separated signed DIMACS literals, each terminated by " 0", and
// "d " before those of a deleted clause. A header comment records the
// lemma count so a truncated file is detectable by eye. A proof Steps
// refuses is an error, and nothing is written.
func WriteDRAT(w io.Writer, p Proof) error {
	lemmas, lits, err := p.size()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c RUP proof, %d lemmas, %d literals\n", lemmas, lits)
	err = p.Steps(func(deleted bool, clause, _ []uint32) error {
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
