package sat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// pigeonholeProof solves PHP(holes) with proof recording and returns the
// formula and its checked refutation.
func pigeonholeProof(t *testing.T, holes int) (*cnf.Formula, Proof) {
	t.Helper()
	f := pigeonhole(holes)
	s := newLogging(f, Options{})
	st, err := s.Solve()
	if err != nil || st != Unsat {
		t.Fatalf("PHP(%d): %v, %v", holes, st, err)
	}
	return f, s.ProofLog()
}

func TestDRATRoundTrip(t *testing.T) {
	f, p := pigeonholeProof(t, 3)
	if p.NumLemmas() == 0 || p.NumLits() == 0 {
		t.Fatalf("trivial proof: %d lemmas, %d lits", p.NumLemmas(), p.NumLits())
	}
	var buf bytes.Buffer
	if err := WriteDRAT(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := parseDRAT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := draftOf(p)
	if !reflect.DeepEqual(d.Lemmas, back.Lemmas) {
		t.Fatalf("round trip changed the proof:\n%v\n%v", d.Lemmas, back.Lemmas)
	}
	// The text has no chains, and without them the lemmas do not check;
	// given the solver's chains back they do.
	if err := CheckRUP(f, nil, back.flat()); err == nil {
		t.Fatal("the proof checked without its chains")
	}
	back.Chains = d.Chains
	if err := CheckRUP(f, nil, back.flat()); err != nil {
		t.Fatalf("re-parsed proof rejected with its chains: %v", err)
	}
}

// Deletions keep their places through the text format and a cut and a
// join — and the chains and the deletions' IDs theirs through the join,
// whose bytes are the two halves appended — and the flat form of their
// steps (stepsOf) tells any two of them apart that differ, other than by
// their IDs and chains.
func TestProofDeletionsRoundTrip(t *testing.T) {
	for _, tc := range deletingProofs(t) {
		f, p, d := tc.f, tc.p, draftOf(tc.p)
		var buf bytes.Buffer
		if err := WriteDRAT(&buf, p); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "\nd ") {
			t.Fatalf("%s: no deletion line in the DRAT text", tc.name)
		}
		fromText, err := parseDRAT(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stepsOf(fromText), stepsOf(d)) {
			t.Fatalf("%s: the DRAT text changed the proof: %d lemmas and %d deletions became %d and %d",
				tc.name, len(d.Lemmas), len(d.Deletes), len(fromText.Lemmas), len(fromText.Deletes))
		}
		if chained := slices.IndexFunc(d.Chains, func(c []uint32) bool { return len(c) > 0 }); chained < 0 {
			t.Fatalf("%s: no lemma of the proof has a chain", tc.name)
		}
		prefix, tail := cutProof(d, len(d.Lemmas)/3)
		joined := append(prefix.flat(), tail.flat()...)
		if !bytes.Equal(joined, p) {
			t.Fatalf("%s: cut and joined, %d bytes became %d", tc.name, len(p), len(joined))
		}
		if err := CheckRUP(f, nil, joined); err != nil {
			t.Fatalf("%s: rejected after a cut and a join: %v", tc.name, err)
		}
		moved := &draft{Lemmas: d.Lemmas, Deletes: slices.Clone(d.Deletes)}
		moved.Deletes[0].At++
		flipped := &draft{Lemmas: slices.Clone(d.Lemmas), Deletes: d.Deletes}
		flipped.Lemmas[0] = append(cnf.Clause{flipped.Lemmas[0][0].Not()}, flipped.Lemmas[0][1:]...)
		for name, other := range map[string]*draft{
			"a deletion one lemma later": moved, "a literal flipped": flipped,
			"no deletions": {Lemmas: d.Lemmas}, "one lemma fewer": {Lemmas: d.Lemmas[:len(d.Lemmas)-1], Deletes: d.Deletes},
		} {
			if bytes.Equal(stepsOf(other), stepsOf(d)) {
				t.Fatalf("%s: the same steps with %s", tc.name, name)
			}
		}
	}
}

// stepsOf is the flat form of a proof's steps, its chains and the IDs
// of its deletions left out: two proofs whose lemmas and deletions are
// the same, literal for literal and place for place, have the same.
func stepsOf(p *draft) []byte {
	q := &draft{Lemmas: p.Lemmas}
	for _, d := range p.Deletes {
		q.Deletes = append(q.Deletes, deletion{At: d.At, Clause: d.Clause})
	}
	return q.flat()
}

// relog logs p again, step by step (FlatLog.Step), nil for a proof Steps
// refuses and the empty proof, not nil, for one of no step.
func relog(p Proof) Proof {
	log := FlatLog{}
	if p.Steps(func(deleted bool, clause, ids []uint32) error {
		log.Step(deleted, clause, ids)
		return nil
	}) != nil {
		return nil
	}
	return Proof(log)
}

// A proof has one form: what Steps accepts, logged again step by step,
// is the bytes it was handed — an empty lemma, an empty chain, chain IDs
// no clause has, deletions ahead of the first lemma and behind the last,
// a run of empty lemmas without chains, the solver's own logs, the empty
// proof as nil and as zero bytes — and two such proofs appended are a
// proof of the steps of both. Steps refuses what a log never holds (see
// flatProofForgeries). Refusing costs nothing: a count of a megabyte
// ahead of a few bytes, or one more than the megabyte behind it, is
// refused before a byte of it is read, and one the megabyte behind it
// honours but that is cut short allocates no more than the bytes it
// read.
func TestFlatProofRejectsWhatItNeverWrites(t *testing.T) {
	odd := &draft{
		Lemmas:  []cnf.Clause{{mk(1, false), mk(300, true)}, {}},
		Deletes: []deletion{{At: 0, ID: noID, Clause: cnf.Clause{mk(2, false)}}, {At: 2, ID: 5}},
		Chains:  [][]uint32{{3, 0, 1 << 31, noID}, nil},
	}
	empties := (&draft{Lemmas: make([]cnf.Clause, 100)}).flat()
	proofs := map[string]Proof{"odd": odd.flat(), "nil": nil, "zero bytes": Proof{}, "empty lemmas": empties}
	for _, tc := range deletingProofs(t) {
		proofs[tc.name] = tc.p
	}
	for name, p := range proofs {
		if back := relog(p); back == nil || !bytes.Equal(back, p) {
			t.Errorf("%s: %d bytes logged again as %d", name, len(p), len(back))
		}
	}
	if twice := relog(append(slices.Clip(empties), empties...)); !bytes.Equal(twice, (&draft{Lemmas: make([]cnf.Clause, 200)}).flat()) {
		t.Errorf("empty lemmas joined to themselves: %d bytes", len(twice))
	}
	back := draftOf(proofs["odd"])
	if !bytes.Equal(stepsOf(back), stepsOf(odd)) || back.Deletes[0].ID != noID || back.Deletes[1].ID != 5 ||
		len(back.Chains) != 2 || !slices.Equal(back.Chains[0], odd.Chains[0]) || len(back.Chains[1]) != 0 {
		t.Fatalf("%+v came back as %+v", odd, back)
	}
	steps := func(data []byte) error {
		return Proof(data).Steps(func(bool, []uint32, []uint32) error { return nil })
	}
	for _, tc := range flatProofForgeries() {
		if err := steps(tc.data); err == nil || Proof(tc.data).NumLemmas() != 0 || Proof(tc.data).NumLits() != 0 {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A megabyte-sized count of a lemma's literals, of a deletion's and
	// of a chain's IDs, ahead of a few bytes, ahead of one byte fewer
	// than it counts, and honoured by the bytes behind it but for the
	// last number, cut in half.
	var ms runtime.MemStats
	const mb = 1 << 20
	for _, head := range [][]byte{flatNumbers(mb << 1), flatNumbers(mb<<1 | 1), flatNumbers(0, mb)} {
		for _, behind := range [][]byte{make([]byte, 16), make([]byte, mb-1), append(make([]byte, mb-1), 0x80)} {
			data := append(slices.Clip(head), behind...)
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			err := steps(data)
			runtime.ReadMemStats(&ms)
			if err == nil {
				t.Errorf("%x ahead of %d bytes: accepted", head, len(behind))
			}
			if got := ms.TotalAlloc - before; got > 16*uint64(len(data))+4096 {
				t.Errorf("%x ahead of %d bytes: refusing %d bytes allocated %d", head, len(behind), len(data), got)
			}
		}
	}
}

// flatNumbers is ns, each as a uvarint.
func flatNumbers(ns ...uint64) (out []byte) {
	for _, n := range ns {
		out = binary.AppendUvarint(out, n)
	}
	return out
}

// flatProofForgeries are byte strings no proof is, by name.
func flatProofForgeries() []struct {
	name string
	data []byte
} {
	honest := (&draft{
		Lemmas:  []cnf.Clause{{mk(1, false), mk(300, true)}, {mk(2, true)}},
		Deletes: []deletion{{At: 1, ID: 3, Clause: cnf.Clause{mk(1, false), mk(2, false)}}},
		Chains:  [][]uint32{{3, 0, 1}, {7}},
	}).flat()
	flat := flatNumbers
	return []struct {
		name string
		data []byte
	}{
		{"a varint cut in half", honest[:bytes.IndexByte(honest, 0xd9)+1]}, // 300 positive is 601: d9 04
		{"a step cut after its literals", honest[:bytes.IndexByte(honest, 0xd9)+2]},
		{"a step cut after its head", append(slices.Clone(honest), 0)},
		{"a deletion without its ID", flat(3, 4)},
		{"a number written long", append([]byte{0x84, 0}, honest[1:]...)}, // the first head, 4
		{"a literal beyond 32 bits", flat(2, 1<<32, 0)},
		{"a deletion's ID beyond 32 bits", flat(3, 4, 1<<32)},
		{"more literals than bytes", flat(2000, 4, 0)},
		{"a deletion of more literals than bytes", flat(2001, 4, 0)},
		{"a chain longer than its bytes", flat(2, 4, 1000, 2)},
		{"a chain ID below 0", flat(2, 4, 1, 1)},                // the zigzag of -1
		{"a chain that comes back below 0", flat(0, 2, 10, 21)}, // 5, then 5 - 11
		{"a chain ID beyond 32 bits", flat(2, 4, 1, 1<<33)},
	}
}

func TestDRATParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"1 2 3\n",   // missing terminator
		"1 x 0\n",   // non-integer literal
		"1 0 2 0\n", // literals after the terminator
		"0 trail\n", // ditto, non-numeric
	} {
		if _, err := parseDRAT(strings.NewReader(in)); err == nil {
			t.Fatalf("parseDRAT(%q) accepted", in)
		}
	}
}

func TestDRATParseSkipsCommentsAndDeletions(t *testing.T) {
	p, err := parseDRAT(strings.NewReader("c header\nd 1 2 0\n-1 2 0\n\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []cnf.Clause{{cnf.NegLit(1), cnf.PosLit(2)}, nil}
	if len(p.Lemmas) != 2 || !reflect.DeepEqual(p.Lemmas[0], want[0]) || len(p.Lemmas[1]) != 0 {
		t.Fatalf("lemmas %v, want %v", p.Lemmas, want)
	}
	// The deletion is not a lemma: it is kept as what it is, ahead of
	// the first one.
	if len(p.Deletes) != 1 || p.Deletes[0].At != 0 || !reflect.DeepEqual(p.Deletes[0].Clause, cnf.Clause{cnf.PosLit(1), cnf.PosLit(2)}) {
		t.Fatalf("deletions %v, want 1 2 before the first lemma", p.Deletes)
	}
}

func TestProofSizeNilSafe(t *testing.T) {
	var p Proof
	if p.NumLemmas() != 0 || p.NumLits() != 0 {
		t.Fatal("nil proof has non-zero size")
	}
}

// parseDRAT reads a DRAT-style text proof, as WriteDRAT writes it: comment lines ("c ...") are
// skipped, every other line must be signed DIMACS literals terminated
// by 0, behind "d" for a deletion, which names no ID (noID). The empty
// clause ("0" alone) parses as a zero-length lemma.
func parseDRAT(r io.Reader) (*draft, error) {
	p := &draft{}
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
			p.Deletes = append(p.Deletes, deletion{At: len(p.Lemmas), ID: noID, Clause: lemma})
		} else {
			p.Lemmas = append(p.Lemmas, lemma)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sat: drat: %w", err)
	}
	return p, nil
}
