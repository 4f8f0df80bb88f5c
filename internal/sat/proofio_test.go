package sat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
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
func pigeonholeProof(t *testing.T, holes int) (*cnf.Formula, *Proof) {
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
	if !reflect.DeepEqual(p.Lemmas, back.Lemmas) {
		t.Fatalf("round trip changed the proof:\n%v\n%v", p.Lemmas, back.Lemmas)
	}
	// The text has no chains, and without them the lemmas do not check;
	// given the solver's chains back they do.
	if err := CheckRUP(f, nil, back); err == nil {
		t.Fatal("the proof checked without its chains")
	}
	back.Chains = p.Chains
	if err := CheckRUP(f, nil, back); err != nil {
		t.Fatalf("re-parsed proof rejected with its chains: %v", err)
	}
}

// Deletions keep their places through the text format, JSON, the flat
// form the certificates travel in and a cut-and-join — and the chains
// and the deletions' IDs theirs, through all but the text — and the flat
// form of their steps (stepsOf) tells any two of them apart that differ,
// other than by their IDs and chains.
func TestProofDeletionsRoundTrip(t *testing.T) {
	for _, tc := range deletingProofs(t) {
		f, p := tc.f, tc.p
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
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON := &Proof{}
		if err := json.Unmarshal(body, fromJSON); err != nil {
			t.Fatal(err)
		}
		fromFlat, err := ParseFlat(AppendFlat(nil, p))
		if err != nil {
			t.Fatal(err)
		}
		prefix, tail := cutProof(p, len(p.Lemmas)/3)
		if chained := slices.IndexFunc(p.Chains, func(c []uint32) bool { return len(c) > 0 }); chained < 0 {
			t.Fatalf("%s: no lemma of the proof has a chain", tc.name)
		}
		for name, back := range map[string]*Proof{"DRAT": fromText, "JSON": fromJSON, "flat": fromFlat, "cut and joined": JoinProofs(prefix, tail)} {
			if !bytes.Equal(stepsOf(back), stepsOf(p)) {
				t.Fatalf("%s: %s changed the proof: %d lemmas and %d deletions became %d and %d",
					tc.name, name, len(p.Lemmas), len(p.Deletes), len(back.Lemmas), len(back.Deletes))
			}
			if name == "DRAT" {
				continue // no chains, nor IDs: nothing a ProofChecker checks
			}
			if !bytes.Equal(AppendFlat(nil, back), AppendFlat(nil, p)) {
				t.Fatalf("%s: %s changed the chains or the deletions' IDs", tc.name, name)
			}
			if err := CheckRUP(f, nil, back); err != nil {
				t.Fatalf("%s: rejected after %s: %v", tc.name, name, err)
			}
		}
		moved := &Proof{Lemmas: p.Lemmas, Deletes: slices.Clone(p.Deletes)}
		moved.Deletes[0].At++
		flipped := &Proof{Lemmas: slices.Clone(p.Lemmas), Deletes: p.Deletes}
		flipped.Lemmas[0] = append(cnf.Clause{flipped.Lemmas[0][0].Not()}, flipped.Lemmas[0][1:]...)
		for name, other := range map[string]*Proof{
			"a deletion one lemma later": moved, "a literal flipped": flipped,
			"no deletions": {Lemmas: p.Lemmas}, "one lemma fewer": {Lemmas: p.Lemmas[:len(p.Lemmas)-1], Deletes: p.Deletes},
		} {
			if bytes.Equal(stepsOf(other), stepsOf(p)) {
				t.Fatalf("%s: the same steps with %s", tc.name, name)
			}
		}
	}
}

// stepsOf is the flat form of a proof's steps, its chains and the IDs
// of its deletions left out: two proofs whose lemmas and deletions are
// the same, literal for literal and place for place, have the same.
func stepsOf(p *Proof) []byte {
	q := &Proof{Lemmas: p.Lemmas}
	for _, d := range p.Deletes {
		q.Deletes = append(q.Deletes, Deletion{At: d.At, Clause: d.Clause})
	}
	return AppendFlat(nil, q)
}

// The flat form keeps what the structure cannot say out — a deletion
// placed before the first lemma or after the last means what it does at
// either end — and ParseFlat refuses what AppendFlat never writes: a
// number cut short, counts the bytes behind them cannot honour, a header
// that buys more memory than sixteen times its input, literals beyond 32
// bits, IDs out of range, a deletion after the last lemma, bytes left
// over. Refusing costs
// nothing: a refused input of a megabyte allocates no more than an
// accepted one may.
func TestFlatProofRejectsWhatItNeverWrites(t *testing.T) {
	odd := &Proof{
		Lemmas:  []cnf.Clause{{mk(1, false), mk(300, true)}, {}},
		Deletes: []Deletion{{At: -7, ID: noID, Clause: cnf.Clause{mk(2, false)}}, {At: 1 << 40, ID: 5}},
		Chains:  [][]uint32{{3, 0, 1 << 31, noID}, nil, {9}}, // one more than lemmas: not sent
	}
	back, err := ParseFlat(AppendFlat(nil, odd))
	if err != nil {
		t.Fatal(err)
	}
	want := &Proof{Lemmas: odd.Lemmas, Deletes: []Deletion{{At: 0, ID: noID, Clause: odd.Deletes[0].Clause}, {At: 2, ID: 5}}, Chains: odd.Chains[:2]}
	if !bytes.Equal(stepsOf(back), stepsOf(want)) || back.Deletes[0].ID != noID || back.Deletes[1].ID != 5 ||
		len(back.Chains) != 2 || !slices.Equal(back.Chains[0], odd.Chains[0]) || back.Chains[1] != nil {
		t.Fatalf("%+v came back as %+v", odd, back)
	}
	if empty, err := ParseFlat(AppendFlat(nil, nil)); err != nil || empty.NumLemmas() != 0 || empty.Deletes != nil || empty.Chains != nil {
		t.Fatalf("the nil proof came back as %+v, %v", empty, err)
	}
	for _, tc := range flatProofForgeries() {
		if p, err := ParseFlat(tc.data); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, p)
		}
	}
	// A megabyte that declares as many empty lemmas as it has bytes, as
	// many literals, then both within the budget but never delivered.
	var ms runtime.MemStats
	for _, header := range [][5]uint64{{1 << 20, 0, 0, 0, 0}, {0, 1 << 20, 0, 0, 0}, {0, 0, 0, 0, 1 << 20},
		{1 << 17, 1 << 18, 1 << 15, 1 << 16, 1 << 18}} {
		data := make([]byte, 0, 1<<20+16)
		for _, n := range header {
			data = binary.AppendUvarint(data, n)
		}
		data = data[:1<<20]
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := ParseFlat(data)
		runtime.ReadMemStats(&ms)
		if err == nil {
			t.Errorf("header %v over zeros: accepted", header)
		}
		if got := ms.TotalAlloc - before; got > 16*uint64(len(data))+4096 {
			t.Errorf("header %v: refusing %d bytes allocated %d", header, len(data), got)
		}
	}
}

// flatProofForgeries are flat forms no proof has, by name.
func flatProofForgeries() []struct {
	name string
	data []byte
} {
	honest := AppendFlat(nil, &Proof{
		Lemmas:  []cnf.Clause{{mk(1, false), mk(300, true)}, {mk(2, true)}},
		Deletes: []Deletion{{At: 1, ID: 3, Clause: cnf.Clause{mk(1, false), mk(2, false)}}},
		Chains:  [][]uint32{{3, 0, 1}, {7}},
	})
	flat := func(ns ...uint64) (out []byte) {
		for _, n := range ns {
			out = binary.AppendUvarint(out, n)
		}
		return out
	}
	return []struct {
		name string
		data []byte
	}{
		{"nothing at all", nil},
		{"a varint cut in half", honest[:bytes.IndexByte(honest, 0xd9)+1]}, // 300 positive is 601: d9 04
		{"cut after the lemmas", honest[:11]},
		{"a byte left over", append(slices.Clone(honest), 0)},
		{"more lemmas than bytes", flat(1000, 0, 0, 0, 0, 0)},
		{"more literals than bytes", flat(1, 1000, 0, 0, 0, 1, 2)},
		{"more chains than lemmas", flat(1, 1, 0, 2, 0, 1, 2, 0, 0)},
		{"a lemma longer than the literals declared", flat(1, 1, 0, 0, 0, 2, 2, 4)},
		{"fewer literals than declared", flat(1, 2, 0, 0, 0, 1, 2, 0)},
		{"a literal beyond 32 bits", flat(1, 1, 0, 0, 0, 1, 1<<32)},
		{"a deletion after the last lemma", flat(1, 1, 1, 0, 0, 1, 2, 2, 0, 0)},
		{"a deletion's ID beyond 32 bits", flat(1, 1, 1, 0, 0, 1, 2, 1, 1<<32, 0)},
		{"a chain longer than the IDs declared", flat(1, 1, 0, 1, 1, 1, 2, 2, 0, 0)},
		{"fewer chain IDs than declared", flat(1, 1, 0, 1, 2, 1, 2, 1, 0, 0)},
		{"a chain ID below 0", flat(1, 1, 0, 1, 1, 1, 2, 1, 1)}, // the zigzag of -1
		{"a chain ID beyond 32 bits", flat(1, 1, 0, 1, 1, 1, 2, 1, 1<<33)},
		{"empty lemmas past the memory budget", append(flat(100, 0, 0, 0, 0), make([]byte, 100)...)},
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
	var p *Proof
	if p.NumLemmas() != 0 || p.NumLits() != 0 {
		t.Fatal("nil proof has non-zero size")
	}
}

// parseDRAT reads a DRAT-style text proof, as WriteDRAT writes it: comment lines ("c ...") are
// skipped, every other line must be signed DIMACS literals terminated
// by 0, behind "d" for a deletion, which names no ID (noID). The empty
// clause ("0" alone) parses as a zero-length lemma.
func parseDRAT(r io.Reader) (*Proof, error) {
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
