package sat

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// pigeonholeProof solves PHP(holes) with proof recording and returns the
// formula and its checked refutation.
func pigeonholeProof(t *testing.T, holes int) (*cnf.Formula, *Proof) {
	t.Helper()
	f := pigeonhole(holes)
	s := NewFromFormula(f, Options{})
	s.EnableProof()
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
	back, err := ParseDRAT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Lemmas, back.Lemmas) {
		t.Fatalf("round trip changed the proof:\n%v\n%v", p.Lemmas, back.Lemmas)
	}
	if err := CheckRUP(f, nil, back); err != nil {
		t.Fatalf("re-parsed proof rejected: %v", err)
	}
}

// Deletions keep their places through the text format, the JSON the
// certificates travel in and a cut-and-join, and the digest tells any
// two of them apart that differ.
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
		fromText, err := ParseDRAT(&buf)
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
		prefix, tail := cutProof(p, len(p.Lemmas)/3)
		for name, back := range map[string]*Proof{"DRAT": fromText, "JSON": fromJSON, "cut and joined": JoinProofs(prefix, tail)} {
			if back.Digest() != p.Digest() {
				t.Fatalf("%s: %s changed the proof: %d lemmas and %d deletions became %d and %d",
					tc.name, name, len(p.Lemmas), len(p.Deletes), len(back.Lemmas), len(back.Deletes))
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
			if other.Digest() == p.Digest() {
				t.Fatalf("%s: same digest with %s", tc.name, name)
			}
		}
	}
	var none *Proof
	if none.Digest() != (&Proof{}).Digest() || none.Digest().Lemmas != 0 {
		t.Fatal("a nil proof does not hash as the empty one")
	}
}

func TestDRATParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"1 2 3\n",   // missing terminator
		"1 x 0\n",   // non-integer literal
		"1 0 2 0\n", // literals after the terminator
		"0 trail\n", // ditto, non-numeric
	} {
		if _, err := ParseDRAT(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseDRAT(%q) accepted", in)
		}
	}
}

func TestDRATParseSkipsCommentsAndDeletions(t *testing.T) {
	p, err := ParseDRAT(strings.NewReader("c header\nd 1 2 0\n-1 2 0\n\n0\n"))
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
