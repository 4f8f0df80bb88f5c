package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// fuzzFrame formats a payload exactly as conn.send does (minus the
// trailing newline, which the reader strips before verifyFrame).
func fuzzFrame(payload []byte) []byte {
	line := fmt.Appendf(nil, "%08x ", crc32.Checksum(payload, wireTable))
	return append(line, payload...)
}

// FuzzVerifyFrame throws arbitrary bytes at the CRC-framed decoder. The
// invariants: no panic, and acceptance implies the checksum genuinely
// matched the returned payload.
func FuzzVerifyFrame(f *testing.F) {
	// Seeds mirror the table in proto_crc_test.go.
	f.Add(fuzzFrame([]byte(`{"type":"hello","worker_name":"w0"}`)))
	f.Add([]byte(`00000000 {"type":"hello"}`))
	f.Add([]byte(`{"type":"hello"}`))
	f.Add([]byte("x"))
	f.Add([]byte(`zzzzzzzz {"type":"hello"}`))
	f.Add([]byte("deadbeef x"))
	f.Add([]byte("00000000 "))
	f.Add(bytes.Repeat([]byte("a"), 4096))

	f.Fuzz(func(t *testing.T, line []byte) {
		payload, err := verifyFrame(line)
		if err != nil {
			return
		}
		if !bytes.Equal(payload, line[9:]) {
			t.Fatalf("accepted payload %q is not the frame body of %q", payload, line)
		}
		// An accepted payload must at least be safe to hand to the
		// message decoder, whether or not it is valid JSON.
		var m Message
		_ = json.Unmarshal(payload, &m)
	})
}

// proofBytes is what a decoded proof holds in memory, on a 64-bit
// machine: a slice header per lemma and per hint, a word per literal, a
// Deletion per deletion. The hints' own bytes are the input's.
func proofBytes(p *sat.Proof) int {
	n := 24*len(p.Lemmas) + 8*p.NumLits() + 32*len(p.Deletes) + 24*len(p.Hints)
	for _, d := range p.Deletes {
		n += 8 * len(d.Clause)
	}
	return n
}

// FuzzDecodeCertificate feeds arbitrary bytes to the certificate
// decoder, as a whole certificate and as the flat form of one proof: it
// must reject or accept without panicking, and a proof it accepts holds
// no more than sixteen times the bytes it came in — nothing on the way
// in expands, so the wire cap is the memory cap.
func FuzzDecodeCertificate(f *testing.F) {
	proof := &sat.Proof{
		Lemmas:  []cnf.Clause{{cnf.PosLit(1), cnf.NegLit(300)}, {cnf.PosLit(2)}, {}},
		Deletes: []sat.Deletion{{At: 1, Clause: cnf.Clause{cnf.PosLit(1), cnf.PosLit(2)}}},
		Hints:   []sat.Hint{{3, 0x80, 0x01}, {7}},
	}
	valid, err := encodeCertificate(&Certificate{
		NumVars: 8,
		Model:   packBits([]bool{true, false, true, true, false, true, false, false}),
		Proofs:  []PartitionProof{{Partition: 0, Proof: proof}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not json"))
	f.Add([]byte{})
	// The flat form and what it never is: a varint cut in half, a lemma
	// count larger than the input, a hint delta that overflows 2^31 (well
	// formed on the wire: the checker is who refuses it), a deletion whose
	// At runs past the last lemma, trailing bytes.
	flat := sat.AppendFlat(nil, proof)
	uvarints := func(ns ...uint64) (out []byte) {
		for _, n := range ns {
			out = binary.AppendUvarint(out, n)
		}
		return out
	}
	f.Add(flat)
	f.Add(flat[:bytes.IndexByte(flat, 0xd9)+1])
	f.Add(uvarints(1000, 0, 0, 0, 0))
	f.Add(append(uvarints(1, 1, 0, 1, 1, 2, 5), uvarints(1<<31+5)...)) // 1<<31+5 is five bytes
	f.Add(uvarints(1, 1, 1, 0, 1, 2, 2, 0))
	f.Add(append(bytes.Clone(flat), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := sat.ParseFlat(data); err == nil {
			if got := proofBytes(p); got > 16*len(data) {
				t.Fatalf("%d bytes of flat proof decoded into %d", len(data), got)
			}
			if back, err := sat.ParseFlat(sat.AppendFlat(nil, p)); err != nil || back.Digest() != p.Digest() {
				t.Fatalf("an accepted proof does not survive its own encoding: %v", err)
			}
		}
		cert, err := decodeCertificate(data)
		if err != nil {
			return
		}
		if len(data) > 0 && cert == nil {
			t.Fatal("nil certificate with nil error for non-empty input")
		}
		for _, pp := range cert.Proofs {
			// base64 inside the envelope only shrinks what a proof came in.
			if pp.Proof != nil && proofBytes(pp.Proof) > 16*len(data) {
				t.Fatalf("%d bytes of certificate decoded into a proof of %d", len(data), proofBytes(pp.Proof))
			}
		}
	})
}
