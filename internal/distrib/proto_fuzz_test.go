package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/prog"
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
// machine: a slice header per lemma and per chain, a word per literal,
// a Deletion per deletion and four bytes per chain ID.
func proofBytes(p *sat.Proof) int {
	n := 24*len(p.Lemmas) + 8*p.NumLits() + 40*len(p.Deletes) + 24*len(p.Chains)
	for _, d := range p.Deletes {
		n += 8 * len(d.Clause)
	}
	for _, c := range p.Chains {
		n += 4 * len(c)
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
		Deletes: []sat.Deletion{{At: 1, ID: 3, Clause: cnf.Clause{cnf.PosLit(1), cnf.PosLit(2)}}},
		Chains:  [][]uint32{{3, 0, 1}, {7}},
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
	// count larger than the input, a chain ID past 2^31 (well formed on
	// the wire: the checker is who passes it over), a deletion whose At
	// runs past the last lemma, trailing bytes.
	flat := sat.AppendFlat(nil, proof)
	uvarints := func(ns ...uint64) (out []byte) {
		for _, n := range ns {
			out = binary.AppendUvarint(out, n)
		}
		return out
	}
	f.Add(flat)
	f.Add(flat[:bytes.IndexByte(flat, 0xd9)+1])
	f.Add(uvarints(1000, 0, 0, 0, 0, 0))
	f.Add(binary.AppendVarint(uvarints(1, 1, 0, 1, 1, 1, 2, 1), 1<<31+5)) // five bytes
	f.Add(uvarints(1, 1, 1, 0, 0, 1, 2, 2, 0, 0))
	f.Add(append(bytes.Clone(flat), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := sat.ParseFlat(data); err == nil {
			if got := proofBytes(p); got > 16*len(data) {
				t.Fatalf("%d bytes of flat proof decoded into %d", len(data), got)
			}
			flat := sat.AppendFlat(nil, p)
			if back, err := sat.ParseFlat(flat); err != nil || !bytes.Equal(sat.AppendFlat(nil, back), flat) {
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

// FuzzJobAssumptions feeds arbitrary cube literals through the worker's
// job path — the partition range and the assumption lists of a job frame,
// on a worker that holds the run's template: a frame whose literals are
// not literals of the template's variables, or whose lists do not match
// its range, gets an error result and no verdict, never a panic (the job
// path's recover boundary would report one as "panic: ...") nor a solve;
// any other gets a verdict or an error.
func FuzzJobAssumptions(f *testing.F) {
	p, opts := prog.MustParse(fibSrc), CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 4, Certify: CertifyPolicy{Mode: CertifyOff}}
	v, err := newCertVerifier(p, opts)
	if err != nil {
		f.Fatal(err)
	}
	data, err := v.prep.Template().Snapshot(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	vars := v.prep.Vars()
	frame := jobFrame(&opts, v.prep.Manifest(), 0)
	for _, cube := range []partition.Cube{{From: 0, To: 3}, {From: 2, To: 2, Path: "1"}} {
		assume, err := v.assumptions(cube)
		if err != nil {
			f.Fatal(err)
		}
		payload, _ := json.Marshal(assume)
		f.Add(cube.From, cube.To, payload)
	}
	for _, payload := range []string{`[[0]]`, `[[1,4]]`, `[[-6]]`, `[[2],[3]]`, `[]`, `[[]]`, `[[4294967296]]`,
		fmt.Sprintf(`[[%d]]`, 2*vars+2), fmt.Sprintf(`[[%d]]`, 2*vars+1)} {
		f.Add(1, 1, []byte(payload))
	}
	f.Add(-1, 0, []byte(`[[2]]`))
	f.Add(3, 2, []byte(`[]`))
	f.Add(0, 1<<40, []byte(`[[2]]`))
	w := shippedWorker(data)
	f.Fuzz(func(t *testing.T, from, to int, payload []byte) {
		m := frame
		if json.Unmarshal(payload, &m.Assume) != nil {
			return // not a frame the wire would hand the job path
		}
		m.JobID, m.From, m.To = 1, from, to
		valid := from >= 0 && from <= to && to < m.Partitions && len(m.Assume) == to-from+1
		for _, lits := range m.Assume {
			for _, l := range lits {
				valid = valid && l >= 2 && int(l.Var()) <= vars
			}
		}
		reply, cert := w.runJob(context.Background(), &m, nil, nil, nil)
		switch {
		case strings.HasPrefix(reply.Error, "panic:"):
			t.Fatalf("from %d to %d, assume %s: %s", from, to, payload, reply.Error)
		case !valid && (reply.Error == "" || reply.Verdict != "" || cert != nil):
			t.Fatalf("from %d to %d, assume %s: verdict %q (error %q) on a frame that names no cube of the template", from, to, payload, reply.Verdict, reply.Error)
		case valid && reply.Error == "" && reply.Verdict == "":
			t.Fatalf("from %d to %d, assume %s: neither a verdict nor an error", from, to, payload)
		}
	})
}
