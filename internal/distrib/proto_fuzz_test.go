package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"runtime"
	"slices"
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

// fuzzRefutation is an unsatisfiable random 3-CNF over 12 variables
// and a refutation of it as its solver logged it.
func fuzzRefutation(f *testing.F) (*cnf.Formula, sat.Proof) {
	rng := rand.New(rand.NewPCG(41, 7))
	formula := cnf.New()
	for range 12 {
		formula.NewVar()
	}
	for {
		var c cnf.Clause
		for range 3 {
			c = append(c, cnf.MkLit(cnf.Var(1+rng.IntN(12)), rng.IntN(2) == 0))
		}
		formula.AddClause(c...)
		if formula.NumClauses() < 40 {
			continue
		}
		s := sat.New(formula.NumVars, sat.Options{})
		s.EnableProof()
		s.AddFormula(formula)
		if st, err := s.Solve(); err != nil {
			f.Fatal(err)
		} else if st == sat.Unsat {
			return formula, s.ProofLog()
		}
	}
}

// checkTail puts a tail to the checker the coordinator checks it with
// (sat.ProofChecker.Check), one that has checked the inputs before it:
// it answers to the letter as a fresh checker does; what it allocates is
// bounded by the bytes it was handed — the lemmas they hold grow the
// checker's arena by a few words each, and nothing else is kept. A tail
// whose form it accepts (sat.Proof.Steps), logged again step by step
// (sat.FlatLog.Step), is the bytes it was handed: a proof has one form.
// And cut at a step boundary — at every one, or at 64 spread over a
// longer tail — it is two proofs Steps accepts, of the whole's steps
// between them, and a fresh checker extended by the first
// (sat.ProofChecker.Extend) answers for the second as Check answers
// for the whole; one whose extension does not stand answers for the
// whole as a fresh one does.
func checkTail(t *testing.T, c *sat.ProofChecker, f *cnf.Formula, flat []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := c.Check(nil, flat)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(flat))+64<<10 {
		t.Fatalf("checking %d bytes of tail allocated %d", len(flat), grew)
	}
	if want := sat.CheckRUP(f, nil, flat); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("a checker that has checked others: %v; a fresh one: %v", got, want)
	}
	var log sat.FlatLog
	cuts := []int{0}
	if sat.Proof(flat).Steps(func(deleted bool, clause, ids []uint32) error {
		log.Step(deleted, clause, ids)
		cuts = append(cuts, len(log))
		return nil
	}) != nil {
		return
	}
	if back := sat.Proof(log); !bytes.Equal(back, flat) {
		t.Fatalf("a proof of %d bytes, logged again step by step, is %d bytes, or others", len(flat), len(back))
	}
	steps := len(cuts) - 1
	if len(cuts) > 64 {
		spread := make([]int, 64)
		for i := range spread {
			spread[i] = cuts[i*(len(cuts)-1)/63]
		}
		cuts = spread
	}
	for _, cut := range cuts {
		prefix, tail := sat.Proof(flat[:cut:cut]), sat.Proof(flat[cut:])
		n, m := countSteps(prefix), countSteps(tail)
		if n < 0 || m < 0 || n+m != steps {
			t.Fatalf("cut at byte %d of %d: %d and %d steps of %d (-1: refused)", cut, len(flat), n, m, steps)
		}
		extended := sat.NewProofChecker(f)
		extended.Extend(prefix)
		if extended.ExtendDone() != nil {
			if again := extended.Check(nil, flat); fmt.Sprint(again) != fmt.Sprint(got) {
				t.Fatalf("cut at byte %d: after a rejected extension %v; a fresh checker %v", cut, again, got)
			}
			continue
		}
		if rest := extended.Check(nil, tail); (rest == nil) != (got == nil) {
			t.Fatalf("cut at byte %d of %d: extend then Check says %v, Check of the whole %v", cut, len(flat), rest, got)
		}
	}
}

// countSteps is the number of steps of p, -1 if Steps refuses it.
func countSteps(p sat.Proof) int {
	n := 0
	if p.Steps(func(bool, []uint32, []uint32) error { n++; return nil }) != nil {
		return -1
	}
	return n
}

// FuzzDecodeCertificate feeds arbitrary bytes to the certificate
// decoder and to the checker the coordinator checks a tail with, as a
// whole certificate and as one proof: neither may panic; a certificate
// it accepts holds slices of the bytes it came in and at most one
// PartitionProof per two of them, and encodes back to itself; and every
// proof in it, and the bytes themselves, check as they do on a fresh
// checker, allocating no more than a bound of their size, and a proof
// whose form is accepted is the bytes a solver logging its steps would
// write, and holds the join law at its step boundaries (checkTail).
func FuzzDecodeCertificate(f *testing.F) {
	formula, honest := fuzzRefutation(f)
	checker := sat.NewProofChecker(formula)
	valid := encodeCertificate(&Certificate{
		NumVars: 8,
		Model:   packBits([]bool{true, false, true, true, false, true, false, false}),
		Proofs:  []PartitionProof{{Partition: 0, Proof: honest}, {Partition: -1}},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"num_vars":8,"proofs":[{"partition":0,"proof":"AA=="}]}`))
	f.Add([]byte{})
	// A proof and what it never is: the honest tail, a lemma flipped in
	// it, a step cut mid-way, a literal count larger than the input, a
	// chain ID past 2^31 (well formed on the wire: the checker is who
	// passes it over), a chain that comes back below 0, a deletion
	// without its ID, a head written in two bytes where one does, a
	// step cut after its head; and the empty proof.
	var flipped sat.FlatLog
	lemmas := 0
	if err := honest.Steps(func(deleted bool, clause, ids []uint32) error {
		if !deleted {
			if lemmas == 0 {
				clause[0] ^= 1
			}
			lemmas++
		}
		flipped.Step(deleted, clause, ids)
		return nil
	}); err != nil || lemmas == 0 {
		f.Fatalf("the honest tail: %d lemmas, %v", lemmas, err)
	}
	uvarints := func(ns ...uint64) (out []byte) {
		for _, n := range ns {
			out = binary.AppendUvarint(out, n)
		}
		return out
	}
	f.Add([]byte(honest))
	f.Add([]byte(flipped))
	f.Add([]byte(honest[:len(honest)-1]))
	f.Add(uvarints(2000, 4, 0))
	f.Add(binary.AppendVarint(uvarints(2, 4, 1), 1<<31+5)) // five bytes
	f.Add(uvarints(0, 2, 10, 21))
	f.Add(uvarints(3, 4))
	f.Add([]byte{0x80, 0, 0})
	f.Add(append(bytes.Clone(honest), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkTail(t, checker, formula, data)
		cert, err := decodeCertificate(data)
		if err != nil {
			return
		}
		if 2*len(cert.Proofs) > len(data) {
			t.Fatalf("%d bytes of certificate decoded into %d proofs", len(data), len(cert.Proofs))
		}
		for _, pp := range cert.Proofs {
			if len(pp.Proof) > 0 && !bytes.Contains(data, pp.Proof) {
				t.Fatal("a proof that is not the bytes it came in")
			}
			checkTail(t, checker, formula, pp.Proof)
		}
		back, err := decodeCertificate(encodeCertificate(cert))
		if err != nil || back.NumVars != cert.NumVars || !bytes.Equal(back.Model, cert.Model) ||
			!slices.EqualFunc(back.Proofs, cert.Proofs, func(a, b PartitionProof) bool {
				return a.Partition == b.Partition && bytes.Equal(a.Proof, b.Proof)
			}) {
			t.Fatalf("an accepted certificate does not survive its own encoding: %v", err)
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
		reply, cert := w.runJob(context.Background(), &m, nil, nil)
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
