package distrib

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"repro/internal/partition"
	"repro/internal/sat"
	"repro/prog"
)

// TestCertifiedRunReleasesFormula: once the coordinator has built its
// template — the snapshot it ships, and the checker beside the pass, the
// two calls Coordinate's buildTemplate makes — nothing of its run holds
// the formula: the encoding let it go at Prepare, the template and the
// checker have loaded it, and it is garbage. Every check stands all the
// same: a worker's tails check on the checker; a worker's counterexample
// is checked against every clause of the formula made again; a model
// that replays but falsifies a clause — one variable flipped that the
// replay does not miss — is still rejected; and a formula made again
// that is not the run's fails the check as the coordinator's own fault
// (errRederive: a failed attempt, not a condemned worker), never a pass.
func TestCertifiedRunReleasesFormula(t *testing.T) {
	ctx := context.Background()
	opts := CoordinatorOptions{Unwind: 1, Contexts: 4, Partitions: 4}
	v, err := newCertVerifier(prog.MustParse(fibSrc), opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.prep.Encoded().Formula() != nil {
		t.Fatal("the coordinator's encoding kept its formula")
	}
	before := formulaOf(t, v) // the template's own: not built yet
	gone, clauses := weak.Make(before), before.NumClauses()
	before = nil
	tpl := v.prep.Template()
	data, err := tpl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Drop()
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("after the template's build the coordinator still holds the formula")
	}

	var sats []partition.Cube
	var satCert *Certificate
	var winner int
	for i := range v.prep.Manifest().Partitions {
		cube := partition.Cube{From: i, To: i}
		reply, cert := shippedWorker(data).runJob(ctx, jobFor(t, v, opts, cube), nil, nil)
		switch reply.Verdict {
		case sat.Unsat.String():
			if _, err := v.verifySafe(cube, cert); err != nil {
				t.Fatalf("partition %d: SAFE, and its tail does not check: %v", i, err)
			}
			// Bytes the checker would never read ride along with the honest
			// proof: a proof outside the cube is refused, not passed over.
			junk := *cert
			junk.Proofs = append(slices.Clip(cert.Proofs), PartitionProof{Partition: i + 1, Proof: []byte("junk")})
			if _, err := v.verifySafe(cube, &junk); err == nil {
				t.Fatalf("partition %d: a certificate with a proof outside its cube was accepted", i)
			}
		case sat.Sat.String():
			if err := v.verifyUnsafe(cube, reply.Winner, cert); err != nil {
				t.Fatalf("partition %d: UNSAFE, and its model does not check: %v", i, err)
			}
			sats, satCert, winner = append(sats, cube), cert, reply.Winner
		default:
			t.Fatalf("partition %d: %+v", i, reply)
		}
	}
	if len(sats) == 0 {
		t.Fatal("no partition of the cell is UNSAFE")
	}
	cube := sats[len(sats)-1]

	f := formulaOf(t, v)
	if f.NumClauses() != clauses {
		t.Fatalf("the formula made again has %d clauses, the run's %d", f.NumClauses(), clauses)
	}
	model, err := unpackBits(satCert.Model, satCert.NumVars)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for i := range model {
		forged := slices.Clone(model)
		forged[i] = !forged[i]
		assign := append([]bool{false}, forged...)
		lie := &Certificate{NumVars: satCert.NumVars, Model: packBits(forged)}
		if f.Eval(assign) {
			continue
		}
		if _, err := v.replay(lie); err != nil {
			continue // the replay catches it: not the model this test wants
		}
		err := v.verifyUnsafe(cube, winner, lie)
		if err == nil || !strings.Contains(err.Error(), "falsifies clause") {
			t.Fatalf("variable %d flipped: the model replays and falsifies the formula, and the check says %v", i+1, err)
		}
		flipped++
		break
	}
	if flipped == 0 {
		t.Fatal("no variable of the model can be flipped with the replay unchanged")
	}

	// The program the encoder runs on again, changed under the run: the
	// formula it makes is not the run's.
	enc := v.prep.Encoded()
	enc.Opts.Contexts++
	err = v.verifyUnsafe(cube, winner, satCert)
	enc.Opts.Contexts--
	if !errors.Is(err, errRederive) {
		t.Fatalf("a formula made again that is not the run's: %v", err)
	}
	if err := v.verifyUnsafe(cube, winner, satCert); err != nil {
		t.Fatalf("the honest model after: %v", err)
	}
}
