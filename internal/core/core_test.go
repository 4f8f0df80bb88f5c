package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/partition"
	"repro/prog"
)

const fibSrc = `
int i, j;
void t1() {
  int k = 0;
  while (k < 1) { i = i + j; k = k + 1; }
}
void t2() {
  int k = 0;
  while (k < 1) { j = j + i; k = k + 1; }
}
void main() {
  int tid1, tid2;
  i = 1;
  j = 1;
  tid1 = create(t1);
  tid2 = create(t2);
  join(tid1);
  join(tid2);
  assert(j < 3);
  assert(i < 3);
}
`

func TestVerifyUnsafeWithTraceValidation(t *testing.T) {
	p := prog.MustParse(fibSrc)
	res, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 4, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Trace == nil || len(res.Trace.Schedule) != 4 {
		t.Fatalf("trace: %+v", res.Trace)
	}
	if res.Violation == nil {
		t.Fatal("violation not validated by replay")
	}
	if res.Vars == 0 || res.Clauses == 0 {
		t.Fatal("formula size not reported")
	}
	if res.Threads != 3 {
		t.Fatalf("threads: %d", res.Threads)
	}
	if res.Trace.String() == "" {
		t.Fatal("empty trace rendering")
	}
}

func TestVerifySafeWithinBounds(t *testing.T) {
	p := prog.MustParse(fibSrc)
	res, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 3, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Trace != nil {
		t.Fatal("unexpected trace on safe result")
	}
}

func TestVerifySameVerdictAcrossCores(t *testing.T) {
	p := prog.MustParse(fibSrc)
	for _, cores := range []int{1, 2, 4, 8} {
		res, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 4, Cores: cores})
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if res.Verdict != Unsafe {
			t.Fatalf("cores=%d: verdict %v", cores, res.Verdict)
		}
		if res.Violation == nil {
			t.Fatalf("cores=%d: no validated violation", cores)
		}
	}
	// Safe case across cores.
	for _, cores := range []int{1, 4} {
		res, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 3, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Safe {
			t.Fatalf("cores=%d: verdict %v", cores, res.Verdict)
		}
	}
}

func TestVerifyDistributedRange(t *testing.T) {
	p := prog.MustParse(fibSrc)
	// 4 partitions split over two simulated machines; the union of the
	// two runs must find the bug, and a safe configuration must be safe
	// on both.
	found := 0
	for _, r := range [][2]int{{0, 2}, {2, 4}} {
		res, err := Verify(context.Background(), p, Options{
			Unwind: 1, Contexts: 4, Cores: 2, Partitions: 4,
			From: r[0], To: r[1],
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == Unsafe {
			found++
			if res.Winner < r[0] || res.Winner >= r[1] {
				t.Fatalf("winner %d outside range %v", res.Winner, r)
			}
		}
	}
	if found == 0 {
		t.Fatal("no machine found the bug")
	}
}

func TestVerifyInvalidRange(t *testing.T) {
	p := prog.MustParse(fibSrc)
	_, err := Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 4, Partitions: 4, From: 3, To: 10,
	})
	if err == nil {
		t.Fatal("invalid range accepted")
	}
}

func TestVerifyRoundRobinMode(t *testing.T) {
	p := prog.MustParse(fibSrc)
	res, err := Verify(context.Background(), p, Options{Unwind: 1, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	res, err = Verify(context.Background(), p, Options{Unwind: 1, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestVerifyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := prog.MustParse(fibSrc)
	res, err := Verify(ctx, p, Options{Unwind: 1, Contexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	if Safe.String() != "SAFE" || Unsafe.String() != "UNSAFE" || Unknown.String() != "UNKNOWN" {
		t.Fatal("verdict strings")
	}
}

func TestPartitionsCappedByEncoding(t *testing.T) {
	p := prog.MustParse(fibSrc)
	// Contexts=2 has only 1 symbolic context -> max 2 partitions; asking
	// for 8 cores must transparently cap.
	res, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 2, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 2 {
		t.Fatalf("partitions: %d, want 2", res.Partitions)
	}
}

// A search long enough to run the solver's simplification pass is
// still certified against the encoding as emitted: the pass logs what
// it derives, so one run is simplified and checked — the combination
// that KeepProofs and the old up-front simplifier option refused.
func TestVerifySimplifiedSearchCertifies(t *testing.T) {
	if testing.Short() {
		t.Skip("solves and checks eliminationstack u=2 c=5")
	}
	res, err := Verify(context.Background(), bench.Eliminationstack(), Options{
		Unwind: 2, Contexts: 5, Cores: 1, Partitions: 1, CertifyUnsat: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe || !res.Certified {
		t.Fatalf("verdict %v, certified %v", res.Verdict, res.Certified)
	}
	st := res.Instances[0].Stats
	if st.ElimVars == 0 || st.Simplified == 0 {
		t.Fatalf("the search never simplified (%d propagations over %d clauses): %d variables eliminated, %d clauses removed",
			st.Propagations, res.Clauses, st.ElimVars, st.Simplified)
	}
	if int(st.ElimVars) >= res.Vars || int(st.Simplified) > res.Clauses {
		t.Fatalf("%d of %d variables eliminated, %d of %d clauses removed", st.ElimVars, res.Vars, st.Simplified, res.Clauses)
	}
}

func TestVerifyTrivialCases(t *testing.T) {
	// Trivially unsafe: decided while the formula loads.
	unsafe := prog.MustParse(`void main() { assert(false); }`)
	res, err := Verify(context.Background(), unsafe, Options{Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe || res.Violation == nil {
		t.Fatalf("verdict %v violation %v", res.Verdict, res.Violation)
	}
	// Trivially safe: refuted by propagation alone.
	safe := prog.MustParse(`void main() { assert(true); }`)
	res, err = Verify(context.Background(), safe, Options{Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
}

func TestVerifyCertifiedSafe(t *testing.T) {
	p := prog.MustParse(fibSrc)
	res, err := Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 3, Cores: 2, CertifyUnsat: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe || !res.Certified {
		t.Fatalf("verdict %v certified %v", res.Verdict, res.Certified)
	}
	// Also through the deterministic simulator.
	res, err = Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 3, Cores: 2, CertifyUnsat: true, SimulateParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe || !res.Certified {
		t.Fatalf("simulated: verdict %v certified %v", res.Verdict, res.Certified)
	}
	// Unsafe verdicts are validated by replay instead; certification does
	// not interfere.
	res, err = Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 4, Cores: 2, CertifyUnsat: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe || res.Violation == nil {
		t.Fatalf("verdict %v violation %v", res.Verdict, res.Violation)
	}
}

// A sequential simulation has no idle worker and can never split: the
// combination is refused instead of reporting Splits/MaxCubeDepth that
// could only read 0.
func TestVerifyRejectsSplitDepthUnderSimulation(t *testing.T) {
	p := prog.MustParse(fibSrc)
	_, err := Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 4, Cores: 2, SimulateParallel: true, Split: partition.SplitPolicy{Depth: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "Split.Depth") {
		t.Fatalf("err %v, want a Split.Depth/SimulateParallel refusal", err)
	}
}
