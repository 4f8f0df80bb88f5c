package weakmem

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/prog"
)

// sbLitmus is the classic store-buffering litmus test: under sequential
// consistency at least one thread observes the other's store, so
// r1 = r2 = 0 is unreachable; under TSO/PSO both stores can linger in
// the buffers and both loads read 0.
const sbLitmus = `
int x, y;
int r1, r2;

void t1() {
  x = 1;
  r1 = y;
}

void t2() {
  y = 1;
  r2 = x;
}

void main() {
  int a, b;
  a = create(t1);
  b = create(t2);
  join(a);
  join(b);
  assert(!(r1 == 0 && r2 == 0));
}
`

// mpLitmus is the message-passing litmus test: the sender publishes data
// then raises a flag. Under SC and TSO the receiver that observes the
// flag also observes the data; under PSO the flag store may drain before
// the data store.
const mpLitmus = `
int data, flag, out;

void sender() {
  data = 1;
  flag = 1;
}

void receiver() {
  int f;
  f = flag;
  if (f == 1) {
    out = data;
  } else {
    out = 1;
  }
}

void main() {
  int a, b;
  out = 1;
  a = create(sender);
  b = create(receiver);
  join(a);
  join(b);
  assert(out == 1);
}
`

// sbLockedLitmus is store buffering with every access under one mutex:
// lock and unlock are full fences.
const sbLockedLitmus = `
mutex m;
int x, y;
int r1, r2;

void t1() {
  lock(m);
  x = 1;
  r1 = y;
  unlock(m);
}

void t2() {
  lock(m);
  y = 1;
  r2 = x;
  unlock(m);
}

void main() {
  int a, b;
  a = create(t1);
  b = create(t2);
  join(a);
  join(b);
  assert(!(r1 == 0 && r2 == 0));
}
`

func verdict(t *testing.T, p *prog.Program, contexts, cores int) core.Verdict {
	t.Helper()
	// The transformed programs have large thread bodies; the solver's
	// simplification pass keeps the exhaustive (UNSAT) configurations
	// tractable in tests.
	res, err := core.Verify(context.Background(), p, core.Options{
		Unwind: 2, Contexts: contexts, Cores: cores,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == core.Unsafe && res.Violation == nil {
		t.Fatal("unsafe verdict without validated violation")
	}
	return res.Verdict
}

func TestStoreBufferingLitmus(t *testing.T) {
	sc := prog.MustParse(sbLitmus)
	// Under SC the outcome is forbidden at any bound.
	if got := verdict(t, sc, 6, 2); got != core.Safe {
		t.Fatalf("SC store buffering: %v", got)
	}
	// Under PSO it is reachable.
	pso, err := Transform(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, pso, 6, 2); got != core.Unsafe {
		t.Fatalf("PSO store buffering: %v", got)
	}
}

func TestMessagePassingLitmus(t *testing.T) {
	sc := prog.MustParse(mpLitmus)
	if got := verdict(t, sc, 6, 2); got != core.Safe {
		t.Fatalf("SC message passing: %v", got)
	}
	// PSO drops the store-store order: the violation appears.
	pso, err := Transform(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, pso, 7, 2); got != core.Unsafe {
		t.Fatalf("PSO message passing: %v", got)
	}
}

func TestFencesRestoreSafety(t *testing.T) {
	// Wrapping the accesses in a mutex fences the buffers: the PSO
	// transformation of the locked store-buffering program stays safe.
	pso, err := Transform(prog.MustParse(sbLockedLitmus))
	if err != nil {
		t.Fatal(err)
	}
	// c=6 is where the unfenced variant fails (TestStoreBufferingLitmus);
	// the fenced program must be safe there.
	if got := verdict(t, pso, 6, 2); got != core.Safe {
		t.Fatalf("locked PSO store buffering: %v", got)
	}
}

func TestTransformModularWithPartitioning(t *testing.T) {
	// The paper's modularity claim: the transformation leaves the
	// scheduler untouched, so partitioned parallel analysis applies
	// unchanged to the transformed program and every core count agrees.
	pso, err := Transform(prog.MustParse(sbLitmus))
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{1, 2, 4} {
		if got := verdict(t, pso, 6, cores); got != core.Unsafe {
			t.Fatalf("cores=%d: %v", cores, got)
		}
	}
}

func TestTransformPreservesSequentialPrograms(t *testing.T) {
	// A single-threaded program has no weak-memory behaviours: verdicts
	// must match before and after the transformation.
	src := `
int g;
void main() {
  g = 1;
  g = g + 1;
  assert(g == 2);
}
`
	p := prog.MustParse(src)
	pso, err := Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, pso, 3, 1); got != core.Safe {
		t.Fatalf("sequential PSO: %v", got)
	}
	unsafeSrc := `
int g;
void main() {
  g = 1;
  assert(g == 2);
}
`
	psoU, err := Transform(prog.MustParse(unsafeSrc))
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, psoU, 3, 1); got != core.Unsafe {
		t.Fatalf("sequential unsafe PSO: %v", got)
	}
}

func TestTransformOutputParses(t *testing.T) {
	// The transformed program must survive a print/parse round trip
	// (it is a plain program in the same language).
	pso, err := Transform(prog.MustParse(mpLitmus))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Parse(prog.Format(pso)); err != nil {
		t.Fatalf("round trip: %v\n%s", err, prog.Format(pso))
	}
}

func TestTSOLitmusTests(t *testing.T) {
	// TSO keeps stores to different locations in program order, so
	// message passing is safe under TSO (but not under PSO), while store
	// buffering fails under both.
	sb := prog.MustParse(sbLitmus)
	mp := prog.MustParse(mpLitmus)

	sbTSO, err := TransformTSO(sb, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, sbTSO, 6, 2); got != core.Unsafe {
		t.Fatalf("TSO store buffering: %v, want UNSAFE", got)
	}

	mpTSO, err := TransformTSO(mp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, mpTSO, 7, 2); got != core.Safe {
		t.Fatalf("TSO message passing: %v, want SAFE (PSO-only violation)", got)
	}
}

func TestTSORejectsBoolGlobals(t *testing.T) {
	p := prog.MustParse("bool f; void main() { f = true; }")
	if _, err := TransformTSO(p, 2); err == nil {
		t.Fatal("bool global accepted")
	}
}

func TestTSOSequentialPreserved(t *testing.T) {
	p := prog.MustParse(`
int g;
void main() {
  g = 1;
  g = g + 1;
  assert(g == 2);
}
`)
	tso, err := TransformTSO(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, tso, 3, 1); got != core.Safe {
		t.Fatalf("sequential TSO: %v", got)
	}
}

func TestTSOOutputParses(t *testing.T) {
	tso, err := TransformTSO(prog.MustParse(mpLitmus), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Parse(prog.Format(tso)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestTSOQueueOrderingDirect(t *testing.T) {
	// A same-thread read-back must see the youngest buffered store.
	p := prog.MustParse(`
int g;
void main() {
  int v;
  g = 1;
  g = 2;
  v = g;
  assert(v == 2);
}
`)
	tso, err := TransformTSO(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(t, tso, 4, 1); got != core.Safe {
		t.Fatalf("store forwarding: %v", got)
	}
}
