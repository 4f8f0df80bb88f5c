package interp

import (
	"testing"

	"repro/internal/flatten"
	"repro/internal/unfold"
	"repro/prog"
)

func mustFlat(t *testing.T, src string, u int) *flatten.Program {
	t.Helper()
	p, err := prog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	up, err := unfold.Unfold(p, unfold.Options{Unwind: u})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := flatten.Flatten(up)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

const fibSrc = `
int i, j;

void t1() {
  int k = 0;
  while (k < 1) {
    i = i + j;
    k = k + 1;
  }
}

void t2() {
  int k = 0;
  while (k < 1) {
    j = j + i;
    k = k + 1;
  }
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

func TestSequentialExecution(t *testing.T) {
	src := `
int g;
void main() {
  int x = 20;
  g = x + 22;
  assert(g == 42);
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet)
	if err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if st.vals["g"] != 42 {
		t.Fatalf("g = %d", st.vals["g"])
	}
	if !st.Terminated(0) || !st.AllTerminated() {
		t.Fatal("main not terminated")
	}
}

func TestAssertionViolationDetected(t *testing.T) {
	src := `void main() { assert(false); }`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet)
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("want violation, got %v", err)
	}
	if v.Thread != 0 {
		t.Fatalf("violation thread %d", v.Thread)
	}
	if v.Error() == "" {
		t.Fatal("empty violation message")
	}
}

func TestAssumePrunes(t *testing.T) {
	src := `void main() { assume(false); assert(false); }`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet)
	if err != ErrInfeasible {
		t.Fatalf("want infeasible, got %v", err)
	}
}

func TestWidthWrapping(t *testing.T) {
	src := `
int g;
void main() {
  int x = 127;
  g = x + 1;
  assert(g < 0);
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{Width: 8})
	if err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet); err != nil {
		t.Fatalf("8-bit wrap: %v", err)
	}
	if st.vals["g"] != -128 {
		t.Fatalf("g = %d, want -128", st.vals["g"])
	}
	// With 16 bits the assert must fail.
	st16 := NewState(fp, Options{Width: 16})
	err := st16.ExecContext(0, fp.Threads[0].Size(), ZeroNondet)
	if _, ok := err.(*Violation); !ok {
		t.Fatalf("16-bit: want violation, got %v", err)
	}
}

func TestArraySemantics(t *testing.T) {
	src := `
int a[3];
void main() {
  int x;
  a[0] = 5;
  a[1] = 6;
  a[2] = 7;
  x = a[1];
  assert(x == 6);
  x = a[200];        // out-of-bounds read yields 0
  assert(x == 0);
  a[250] = 9;        // out-of-bounds write dropped
  assert(a[0] == 5);
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	if err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet); err != nil {
		t.Fatalf("array semantics: %v", err)
	}
}

func TestLockBlocksSecondAcquire(t *testing.T) {
	src := `
mutex m;
int g;
void w() { lock(m); g = g + 1; unlock(m); }
void main() {
  int t;
  lock(m);
  t = create(w);
  g = 10;
  unlock(m);
}
`
	fp := mustFlat(t, src, 1)
	// Main: lock, create, g=10, unlock -> 4 blocks. Worker: lock, store,
	// unlock -> 3 blocks.
	st := NewState(fp, Options{})
	// Main runs lock+create (blocks 0..1).
	if err := st.ExecContext(0, 2, ZeroNondet); err != nil {
		t.Fatalf("main prefix: %v", err)
	}
	// Worker tries to lock: must be infeasible.
	st2 := st.Clone()
	if err := st2.ExecContext(1, 1, ZeroNondet); err != ErrInfeasible {
		t.Fatalf("second acquire: want infeasible, got %v", err)
	}
	// After main unlocks, the worker can proceed.
	if err := st.ExecContext(0, 4, ZeroNondet); err != nil {
		t.Fatalf("main rest: %v", err)
	}
	if err := st.ExecContext(1, 3, ZeroNondet); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if st.vals["g"] != 11 {
		t.Fatalf("g = %d", st.vals["g"])
	}
}

func TestJoinBlocksUntilTermination(t *testing.T) {
	src := `
int g;
void w() { g = 1; }
void main() {
  int t;
  t = create(w);
  join(t);
  g = 2;
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	// Main creates (block 0), then tries to join before the worker ran.
	if err := st.ExecContext(0, 1, ZeroNondet); err != nil {
		t.Fatalf("create: %v", err)
	}
	st2 := st.Clone()
	if err := st2.ExecContext(0, 2, ZeroNondet); err != ErrInfeasible {
		t.Fatalf("early join: want infeasible, got %v", err)
	}
	// Run the worker, then join succeeds.
	if err := st.ExecContext(1, 1, ZeroNondet); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := st.ExecContext(0, 3, ZeroNondet); err != nil {
		t.Fatalf("join+store: %v", err)
	}
	if st.vals["g"] != 2 {
		t.Fatalf("g = %d", st.vals["g"])
	}
}

func TestInactiveThreadCannotRun(t *testing.T) {
	src := `
int g;
void w() { g = 1; }
void main() {
  int t;
  g = 5;
  t = create(w);
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	if err := st.ExecContext(1, 1, ZeroNondet); err != ErrInfeasible {
		t.Fatalf("inactive thread: want infeasible, got %v", err)
	}
}

func TestThreadArgumentsDelivered(t *testing.T) {
	src := `
int g;
void w(int a, bool b) {
  if (b) { g = a; }
}
void main() {
  int t;
  t = create(w, 41, true);
  join(t);
  assert(g == 41);
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	if err := st.ExecContext(0, 1, ZeroNondet); err != nil {
		t.Fatal(err)
	}
	if err := st.ExecContext(1, fp.Threads[1].Size(), ZeroNondet); err != nil {
		t.Fatal(err)
	}
	if err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet); err != nil {
		t.Fatalf("final: %v", err)
	}
	if st.vals["g"] != 41 {
		t.Fatalf("g = %d", st.vals["g"])
	}
}

func TestNondetInjection(t *testing.T) {
	src := `
int g;
void main() {
  int x;
  x = *;
  g = x;
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	inject := func(thread, block, step int) int64 { return 99 }
	if err := st.ExecContext(0, fp.Threads[0].Size(), inject); err != nil {
		t.Fatal(err)
	}
	if st.vals["g"] != 99 {
		t.Fatalf("g = %d", st.vals["g"])
	}
}

func TestFibonacciExploration(t *testing.T) {
	fp := mustFlat(t, fibSrc, 1)
	// Main blocks: i=1, j=1, create, create, join, join, assert, assert.
	if fp.Threads[0].Size() != 8 {
		t.Fatalf("main size: %d", fp.Threads[0].Size())
	}
	// With 3 contexts the bug is unreachable (needs main,t1,t2,main).
	st := NewState(fp, Options{})
	res, err := Explore(st, ExploreOptions{Contexts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation with 3 contexts: %+v", res.Violation)
	}
	// With 4 contexts the alternation main,t1,t2,main reaches j=3.
	res, err = Explore(st, ExploreOptions{Contexts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("no violation with 4 contexts")
	}
	// The reported schedule must replay to the same violation.
	replay := NewState(fp, Options{})
	rerr := replay.Replay(res.Schedule, ZeroNondet)
	if v, ok := rerr.(*Violation); !ok {
		t.Fatalf("replay: want violation, got %v", rerr)
	} else if v.Src != res.Violation.Src {
		t.Fatalf("replay violation %q != explore violation %q", v.Src, res.Violation.Src)
	}
}

func TestExplorationCountsExecutions(t *testing.T) {
	src := `
int g;
void w() { g = g + 1; }
void main() {
  int t;
  t = create(w);
  g = g + 1;
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	res, err := Explore(st, ExploreOptions{Contexts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions == 0 {
		t.Fatal("no executions counted")
	}
}

func TestExploreNondetBool(t *testing.T) {
	src := `
bool flag;
void main() {
  bool b;
  b = *;
  if (b) {
    flag = true;
  }
  assert(!flag || !b);
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	res, err := Explore(st, ExploreOptions{Contexts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("nondet bool violation not found")
	}
}

func TestExploreNondetIntDomain(t *testing.T) {
	src := `
int g;
void main() {
  int x;
  x = *;
  assume(x >= 0);
  assume(x < 4);
  g = x;
  assert(g != 3);
}
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	// Domain 2 cannot reach x=3.
	res, err := Explore(st, ExploreOptions{Contexts: 2, NondetDomain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal("domain 2 should not reach x=3")
	}
	// Domain 4 finds it.
	res, err = Explore(st, ExploreOptions{Contexts: 2, NondetDomain: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("domain 4 should reach x=3")
	}
}

func TestMaxExecutionsGuard(t *testing.T) {
	fp := mustFlat(t, fibSrc, 1)
	st := NewState(fp, Options{})
	if _, err := Explore(st, ExploreOptions{Contexts: 6, MaxExecutions: 10}); err == nil {
		t.Fatal("expected MaxExecutions error")
	}
}

func TestCloneIsolation(t *testing.T) {
	src := `
int g;
int a[2];
void main() { g = 1; a[0] = 2; }
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	c := st.Clone()
	if err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet); err != nil {
		t.Fatal(err)
	}
	if c.vals["g"] != 0 {
		t.Fatal("clone shares scalar state")
	}
	if c.arrays["a"][0] != 0 {
		t.Fatal("clone shares array state")
	}
	if c.PC(0) != 0 {
		t.Fatal("clone shares pc")
	}
}

func TestSetVarAndAccessors(t *testing.T) {
	src := `
int g;
int a[2];
void main() { assert(g == 7); assert(a[1] == 3); }
`
	fp := mustFlat(t, src, 1)
	st := NewState(fp, Options{})
	st.SetVar("g", 7)
	st.SetArrayElem("a", 1, 3)
	if err := st.ExecContext(0, fp.Threads[0].Size(), ZeroNondet); err != nil {
		t.Fatalf("injected state: %v", err)
	}
	if !st.Active(0) {
		t.Fatal("main inactive")
	}
}

func TestInvalidContextChoices(t *testing.T) {
	fp := mustFlat(t, fibSrc, 1)
	st := NewState(fp, Options{})
	if err := st.ExecContext(-1, 0, ZeroNondet); err != ErrInfeasible {
		t.Fatal("negative thread")
	}
	if err := st.ExecContext(99, 0, ZeroNondet); err != ErrInfeasible {
		t.Fatal("thread out of range")
	}
	if err := st.ExecContext(0, 99, ZeroNondet); err != ErrInfeasible {
		t.Fatal("cs out of range")
	}
	st.pc[0] = 3
	if err := st.ExecContext(0, 1, ZeroNondet); err != ErrInfeasible {
		t.Fatal("cs below pc")
	}
}
