// Package bench provides the paper's benchmark programs (Table 1),
// re-modelled in the prog language: Fibonacci (Fig. 2), Boundedbuffer,
// Eliminationstack, Safestack and Workstealingqueue.
//
// The originals are C/pthreads programs from the SV-COMP concurrency
// suite; they rely on pointers, dynamic memory and compare-and-swap
// primitives that the paper's formal language (Fig. 1) does not have.
// Each program is therefore re-modelled to preserve the property that
// matters for the paper's experiments: the concurrency structure (thread
// counts, lock/CAS patterns, where the races live) and the bound profile
// (a bug that becomes reachable only at sufficiently large unwind and
// context bounds, or no reachable bug at all so that the solver must
// perform an exhaustive UNSAT search). Every substitution is documented
// on the factory function, and the expected verdict grid is pinned by
// the package tests.
package bench

import (
	"fmt"

	"repro/prog"
)

// Benchmark bundles a program with its Table 1 metadata.
type Benchmark struct {
	// Name is the paper's program name.
	Name string
	// Program is the re-modelled source.
	Program *prog.Program
	// Threads is the static thread count (including main).
	Threads int
	// Lines is the source line count of the re-modelled program.
	Lines int
	// BugUnwind and BugContexts are the smallest bounds at which the
	// re-modelled bug is reachable: UNSAFE there, SAFE one context below
	// (TestBugBounds). BugContexts 0 means the bound is not established:
	// no context bound tried at BugUnwind reaches the bug.
	BugUnwind, BugContexts int
}

// All returns the four Table 1 benchmarks in paper order.
func All() []Benchmark {
	return []Benchmark{
		BoundedbufferBench(),
		EliminationstackBench(),
		SafestackBench(),
		WorkstealingqueueBench(),
	}
}

func mustParse(name, src string) *prog.Program {
	p, err := prog.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", name, err))
	}
	p.Name = name
	return p
}

func countLines(src string) int {
	n := 1
	for _, c := range src {
		if c == '\n' {
			n++
		}
	}
	return n
}

// Fibonacci returns the program of Fig. 2 with the given iteration count
// n: two threads repeatedly add the shared variables i and j into each
// other; the final assertions bound both by fib(2n+2), which only the
// perfectly alternating schedule reaches.
func Fibonacci(n int) *prog.Program {
	fib := []int64{1, 1}
	for len(fib) < 2*n+2 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	max := fib[2*n+1] // fib(2n+2), 1-indexed
	src := fmt.Sprintf(`
int i, j;

void t1() {
  int k = 0;
  while (k < %[1]d) {
    i = i + j;
    k = k + 1;
  }
}

void t2() {
  int k = 0;
  while (k < %[1]d) {
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
  assert(j < %[2]d);
  assert(i < %[2]d);
}
`, n, max)
	return mustParse(fmt.Sprintf("fibonacci-%d", n), src)
}
