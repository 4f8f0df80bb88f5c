package bench

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/prog"
)

// fibonacciBench wraps Fibonacci(n) with its bug bounds.
func fibonacciBench(n int) Benchmark {
	p := Fibonacci(n)
	return Benchmark{
		Name:        p.Name,
		Program:     p,
		Threads:     3,
		Lines:       countLines(prog.Format(p)),
		BugUnwind:   n,
		BugContexts: 2*n + 2,
	}
}

func verdict(t *testing.T, b Benchmark, u, c, cores int) core.Verdict {
	t.Helper()
	res, err := core.Verify(context.Background(), b.Program, core.Options{
		Unwind: u, Contexts: c, Cores: cores,
	})
	if err != nil {
		t.Fatalf("%s u=%d c=%d: %v", b.Name, u, c, err)
	}
	if res.Verdict == core.Unsafe && res.Violation == nil {
		t.Fatalf("%s u=%d c=%d: unsafe verdict without validated violation", b.Name, u, c)
	}
	return res.Verdict
}

func TestAllMetadata(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("benchmarks: %d", len(all))
	}
	names := map[string]bool{}
	for _, b := range all {
		if b.Program == nil || b.Program.Main() == nil {
			t.Fatalf("%s: bad program", b.Name)
		}
		if b.Lines < 20 {
			t.Fatalf("%s: implausible line count %d", b.Name, b.Lines)
		}
		if b.Threads < 3 {
			t.Fatalf("%s: thread count %d", b.Name, b.Threads)
		}
		if names[b.Name] {
			t.Fatalf("duplicate name %s", b.Name)
		}
		names[b.Name] = true
	}
}

func TestFibonacciBounds(t *testing.T) {
	b := fibonacciBench(1)
	if got := verdict(t, b, 1, 3, 1); got != core.Safe {
		t.Fatalf("fib(1) c=3: %v", got)
	}
	if got := verdict(t, b, 1, 4, 1); got != core.Unsafe {
		t.Fatalf("fib(1) c=4: %v", got)
	}
}

func TestFibonacci2(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	b := fibonacciBench(2)
	if got := verdict(t, b, 2, 5, 2); got != core.Safe {
		t.Fatalf("fib(2) c=5: %v", got)
	}
	if got := verdict(t, b, 2, 6, 2); got != core.Unsafe {
		t.Fatalf("fib(2) c=6: %v", got)
	}
}

func TestBoundedbufferBounds(t *testing.T) {
	b := BoundedbufferBench()
	// u=1 cannot exit the loops: trivially safe.
	if got := verdict(t, b, 1, 6, 2); got != core.Safe {
		t.Fatalf("u=1 c=6: %v", got)
	}
	if got := verdict(t, b, 2, 5, 2); got != core.Safe {
		t.Fatalf("u=2 c=5: %v", got)
	}
	if got := verdict(t, b, 2, 6, 2); got != core.Unsafe {
		t.Fatalf("u=2 c=6: %v", got)
	}
}

func TestWorkstealingqueueBounds(t *testing.T) {
	b := WorkstealingqueueBench()
	if got := verdict(t, b, 2, 6, 2); got != core.Safe {
		t.Fatalf("u=2 c=6: %v", got)
	}
	if got := verdict(t, b, 2, 7, 2); got != core.Unsafe {
		t.Fatalf("u=2 c=7: %v", got)
	}
}

func TestEliminationstackSafeWithinBounds(t *testing.T) {
	b := EliminationstackBench()
	if got := verdict(t, b, 2, 4, 2); got != core.Safe {
		t.Fatalf("u=2 c=4: %v", got)
	}
}

func TestSafestackSafeWithinBounds(t *testing.T) {
	b := SafestackBench()
	if got := verdict(t, b, 2, 4, 2); got != core.Safe {
		t.Fatalf("u=2 c=4: %v", got)
	}
}

func TestEliminationstackDeeper(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	b := EliminationstackBench()
	if got := verdict(t, b, 2, 5, 4); got != core.Safe {
		t.Fatalf("u=2 c=5: %v", got)
	}
}

func TestSafestackDeeper(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	b := SafestackBench()
	if got := verdict(t, b, 2, 5, 4); got != core.Safe {
		t.Fatalf("u=2 c=5: %v", got)
	}
}

// The bounds Table 1 prints are what the verifier says: at (BugUnwind,
// BugContexts) the bug is reachable, one context below it is not. For
// every benchmark whose bound is established and whose two cells solve
// in about a second; of safestack, whose SAFE cell one below takes half
// a million conflicts, the UNSAFE one.
func TestBugBounds(t *testing.T) {
	for _, tc := range []struct {
		b     Benchmark
		below bool // check the SAFE cell one context below too
		long  bool
	}{
		{BoundedbufferBench(), true, false},
		{WorkstealingqueueBench(), true, false},
		{fibonacciBench(2), true, false},
		{SafestackBench(), false, true},
		{EliminationstackBench(), false, false},
	} {
		b := tc.b
		t.Run(b.Name, func(t *testing.T) {
			if b.BugContexts == 0 {
				if b.Name != "eliminationstack" {
					t.Fatal("no bound established")
				}
				return // printed as "-": nothing is claimed
			}
			if tc.long && testing.Short() {
				t.Skip("seconds of search")
			}
			if got := verdict(t, b, b.BugUnwind, b.BugContexts, 2); got != core.Unsafe {
				t.Errorf("u=%d c=%d: %v, want the bug reached", b.BugUnwind, b.BugContexts, got)
			}
			if tc.below {
				if got := verdict(t, b, b.BugUnwind, b.BugContexts-1, 2); got != core.Safe {
					t.Errorf("u=%d c=%d: %v, want the bug out of reach one context below", b.BugUnwind, b.BugContexts-1, got)
				}
			}
		})
	}
}
