package sampler

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/flatten"
	"repro/internal/interp"
	"repro/internal/unfold"
	"repro/prog"
)

func flat(t *testing.T, p *prog.Program, u int) *flatten.Program {
	t.Helper()
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

func TestSamplerFindsShallowBug(t *testing.T) {
	fp := flat(t, bench.Fibonacci(1), 1)
	res, err := Sample(context.Background(), fp, Options{
		Contexts: 4, MaxExecutions: 50000, Workers: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("sampler missed the Fibonacci alternation bug")
	}
	// The reported schedule must replay to a real violation.
	replay := interp.NewState(fp, interp.Options{})
	rerr := replay.Replay(res.Schedule, interp.ZeroNondet)
	if _, ok := rerr.(*interp.Violation); !ok {
		t.Fatalf("schedule does not replay: %v", rerr)
	}
}

func TestSamplerFindsRaceBug(t *testing.T) {
	fp := flat(t, bench.Workstealingqueue(), 2)
	res, err := Sample(context.Background(), fp, Options{
		Contexts: 7, MaxExecutions: 200000, Workers: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("sampler missed the work-stealing race in %d executions", res.Executions)
	}
}

// Whether a run finds the bug is a function of (Seed, Workers,
// MaxExecutions), not of how the goroutine scheduler interleaves the
// workers. With seed 2 the Fibonacci bug is first hit by worker 0's
// stream at its 649th execution and by worker 1's at its 48th, so two
// workers find it exactly when worker 1's share reaches 48 — whatever
// GOMAXPROCS is, and on every repetition. (Under a shared budget counter
// the 96-execution run depended on worker 1 winning half the races.)
func TestSamplerOutcomeIsDeterministic(t *testing.T) {
	fp := flat(t, bench.Fibonacci(1), 1)
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			budget int64
			found  bool
		}{
			{94, false}, // shares 47 + 47
			{95, false}, // shares 48 + 47: the remainder goes to worker 0
			{96, true},  // shares 48 + 48
		} {
			for rep := 0; rep < 10; rep++ {
				res, err := Sample(context.Background(), fp, Options{
					Contexts: 4, MaxExecutions: c.budget, Workers: 2, Seed: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if found := res.Violation != nil; found != c.found {
					t.Fatalf("GOMAXPROCS %d, budget %d, repetition %d: found %v, want %v", procs, c.budget, rep, found, c.found)
				}
				if !c.found && res.Executions != c.budget {
					t.Fatalf("GOMAXPROCS %d, budget %d: %d executions, want the whole budget", procs, c.budget, res.Executions)
				}
			}
		}
	}
}

func TestSamplerRespectsBudget(t *testing.T) {
	// Safestack is safe at this bound: the sampler must exhaust its
	// budget without a violation (and without any guarantee).
	fp := flat(t, bench.Safestack(), 2)
	res, err := Sample(context.Background(), fp, Options{
		Contexts: 5, MaxExecutions: 2000, Workers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation below the bug depth: %v", res.Violation)
	}
	if res.Executions != 2000 {
		t.Fatalf("executions: %d", res.Executions)
	}
}

func TestSamplerCancellation(t *testing.T) {
	fp := flat(t, bench.Safestack(), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Sample(ctx, fp, Options{Contexts: 5, MaxExecutions: 1 << 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal("violation on cancelled run")
	}
}

func TestSamplerNondet(t *testing.T) {
	p := prog.MustParse(`
int g;
void main() {
  int x;
  x = *;
  assume(x >= 0);
  assume(x < 4);
  g = x;
  assert(g != 3);
}
`)
	fp := flat(t, p, 1)
	res, err := Sample(context.Background(), fp, Options{
		Contexts: 1, MaxExecutions: 10000, Workers: 1, Seed: 5, NondetDomain: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("sampler missed the nondet witness x=3")
	}
}
