// Package sampler implements randomized schedule sampling, the
// parallel bug-finding approach the paper discusses as orthogonal
// related work (Sect. 5: randomized priority-based scheduling
// [Burckhardt et al.], parallel bug finding via reduced interleaving
// instances [Nguyen et al.]): many workers execute the program
// concretely under random schedules and random inputs, reporting the
// first assertion violation.
//
// Unlike the paper's partitioned BMC, sampling offers no verification
// guarantee — a run without violations says nothing about safety — but
// it can stumble on bugs quickly when many schedules expose them. The
// experiments contrast the two on the benchmark suite.
package sampler

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flatten"
	"repro/internal/interp"
)

// Options configures a sampling run.
type Options struct {
	// Contexts is the context bound per execution.
	Contexts int
	// Width is the integer bit width (default 8).
	Width int
	// MaxExecutions is the total execution budget (default 10000),
	// divided evenly among the workers (the remainder goes to the lowest
	// indices).
	MaxExecutions int64
	// Workers is the number of concurrent samplers (default 1).
	Workers int
	// Seed seeds the schedule generators, one stream per worker. Whether
	// a violation is found is a function of (Seed, Workers,
	// MaxExecutions): each worker walks a fixed prefix of its own stream,
	// however the goroutines are scheduled.
	Seed int64
	// NondetDomain bounds random values for non-deterministic
	// assignments (default 8; Booleans use 2).
	NondetDomain int64
}

// Result reports a sampling run.
type Result struct {
	// Violation is the first assertion failure found, if any.
	Violation *interp.Violation
	// Schedule reproduces it (valid when Violation != nil).
	Schedule []interp.ContextChoice
	// Executions is the number of schedules executed (complete or
	// pruned).
	Executions int64
	// Infeasible counts pruned (blocked/assume-failed) schedules.
	Infeasible int64
	// Wall is the elapsed time.
	Wall time.Duration
}

// Sample runs randomized schedule exploration on a flattened program.
func Sample(ctx context.Context, fp *flatten.Program, opts Options) (*Result, error) {
	if opts.Contexts < 1 {
		opts.Contexts = 1
	}
	if opts.MaxExecutions == 0 {
		opts.MaxExecutions = 10000
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.NondetDomain == 0 {
		opts.NondetDomain = 8
	}

	start := time.Now()
	res := &Result{}
	var executions, infeasible atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := make(chan struct{})
	var closeOnce sync.Once

	for wk := 0; wk < opts.Workers; wk++ {
		wk := wk
		// A fixed share each, not a race for one shared counter: a bug only
		// worker k's stream reaches must not hinge on how much of the
		// budget the scheduler lets worker k take.
		share := opts.MaxExecutions / int64(opts.Workers)
		if int64(wk) < opts.MaxExecutions%int64(opts.Workers) {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(wk)*7919 + 1))
			for ; share > 0; share-- {
				select {
				case <-done:
					return
				case <-ctx.Done():
					return
				default:
				}
				executions.Add(1)
				viol, schedule, pruned := runRandomSchedule(fp, opts, rng)
				if pruned {
					infeasible.Add(1)
				}
				if viol == nil {
					continue
				}
				mu.Lock()
				if res.Violation == nil {
					res.Violation = viol
					res.Schedule = schedule
				}
				mu.Unlock()
				closeOnce.Do(func() { close(done) })
				return
			}
		}()
	}
	wg.Wait()
	res.Executions = executions.Load()
	res.Infeasible = infeasible.Load()
	res.Wall = time.Since(start)
	return res, nil
}

// runRandomSchedule executes one random interleaving; it returns the
// violation if the schedule reaches one, and whether the schedule was
// pruned as infeasible.
func runRandomSchedule(fp *flatten.Program, opts Options, rng *rand.Rand) (*interp.Violation, []interp.ContextChoice, bool) {
	st := interp.NewState(fp, interp.Options{Width: opts.Width})
	nondet := func(thread, block, step int) int64 {
		return rng.Int63n(opts.NondetDomain)
	}
	var schedule []interp.ContextChoice
	for c := 0; c < opts.Contexts; c++ {
		if st.AllTerminated() {
			break
		}
		var t int
		if c == 0 {
			t = 0
		} else {
			// Pick among active threads.
			var active []int
			for i := 0; i < len(fp.Threads); i++ {
				if st.Active(i) && !st.Terminated(i) {
					active = append(active, i)
				}
			}
			if len(active) == 0 {
				break
			}
			t = active[rng.Intn(len(active))]
		}
		span := len(fp.Threads[t].Blocks) - st.PC(t)
		cs := st.PC(t) + rng.Intn(span+1)
		err := st.ExecContext(t, cs, nondet)
		schedule = append(schedule, interp.ContextChoice{Thread: t, Cs: cs})
		if v, ok := err.(*interp.Violation); ok {
			return v, schedule, false
		}
		if err != nil {
			return nil, nil, true // infeasible: abandon this schedule
		}
	}
	return nil, nil, false
}
