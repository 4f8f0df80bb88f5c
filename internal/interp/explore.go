package interp

import (
	"fmt"
)

// ExploreOptions configures the exhaustive context-bounded explorer.
type ExploreOptions struct {
	// Contexts is the context bound (number of execution contexts).
	Contexts int
	// NondetDomain is the number of values enumerated for each
	// non-deterministic integer assignment (0..NondetDomain-1); Booleans
	// always enumerate {0,1}. Default 2. Ground truth is exact only for
	// programs whose behaviour does not depend on values outside the
	// domain.
	NondetDomain int64
	// MaxExecutions caps the number of explored executions (0 =
	// unbounded); exceeded exploration returns an error.
	MaxExecutions int64
}

// ExploreResult is the verdict of an exhaustive exploration.
type ExploreResult struct {
	// Violation is the first reachable assertion failure, if any.
	Violation *Violation
	// Schedule reproduces the violation (valid when Violation != nil).
	Schedule []ContextChoice
	// Executions is the number of complete interleavings enumerated.
	Executions int64
	// Infeasible is the number of pruned interleavings.
	Infeasible int64
}

// Explore enumerates every context-bounded execution of the flattened
// program (thread choice, context-switch point, and non-deterministic
// values all enumerated exhaustively via a choice tape) and reports
// whether an assertion violation is reachable. The first context is
// pinned to the main thread, matching the encoder (Sect. 3.3).
func Explore(st0 *State, opts ExploreOptions) (*ExploreResult, error) {
	if opts.Contexts < 1 {
		return nil, fmt.Errorf("interp: context bound must be >= 1")
	}
	if opts.NondetDomain == 0 {
		opts.NondetDomain = 2
	}
	res := &ExploreResult{}
	tape := &tape{}
	for {
		st := st0.Clone()
		violation, schedule := runOnce(st, opts, tape, res)
		if violation != nil {
			res.Violation = violation
			res.Schedule = schedule
			return res, nil
		}
		if !tape.next() {
			return res, nil
		}
		if opts.MaxExecutions > 0 && res.Executions+res.Infeasible > opts.MaxExecutions {
			return nil, fmt.Errorf("interp: exploration exceeded %d executions", opts.MaxExecutions)
		}
	}
}

// runOnce executes one interleaving driven by the tape.
func runOnce(st *State, opts ExploreOptions, tp *tape, res *ExploreResult) (*Violation, []ContextChoice) {
	nthreads := len(st.p.Threads)
	var schedule []ContextChoice
	nondet := func(thread, block, step int) int64 {
		// Boolean nondets are detected by the assigned variable's type in
		// the caller; here we enumerate the integer domain. Booleans use
		// the same domain truncated to {0,1} by wrap-and-test semantics,
		// so a domain >= 2 is exact for them.
		return int64(tp.choose(int(opts.NondetDomain)))
	}
	for c := 0; c < opts.Contexts; c++ {
		if st.AllTerminated() {
			break
		}
		var t int
		if c == 0 {
			t = 0 // first context is the main thread
		} else {
			t = tp.choose(nthreads)
		}
		if !st.act[t] {
			res.Infeasible++
			return nil, nil
		}
		size := len(st.p.Threads[t].Blocks)
		span := size - st.pc[t] // possible cs values: pc..size
		cs := st.pc[t] + tp.choose(span+1)
		err := st.ExecContext(t, cs, nondet)
		schedule = append(schedule, ContextChoice{Thread: t, Cs: cs})
		if v, ok := err.(*Violation); ok {
			return v, schedule
		}
		if err != nil {
			res.Infeasible++
			return nil, nil
		}
	}
	res.Executions++
	return nil, nil
}

// tape enumerates sequences of bounded choices (depth-first). Each run
// consumes choices left to right; next() advances to the lexicographically
// next sequence, returning false when the space is exhausted.
type tape struct {
	choices []int
	limits  []int
	pos     int
}

func (t *tape) choose(n int) int {
	if n <= 0 {
		n = 1
	}
	if t.pos < len(t.choices) {
		c := t.choices[t.pos]
		// The limit can shrink between runs if earlier choices changed
		// the reachable state; clamp defensively.
		if c >= n {
			c = n - 1
			t.choices[t.pos] = c
			t.limits[t.pos] = n
			t.choices = t.choices[:t.pos+1]
			t.limits = t.limits[:t.pos+1]
		} else {
			t.limits[t.pos] = n
		}
		t.pos++
		return c
	}
	t.choices = append(t.choices, 0)
	t.limits = append(t.limits, n)
	t.pos++
	return 0
}

// next advances to the next choice sequence; it returns false when all
// sequences have been enumerated.
func (t *tape) next() bool {
	t.pos = 0
	for i := len(t.choices) - 1; i >= 0; i-- {
		if t.choices[i]+1 < t.limits[i] {
			t.choices[i]++
			t.choices = t.choices[:i+1]
			t.limits = t.limits[:i+1]
			return true
		}
	}
	return false
}
