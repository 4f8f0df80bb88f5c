// Package repro is a from-scratch Go reproduction of "Parallel and
// Distributed Bounded Model Checking of Multi-threaded Programs"
// (Inverso & Trubiani, PPoPP 2020): SAT-based bounded model checking of
// multi-threaded programs via lazy sequentialization, parallelised by
// symbolic partitioning of the interleaving space.
//
// The public API is this facade plus the prog package (the multi-threaded
// input language). A verification run takes a program, an unwinding
// bound, a context bound, and a core count; it decomposes the set of
// concurrent traces into 2^p symbolic partitions solved by independent
// CDCL instances, terminating as soon as one finds a counterexample:
//
//	p, _ := prog.Parse(src)
//	res, _ := repro.Verify(context.Background(), p, repro.Options{
//		Unwind: 2, Contexts: 5, Cores: 8,
//	})
//	fmt.Println(res.Verdict, res.Counterexample)
//
// Everything underneath — the language front end, program unfolding,
// sequentialization schedulers, bit-blasting, the CDCL SAT solver, the
// partitioning, and the parallel/distributed runners — is implemented in
// this module with no dependencies beyond the Go standard library.
package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/prog"
)

// Options configures a verification run.
type Options struct {
	// Unwind is the loop/recursion unwinding bound (default 1).
	Unwind int
	// Contexts is the number of execution contexts explored (default 1).
	Contexts int
	// Rounds, if > 0, selects the original round-robin sequentialization
	// with that round bound instead of context bounding.
	Rounds int
	// Width is the bit width of the int type (default 8).
	Width int
	// Cores is the number of concurrently running solver instances
	// (default 1).
	Cores int
	// Partitions overrides the trace-space partition count (a power of
	// two; default: Cores rounded up to a power of two).
	Partitions int
	// From/To restrict the run to the half-open partition range
	// [From, To) for distribution across machines; zero values mean all.
	From, To int
	// CertifyUnsat checks a clausal refutation proof for every UNSAT
	// partition, certifying Safe verdicts independently of the search.
	CertifyUnsat bool
}

// Step is one scheduler decision of a counterexample: thread Thread runs
// up to context-switch point Cs.
type Step struct {
	// Thread is the static thread index (0 = main).
	Thread int
	// Proc is the thread's source procedure name.
	Proc string
	// Cs is the context-switch point (block index) reached.
	Cs int
}

// Result reports a verification outcome.
type Result struct {
	// Verdict is "SAFE", "UNSAFE", or "UNKNOWN".
	Verdict string
	// Counterexample describes the failed assertion (UNSAFE only).
	Counterexample string
	// Schedule is the interleaving exposing the bug (UNSAFE only).
	Schedule []Step
	// Vars and Clauses give the propositional formula size.
	Vars, Clauses int
	// Threads is the number of static thread instances analysed.
	Threads int
	// Partitions is the number of trace-space partitions analysed.
	Partitions int
	// Winner is the partition in which the bug was found (-1 if none).
	Winner int
	// Certified reports that a Safe verdict carried checked refutation
	// proofs for every partition (CertifyUnsat only).
	Certified bool
	// EncodeTime and SolveTime split the analysis cost.
	EncodeTime, SolveTime time.Duration
}

// Safe reports whether the program was proved safe within the bounds.
func (r *Result) Safe() bool { return r.Verdict == "SAFE" }

// Unsafe reports whether a reachable violation was found.
func (r *Result) Unsafe() bool { return r.Verdict == "UNSAFE" }

// Verify analyses a checked program within the given bounds.
func Verify(ctx context.Context, p *prog.Program, opts Options) (*Result, error) {
	res, err := core.Verify(ctx, p, core.Options{
		Unwind:       opts.Unwind,
		Contexts:     opts.Contexts,
		Rounds:       opts.Rounds,
		Width:        opts.Width,
		Cores:        opts.Cores,
		Partitions:   opts.Partitions,
		From:         opts.From,
		To:           opts.To,
		CertifyUnsat: opts.CertifyUnsat,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Verdict:    res.Verdict.String(),
		Certified:  res.Certified,
		Vars:       res.Vars,
		Clauses:    res.Clauses,
		Threads:    res.Threads,
		Partitions: res.Partitions,
		Winner:     res.Winner,
		EncodeTime: res.EncodeTime,
		SolveTime:  res.SolveTime,
	}
	if res.Violation != nil {
		out.Counterexample = res.Violation.Error()
	}
	if res.Trace != nil {
		for _, c := range res.Trace.Schedule {
			st := Step{Thread: c.Thread, Cs: c.Cs}
			if c.Thread >= 0 && c.Thread < len(res.ThreadProcs) {
				st.Proc = res.ThreadProcs[c.Thread]
			} else {
				st.Proc = fmt.Sprintf("thread-%d", c.Thread)
			}
			out.Schedule = append(out.Schedule, st)
		}
	}
	return out, nil
}

// VerifySource parses, checks, and verifies a program given as source
// text in the paper's C-like language.
func VerifySource(ctx context.Context, src string, opts Options) (*Result, error) {
	p, err := prog.Parse(src)
	if err != nil {
		return nil, err
	}
	return Verify(ctx, p, opts)
}
