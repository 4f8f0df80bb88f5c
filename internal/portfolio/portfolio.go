// Package portfolio implements the general-purpose parallel SAT solver
// baselines of the paper's Sect. 4.2: all instances work on the whole
// formula (no trace-space partitioning) and differ only in
// diversification and clause exchange.
//
//   - StyleSharing mirrors Syrup [Audemard & Simon, SAT'14]: a portfolio
//     of diversified CDCL instances that lazily exchange learnt clauses
//     of low literal-block distance through a shared pool.
//   - StyleDiverse mirrors Plingeling [Biere, SC'18]: a diversified
//     portfolio that shares only unit clauses.
//
// These baselines exist to reproduce Tables 3 and 4: structure-aware
// partitioning (package parallel) against structure-agnostic parallel
// solving of the very same formulae.
package portfolio

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/sat"
)

// Style selects the baseline solver architecture.
type Style int

const (
	// StyleSharing exchanges low-LBD learnt clauses (Syrup-like).
	StyleSharing Style = iota
	// StyleDiverse shares unit clauses only (Plingeling-like).
	StyleDiverse
)

func (s Style) String() string {
	if s == StyleSharing {
		return "sharing"
	}
	return "diverse"
}

// Options configures the portfolio.
type Options struct {
	// Cores is the number of solver instances (default 1).
	Cores int
	// Style selects the architecture.
	Style Style
	// MaxSharedLBD bounds the literal-block distance of exchanged
	// clauses in StyleSharing (default 4).
	MaxSharedLBD int
	// Budget bounds each instance: an instance over it ends Unknown with
	// the exhausted budget in Result.Causes. Because all instances race
	// on the same formula, the portfolio verdict is Unknown only if every
	// instance exhausts its budget or is cancelled.
	Budget journal.Budget
	// Progress, when non-nil and ProgressEvery > 0, receives live
	// search statistics for an instance every ProgressEvery conflicts,
	// invoked from that instance's solver goroutine. The snapshot's
	// Stats.Progress field carries the instance's live search-progress
	// estimate (sat.Solver.ProgressEstimate).
	Progress func(instance int, st sat.Stats)
	// ProgressEvery is the conflict cadence of Progress callbacks.
	ProgressEvery int64
}

// Result is the portfolio outcome.
type Result struct {
	// Status is the verdict of the first instance to finish.
	Status sat.Status
	// Model is the satisfying assignment (Status == Sat).
	Model []bool
	// Winner is the index of the instance that finished first (-1 on
	// cancellation).
	Winner int
	// Wall is the overall wall-clock time.
	Wall time.Duration
	// Shared counts clauses exported to the exchange pool.
	Shared int64
	// Stats are the per-instance search statistics.
	Stats []sat.Stats
	// Causes classifies each instance's Unknown outcome (cancelled,
	// timeout, conflict-budget, memory; CauseNone for a definite
	// verdict), so a fully Unknown portfolio run names the exhausted
	// budget.
	Causes []sat.StopCause
}

// pool is the lazy clause-exchange buffer: writers append, readers drain
// what accumulated since their last import (Syrup's lazy policy: no
// blocking, exchange happens at restarts).
type pool struct {
	mu      sync.Mutex
	clauses [][]cnf.Lit
	exports int64
}

func (p *pool) export(lits []cnf.Lit) {
	p.mu.Lock()
	p.clauses = append(p.clauses, lits)
	p.exports++
	p.mu.Unlock()
}

// drain returns the clauses added after position from, and the new
// position.
func (p *pool) drain(from int) ([][]cnf.Lit, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from >= len(p.clauses) {
		return nil, from
	}
	out := p.clauses[from:]
	return out, len(p.clauses)
}

// diversify derives per-instance solver options: distinct seeds, varied
// decay, polarity and restart behaviour, as portfolio solvers do.
func diversify(base sat.Options, i int, style Style) sat.Options {
	o := base
	o.Seed = uint64(i)*0x9e3779b9 + 1
	switch i % 4 {
	case 0:
		// Reference configuration.
	case 1:
		o.InitialPolarity = true
		o.VarDecay = 0.85
	case 2:
		o.RandomizeFreq = 0.02
		o.RestartBase = 50
	case 3:
		o.NoPhaseSaving = true
		o.VarDecay = 0.99
	}
	if style == StyleDiverse && i%2 == 1 {
		o.RestartBase = 200
	}
	return o
}

// Solve runs the portfolio on the whole formula. The first instance to
// reach a definite verdict wins (the formula is the same for all, so any
// verdict is authoritative) and the remaining instances are interrupted.
func Solve(ctx context.Context, f *cnf.Formula, opts Options) (*Result, error) {
	cores := opts.Cores
	if cores < 1 {
		cores = 1
	}
	maxLBD := opts.MaxSharedLBD
	if maxLBD == 0 {
		maxLBD = 4
	}
	if opts.Style == StyleDiverse {
		maxLBD = 1 // unit-ish clauses only (LBD 1 = single decision level)
	}

	start := time.Now()
	res := &Result{
		Status: sat.Unknown, Winner: -1,
		Stats:  make([]sat.Stats, cores),
		Causes: make([]sat.StopCause, cores),
	}
	sharedPool := &pool{}

	var mu sync.Mutex
	var wg sync.WaitGroup
	solvers := make([]*sat.Solver, cores)

	solveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-solveCtx.Done()
		mu.Lock()
		for _, s := range solvers {
			if s != nil {
				s.Interrupt()
			}
		}
		mu.Unlock()
	}()

	for i := 0; i < cores; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sOpts := diversify(sat.Options{
				MaxConflicts:  opts.Budget.Conflicts,
				MemBudgetMB:   opts.Budget.MemMB,
				ProgressEvery: opts.ProgressEvery,
			}, i, opts.Style)
			s := sat.NewFromFormula(f, sOpts)
			if opts.Progress != nil && opts.ProgressEvery > 0 {
				s.Progress = func(st sat.Stats) { opts.Progress(i, st) }
			}
			pos := 0
			s.ShareMaxLBD = maxLBD
			s.ShareLearnt = func(lits []cnf.Lit, lbd int) {
				sharedPool.export(lits)
			}
			s.Import = func() [][]cnf.Lit {
				var out [][]cnf.Lit
				out, pos = sharedPool.drain(pos)
				return out
			}
			mu.Lock()
			solvers[i] = s
			mu.Unlock()

			// Wall-clock budget: a timer interrupt distinguishable from
			// cancellation (sibling won, context done) by the flag.
			var timedOut atomic.Bool
			if opts.Budget.Timeout > 0 {
				timer := time.AfterFunc(opts.Budget.Timeout, func() {
					timedOut.Store(true)
					s.Interrupt()
				})
				defer timer.Stop()
			}

			status, err := s.Solve()
			status, cause := sat.Classify(status, err, timedOut.Load(), solveCtx.Err() != nil)
			mu.Lock()
			res.Stats[i] = s.Stats()
			res.Causes[i] = cause
			if status != sat.Unknown && res.Status == sat.Unknown {
				res.Status = status
				res.Winner = i
				if status == sat.Sat {
					res.Model = s.Model()
				}
				mu.Unlock()
				cancel()
				return
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Shared = sharedPool.exports
	return res, nil
}
