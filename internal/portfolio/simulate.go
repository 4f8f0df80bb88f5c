package portfolio

import (
	"context"
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// Simulate computes the portfolio's k-core wall time deterministically
// on hosts without k physical cores: each diversified instance is run
// sequentially to completion on the whole formula, and since every
// instance alone is authoritative (they all solve the same formula), the
// simulated parallel wall time is the minimum instance time.
//
// Clause exchange is disabled in the simulation: running the instances
// one after another while sharing a clause pool would be non-causal
// (a later instance would import everything an earlier one learnt over
// its entire run, not just the prefix that would have overlapped in
// real time, and refute instantly). The simulated baseline is therefore
// the cooperation-free diversified portfolio; the cooperating variants
// remain available through Solve for genuinely parallel hosts.
func Simulate(ctx context.Context, f *cnf.Formula, opts Options) (*Result, error) {
	cores := opts.Cores
	if cores < 1 {
		cores = 1
	}
	res := &Result{Status: sat.Unknown, Winner: -1, Stats: make([]sat.Stats, cores)}
	best := time.Duration(-1)

	for i := 0; i < cores; i++ {
		if err := ctx.Err(); err != nil {
			return res, nil
		}
		sOpts := diversify(sat.Options{ProgressEvery: opts.ProgressEvery}, i, opts.Style)
		s := sat.NewFromFormula(f, sOpts)
		if opts.Progress != nil && opts.ProgressEvery > 0 {
			i := i
			s.Progress = func(st sat.Stats) { opts.Progress(i, st) }
		}
		t0 := time.Now()
		status, err := s.Solve()
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		res.Stats[i] = s.Stats()
		if status != sat.Unknown && (best < 0 || el < best) {
			best = el
			res.Status = status
			res.Winner = i
			if status == sat.Sat {
				res.Model = s.Model()
			}
		}
	}
	res.Wall = best
	return res, nil
}
