package parallel

import (
	"context"
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

// Simulate performs the same analysis as Solve but computes the
// parallel wall-clock time deterministically instead of measuring it:
// every partition is solved sequentially (so the measured per-instance
// times are contention-free), and the k-core wall time is obtained by
// event simulation — partitions are assigned in order to the
// earliest-free processor, and the run ends at the earliest finish time
// of a satisfiable instance (first SAT wins, as in Solve) or at the
// makespan when all instances are unsatisfiable.
//
// The simulation is exact for this technique because the solver
// instances do not cooperate (the paper stresses this property: no
// clause exchange, communication only upon termination), so per-instance
// solving times are independent of co-scheduling. What the instances do
// share, the run's template solver, is built before the first of them
// starts and is not touched after: its time (Result.Template.Time) is a
// serial prefix, and every simulated processor is free from there. It is
// the tool used to reproduce the paper's speedup tables on hosts with
// fewer physical cores than the simulated machine — mirroring the
// paper's own protocol, which simulated a 128-core cluster by running
// 8-core chunks one after another and taking the maximum time.
//
// The per-partition verdicts and times come from the same runner as
// Solve (one worker, no first-SAT cancellation); only the schedule is
// simulated here.
func Simulate(ctx context.Context, f *cnf.Formula, parts []partition.Partition, opts Options) (*Result, error) {
	return newTemplate(f, parts, opts, false).Simulate(ctx, parts, opts)
}

// Simulate is Simulate on a template the caller holds.
func (t *Template) Simulate(ctx context.Context, parts []partition.Partition, opts Options) (*Result, error) {
	f := t.formula()
	seq := opts
	seq.Workers = 1
	res, err := t.run(ctx, parts, seq, false)
	if err != nil || ctx.Err() != nil {
		return res, err
	}
	workers := opts.Workers
	if workers <= 0 || workers > len(parts) {
		workers = len(parts)
	}

	// Event simulation: greedy assignment in partition order to the
	// earliest-free processor. The first satisfiable finish wins;
	// otherwise the run ends at the makespan.
	procFree := make([]time.Duration, workers)
	for p := range procFree {
		procFree[p] = res.Template.Time
	}
	res.Wall = res.Template.Time
	best, bestFinish := -1, time.Duration(0)
	for i, inst := range res.Instances {
		p := 0
		for j := 1; j < workers; j++ {
			if procFree[j] < procFree[p] {
				p = j
			}
		}
		procFree[p] += inst.Time
		res.Wall = max(res.Wall, procFree[p])
		if inst.Status == sat.Sat && (best < 0 || procFree[p] < bestFinish) {
			best, bestFinish = i, procFree[p]
		}
	}
	if best < 0 {
		return res, nil
	}
	res.Wall = bestFinish
	if winner := parts[best]; winner.Index != res.Winner {
		// The runner kept the model of the first SAT partition it met
		// sequentially; the simulated winner is another one.
		if res.Model, err = rederive(f, winner, "", nil); err != nil {
			return nil, err
		}
		res.Winner = winner.Index
	}
	return res, nil
}
