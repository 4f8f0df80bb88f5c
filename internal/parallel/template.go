package parallel

import (
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

// The template is the paper's own economy made literal. Its partitions
// are "the same propositional formula plus a handful of unit
// assumptions", and its solver freezes the partitioning variables
// (Sect. 3.3) so that one formula, simplified once, serves them all. So
// a run loads the formula into one solver, freezes every variable a cube
// of the run can assume, simplifies it once, and gives each cube a
// Clone: a few flat copies in place of a load, and one pass in place of
// one per cube — made, moreover, before any search instead of after
// each cube has searched the un-simplified encoding long enough to pay
// for its own.
//
// Nothing is shared after the fan-out. A cube's search is a function of
// the template and its assumptions, whichever worker runs it, whatever
// ran there before and whenever: its counters are the same under every
// schedule, under Simulate, and re-solved alone out of a journal. That
// is what lets Simulate stay exact, the benchmark hold every counter of
// a partitioned job equal between passes, and a resumed run agree with
// the run it resumes.

// TemplateResult accounts for a run's template solver.
type TemplateResult struct {
	// Time is what the template took before the first cube could start:
	// loading the formula and, where it ran, the simplification pass. It
	// is serial and part of Result.Wall, and of no instance's Time.
	Time time.Duration
	// Stats are the template's own counters, from the load and the pass:
	// Stats.ElimVars and Stats.Simplified are what the pass removed for
	// every cube at once (the cubes' own read zero). A run's only cube is
	// solved on the template itself, and its Stats continue these.
	Stats sat.Stats
	// ClausesIn and ClausesOut are the clauses the template held when
	// loaded and when the cubes were cloned from it; they differ by what
	// the pass did.
	ClausesIn, ClausesOut int
	// Cubes is the number of cubes solved on the template or a clone.
	Cubes int
}

// loadTemplate loads f into the solver a run under opts takes its cubes'
// solvers from. The budget's conflict and memory bounds are the solver's
// own, and every clone's; its wall-clock bound is runCube's timer.
func loadTemplate(f *cnf.Formula, opts *Options) *sat.Solver {
	s := sat.NewFromFormula(f, sat.Options{
		MaxConflicts:  opts.Budget.Conflicts,
		MemBudgetMB:   opts.Budget.MemMB,
		ProgressEvery: opts.ProgressEvery,
	})
	if opts.CertifyUnsat || opts.KeepProofs {
		s.EnableProof()
	}
	return s
}

// freezeCubeVars freezes every variable a cube of the run can assume —
// those of the partitions' assumptions and of the split literals, which
// the children of a split fix — so that the simplification pass leaves
// them to the cubes. All of them, not those of the cubes still to be
// solved: the template of a resumed run is then the first run's.
func freezeCubeVars(s *sat.Solver, parts []partition.Partition, splitLits []cnf.Lit) {
	for _, pt := range parts {
		s.Freeze(pt.Assumptions...)
	}
	s.Freeze(splitLits...)
}

// buildTemplate loads the run's template once replay has queued what is
// left to solve, and decides what the cubes get.
func (r *runner) buildTemplate(parts []partition.Partition) {
	queued := r.sched.Live()
	if queued == 0 || r.ctx.Err() != nil {
		return // no cube will run
	}
	start := time.Now()
	s := loadTemplate(r.f, &r.opts)
	t := &r.res.Template
	t.ClausesIn = s.NumClauses()
	// A run of one cube that cannot be split solves it on the template
	// itself, un-simplified and with nothing frozen beyond what Solve
	// freezes: sat.NewFromFormula + Solve(assumptions) to the counter,
	// which is what a one-partition job is everywhere else (the
	// benchmark's traced pass, a distributed chunk) and what the
	// in-search trigger was tuned on.
	r.own = queued == 1 && !r.splitting
	if !r.own {
		freezeCubeVars(s, parts, r.opts.SplitLits)
	}
	// The one place the up-front pass is decided. It is an a-priori bet:
	// the pass costs about 2 µs per clause whether or not the cubes turn
	// out to need it, and with two or more cubes to serve it replaces as
	// many passes, each made only after 40 propagations per clause on the
	// un-simplified encoding — so the bet is lost only by a run whose
	// cubes together cost less than one pass. Under KeepProofs it is not
	// made: every proof leaves the process self-contained, for a checker
	// that would pay for the pass's tens of thousands of lemmas once per
	// cube on the wire and again in the check, so there each clone keeps
	// its own in-search pass and a proof that is all its own.
	if queued > 1 && !r.opts.KeepProofs {
		// Registered like a cube: cancellation, a memory abort and the
		// "fits the memory budget" rule stop or skip the pass as they
		// would a cube's.
		rc := &cubeRun{}
		r.register(rc, s)
		s.Simplify()
		r.mu.Lock()
		delete(r.running, rc)
		r.mu.Unlock()
	}
	r.template = s
	t.Stats, t.ClausesOut = s.Stats(), s.NumClauses()
	t.Time = time.Since(start)
}
