// Package parallel runs independent SAT solver instances over the
// partitioned sub-formulae (Sect. 3.3/3.4): one decision procedure per
// partition, no cooperation, first satisfiable assignment wins and
// terminates the others; if every instance reports unsatisfiable, the
// program is safe within the bounds.
//
// There is one runner (runner.go), the goroutine executor of the cube
// scheduler it shares with the TCP coordinator (partition.Scheduler):
// Options.Workers goroutines acquire cubes — a partition, optionally
// refined by a path of extra split-bit polarities — solve them and claim
// the verdicts. The paper's static scheme is the queue seeded with one
// whole-partition cube each and never split (Split.Depth = 0); adaptive
// splitting lets an idle worker halve a straggler; Simulate is the same
// runner with one worker and no first-SAT cancellation, plus an event
// simulation of the k-core schedule.
//
// The instances are independent but not built independently: the
// formula is loaded once into a template solver (template.go), with
// every variable a cube can assume frozen, simplified once when there
// are several cubes to serve, and each cube's solver is a clone of it.
// Nothing is shared after that, so a cube's search — and every counter
// of it — depends on the formula and the cube alone, not on the
// schedule.
//
// Two robustness layers ride on top of the paper's scheme:
//
//   - A per-cube resource budget (Options.Budget) bounds every
//     instance's wall clock, conflict count and memory, so a poison
//     partition degrades to Unknown — with the exhausted budget recorded
//     in InstanceResult.Cause — instead of hanging the run.
//   - A crash-safe journal (Options.Journal) commits every definite and
//     budget-exhausted verdict and every cube split; a restarted run
//     with the same manifest replays the committed cube tree and
//     re-solves only the rest (the scheduler's ledger, partition.Resume
//     and Commit, decides what either means).
package parallel

import (
	"context"
	"time"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

// InstanceResult records one solver instance's outcome.
type InstanceResult struct {
	// Partition is the partition index solved.
	Partition int
	// Status is the instance verdict (Unknown if cancelled).
	Status sat.Status
	// Cause classifies an Unknown status: cancelled (context done or a
	// sibling won), timeout, conflict-budget or memory (that part of
	// Options.Budget exhausted; memory also when the external MemAbort
	// watchdog fired). CauseNone for definite verdicts.
	Cause sat.StopCause
	// Resumed marks a verdict replayed from the journal rather than
	// solved in this run.
	Resumed bool
	// Proof is the instance's recorded refutation (Status == Unsat with
	// Options.KeepProofs; nil otherwise, and nil when the verdict was
	// resumed from the journal): whole from Solve, and from a Template the
	// caller holds the cube's own log, which continues Template.Prefix —
	// what a distributed worker ships to the coordinator as the UNSAT half
	// of a verdict certificate.
	Proof *sat.Proof
	// Time is the instance's wall-clock solving time: cloning its solver
	// from the run's template and searching. The template's own time is
	// Result.Template.Time.
	Time time.Duration
	// Stats are the instance's own search statistics — they start at
	// zero at the clone, so they depend on the formula and the cube alone,
	// not on the schedule — including the final
	// Stats.Progress search-progress estimate — the per-partition
	// imbalance signal the run report and partition gauges surface.
	Stats sat.Stats
	// Hardness is the whole-run hardness score of this instance
	// (sat.Hardness over the full solve: conflict rate scaled by the
	// unrealised progress slope). Zero for resumed, cancelled-before-
	// start, or conflict-free instances.
	Hardness float64
	// Cubes is the number of leaf cubes folded into this per-partition
	// result (1: the partition was solved whole, never split).
	Cubes int
}

// ConflictRate is the instance's whole-run conflicts/second, the
// denominator of its hardness score.
func (r InstanceResult) ConflictRate() float64 {
	if secs := r.Time.Seconds(); secs > 0 {
		return float64(r.Stats.Conflicts) / secs
	}
	return 0
}

// Result is the aggregate outcome.
type Result struct {
	// Status is Sat if any partition is satisfiable, Unsat if all are
	// unsatisfiable, Unknown if cancelled or budget-exhausted first.
	Status sat.Status
	// Model is the satisfying assignment (Status == Sat).
	Model []bool
	// Winner is the partition index that found the model (-1 otherwise).
	Winner int
	// Instances holds the per-partition results that completed, were
	// cancelled, or were resumed from the journal.
	Instances []InstanceResult
	// Resumed counts instances replayed from the journal.
	Resumed int
	// Wall is the overall wall-clock time, the template's included.
	Wall time.Duration
	// Template accounts for the solver the formula was loaded into once
	// and every cube's solver was cloned from; zero when the journal left
	// nothing to solve.
	Template TemplateResult
	// Certified reports that every UNSAT instance's refutation proof
	// checked, here or in the run that journaled it (Options.CertifyUnsat
	// only); CertifyWork is what the run's proof checker did.
	Certified   bool
	CertifyWork sat.ProofCheckerStats
	// JournalSealed reports that the journal sealed itself after a write
	// failure (ENOSPC, I/O error) mid-run: the remaining verdicts were
	// computed journal-less — still correct, no longer crash-durable.
	// Callers should surface it loudly.
	JournalSealed bool
	// JournalSealCause is the write error that sealed the journal.
	JournalSealCause string
	// Splits counts adaptive cube splits performed by this run (resumed
	// splits replayed from the journal are not re-counted); MaxCubeDepth
	// is the deepest cube path reached, including resumed paths.
	Splits       int
	MaxCubeDepth int
}

// Options configures the parallel run.
type Options struct {
	// Workers bounds the number of concurrently running solver
	// instances; 0 means one worker per partition. More than there can
	// be cubes — partitions, times 1<<Split.Depth with splitting on — are
	// not started.
	Workers int
	// CertifyUnsat records a clausal (RUP) proof in every instance and
	// checks it on the run's one checker (Template.Check) whenever the
	// instance reports UNSAT, before journaling it as certified, so that
	// Safe verdicts are certified independently of the CDCL search. A
	// resume under it replays only certified records and solves every
	// other definite one again, counterexamples included.
	CertifyUnsat bool
	// KeepProofs records a clausal (RUP) proof in every instance and
	// retains it on InstanceResult.Proof for UNSAT instances, without
	// checking it — for distributed workers, whose tails the coordinator
	// checks on the checker of its own copy of the template. A partition
	// that adaptive splitting divided has no single proof: Solve fails
	// rather than return its UNSAT verdict without one.
	KeepProofs bool
	// Budget bounds each instance's wall clock, conflicts and memory; an
	// instance that exhausts part of it reports Unknown with the matching
	// Cause.
	Budget journal.Budget
	// MemAbort, when non-nil, is an external memory kill-switch (an RSS
	// watchdog): once it becomes receivable (typically by closing it),
	// every live and future solver of this run is aborted with
	// cause=memory — the budgeted, journalable analogue of
	// cancellation, fired before the OOM-killer can.
	MemAbort <-chan struct{}
	// Journal, when non-nil, makes the run crash-safe: every definite or
	// budget-exhausted verdict is committed before the run acknowledges
	// it, cancelled instances are left for a restart to re-solve, and a
	// resume replays what it can still stand by (partition.Scheduler's
	// ledger holds the rules). The journal stores no model: a replayed SAT
	// verdict is re-derived without budgets, and one that fails to
	// re-derive fails the run rather than being silently demoted.
	Journal *journal.Journal
	// Progress, when non-nil and ProgressEvery > 0, receives live
	// search statistics for a partition every ProgressEvery conflicts,
	// invoked from that partition's solver goroutine (it must be
	// concurrency-safe and fast).
	Progress func(partition int, st sat.Stats)
	// ProgressEvery is the conflict cadence of Progress callbacks.
	ProgressEvery int64
	// Split enables in-process adaptive cube splitting (Split.Depth > 0;
	// requires SplitLits): an idle worker that finds the queue empty
	// splits the cube of the hardest straggling instance past Split.Grace
	// on the next unfixed literal of SplitLits, interrupting it, taking
	// one half and queueing the other. The policy is partition.Scheduler's.
	Split partition.SplitPolicy
	// SplitLits is the canonical split-literal sequence (from
	// partition.SplitLits) whose polarities cube paths fix.
	SplitLits []cnf.Lit
}

// Solve checks the formula under each partition's assumptions in
// parallel. It honours ctx cancellation (returning Unknown), the
// per-cube budget, journal resume and — with Split.Depth — adaptive
// splitting of stragglers. Result.Instances holds one entry per partition, in parts
// order.
func Solve(ctx context.Context, f *cnf.Formula, parts []partition.Partition, opts Options) (*Result, error) {
	return newTemplate(f, parts, opts, false).Solve(ctx, parts, opts)
}

// Solve is Solve on a template the caller holds: parts are those of its
// partitions this call is to solve. A kept proof (Options.KeepProofs) is
// the cube's own log, which continues the template's (Prefix).
func (t *Template) Solve(ctx context.Context, parts []partition.Partition, opts Options) (*Result, error) {
	return t.run(ctx, parts, opts, true)
}
