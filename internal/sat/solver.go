// Package sat implements a conflict-driven clause-learning (CDCL)
// propositional decision procedure in the style of MiniSat 2.2, the solver
// used by the paper's prototype. It provides two-watched-literal unit
// propagation, VSIDS variable activity with phase saving, first-UIP clause
// learning with recursive minimisation, Luby restarts, learnt-clause
// database reduction, solving under assumptions implemented as frozen unit
// clauses (Sect. 3.3 of the paper), and the search statistics (decisions,
// maximal decision depth, backjumps) used to reproduce Figure 6. Like the
// prototype's "MiniSat with simplifier" it eliminates variables and
// subsumed clauses, but from inside Solve, once the search has run long
// enough to pay for the pass (simplify.go) — or at once, on request, in a
// solver whose Clones are then to serve many assumption sets (clone.go):
// callers see models and refutation proofs of the formula they loaded
// either way.
package sat

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/cnf"
)

// Status is the outcome of a satisfiability check.
type Status int

const (
	// Unknown means the search was interrupted or ran out of budget.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) has none.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ParseStatus inverts String; unrecognised input maps to Unknown.
func ParseStatus(s string) Status {
	for _, st := range []Status{Sat, Unsat} {
		if s == st.String() {
			return st
		}
	}
	return Unknown
}

// ErrInterrupted is returned by Solve when the solver was cancelled.
var ErrInterrupted = errors.New("sat: solver interrupted")

// ErrMemBudget is returned by Solve when the solver exceeded its memory
// budget (Options.MemBudgetMB) and emergency learnt-DB shrinking could
// not bring it back under. Like conflict-budget exhaustion it is
// terminal under the same budget: rerunning with the same limit gives
// up again. A process-wide memory watchdog is no budget: it interrupts
// (ErrInterrupted), and what it stopped is cancelled, not given up.
var ErrMemBudget = errors.New("sat: memory budget exhausted")

// ErrEliminated is returned by Solve for an assumption over a variable
// the simplification pass of an earlier Solve eliminated: the solver no
// longer holds the clauses that constrain it. Assume on a fresh solver.
var ErrEliminated = errors.New("sat: assumption over an eliminated variable")

// StopCause classifies why a solve ended Unknown, so callers can tell a
// run that was cancelled (sibling found SAT, context done) from one
// that exhausted a per-chunk resource budget. The layers above the
// solver assign the cause: the solver itself only distinguishes
// interruption (ErrInterrupted) from conflict-budget exhaustion
// (Unknown with nil error under MaxConflicts).
type StopCause int

// The causes are declared in order of severity, which is how the causes
// of several solves fold into one (see Worse).
const (
	// CauseNone: the solve reached a definite verdict.
	CauseNone StopCause = iota
	// CauseCancelled: interrupted by cancellation (context done, a
	// sibling instance won, or an explicit Interrupt) — rerunning could
	// still decide the chunk.
	CauseCancelled
	// CauseConflictBudget: the chunk's conflict budget was exhausted.
	CauseConflictBudget
	// CauseTimeout: the chunk's wall-clock budget expired.
	CauseTimeout
	// CauseMemory: the chunk's memory budget was exhausted — the
	// solver's own live-byte accounting crossed Options.MemBudgetMB after
	// emergency learnt-DB shrinking — and nothing else: a watchdog that
	// stops a solve to save its process cancels it.
	CauseMemory
)

func (c StopCause) String() string {
	switch c {
	case CauseCancelled:
		return "cancelled"
	case CauseTimeout:
		return "timeout"
	case CauseConflictBudget:
		return "conflict-budget"
	case CauseMemory:
		return "memory"
	default:
		return ""
	}
}

// ParseStopCause inverts String; unrecognised input maps to CauseNone.
func ParseStopCause(s string) StopCause {
	switch s {
	case "cancelled":
		return CauseCancelled
	case "timeout":
		return CauseTimeout
	case "conflict-budget":
		return CauseConflictBudget
	case "memory":
		return CauseMemory
	default:
		return CauseNone
	}
}

// Worse returns the more severe of two causes — the cause of a result
// folded from several solves: the memory budget dominates, then timeout
// (a run that hit the wall clock anywhere is wall-clock bound), then
// conflict budget, then cancellation.
func (c StopCause) Worse(d StopCause) StopCause { return max(c, d) }

// Budgeted reports whether the cause is a deterministic budget
// exhaustion (timeout, conflict budget, or memory budget) rather than
// cancellation — the distinction between "this chunk is known-hard
// under the current budgets" and "this chunk simply was not finished".
func (c StopCause) Budgeted() bool {
	return c == CauseTimeout || c == CauseConflictBudget || c == CauseMemory
}

// Classify maps what Solve returned to a verdict and, for an Unknown,
// the budget (or cancellation) that caused it. timedOut says the caller's
// wall-clock timer fired, cancelled that the caller's run is ending.
func Classify(status Status, err error, timedOut, cancelled bool) (Status, StopCause) {
	switch {
	case err == ErrMemBudget:
		// The solver's own memory budget is terminal budget exhaustion,
		// like a conflict-budget give-up.
		return Unknown, CauseMemory
	case err == ErrInterrupted:
		// The timer may fire while the solver is being interrupted for
		// cancellation (sibling SAT win or signal); trusting timedOut
		// alone would record the cancelled solve as a terminal timeout
		// and exclude a still-decidable cube from every future resume.
		// When the races overlap, cancelled — the verdict that does not
		// claim a budget was exhausted — wins.
		if timedOut && !cancelled {
			return Unknown, CauseTimeout
		}
		return Unknown, CauseCancelled
	case status == Unknown:
		// The solver exhausts MaxConflicts without error: the conflict
		// budget is the only path here.
		return Unknown, CauseConflictBudget
	}
	return status, CauseNone
}

// Stats collects search statistics. The decision/depth/backjump counters
// correspond to the quantities visualised in Figure 6 of the paper; the
// learnt-DB and LBD fields feed the performance observatory (sampler,
// hardness score, parbmc_lbd_bucket export — see introspect.go).
type Stats struct {
	Decisions    int64
	Conflicts    int64
	Propagations int64
	Restarts     int64
	MaxDepth     int   // maximal decision level reached
	Backjumps    int64 // non-chronological backtracks (jump of >1 level)
	Learnt       int64 // learnt clauses added
	LearntLits   int64 // total literals in learnt clauses
	Minimised    int64 // literals removed by conflict-clause minimisation
	Simplified   int64 // original clauses removed by the simplification pass
	ElimVars     int64 // variables eliminated by the simplification pass

	// LearntDeleted counts learnt clauses discarded by reduceDB. Together
	// with Learnt it bounds the live learnt-DB churn: a high
	// deleted/learnt ratio means the solver keeps throwing work away.
	LearntDeleted int64

	// LearntDB is the learnt-clause database size at the last snapshot
	// (Progress-callback cadence and Solve return). A level, not a
	// total, but Add still sums it: the aggregate of an ensemble is the
	// combined clause-database footprint across its instances.
	LearntDB int64

	// LBDHist is the distribution of learnt-clause LBD ("glue") values
	// over fixed buckets (see LBDBounds). Low-LBD mass is the classic
	// signal that learning is productive; Add sums bucket-wise.
	LBDHist LBDHistogram

	// Progress is the latest search-progress estimate in [0,1]
	// (ProgressEstimate), refreshed at the Progress-callback cadence and
	// when Solve returns. Unlike the counters it is a level, not a
	// total: Add takes the maximum, reporting the furthest-along
	// instance of an aggregate.
	Progress float64

	// MemBytes is the solver's live footprint (Solver.LiveBytes: clause
	// arena, watches, per-variable state) at the last snapshot, same
	// cadence as LearntDB. Like LearntDB it is a level that Add sums:
	// the aggregate is the combined footprint of the ensemble.
	MemBytes int64

	// PeakMemBytes is the high-water mark of MemBytes over the solve.
	// Add sums it too — peaks of concurrent instances can coincide, so
	// the sum is the safe (worst-case) combined peak.
	PeakMemBytes int64

	// MemShrinks counts emergency learnt-DB reductions forced by the
	// memory budget (degrade-before-dying events), as opposed to the
	// ordinary size-triggered reduceDB cadence.
	MemShrinks int64
}

// Add accumulates o into s. The aggregation laws (locked in by
// TestStatsAddLaws):
//
//   - counters sum: Decisions, Conflicts, Propagations, Restarts,
//     Backjumps, Learnt, LearntLits, Minimised, Simplified, ElimVars,
//     LearntDeleted, MemShrinks, and the footprint levels LearntDB,
//     MemBytes, PeakMemBytes (combined ensemble footprint), plus
//     LBDHist bucket-wise;
//   - MaxDepth and Progress take the maximum (deepest / furthest-along
//     instance of the aggregate).
//
// Used to aggregate per-instance statistics across parallel, portfolio
// and distributed runs.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.Restarts += o.Restarts
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.Backjumps += o.Backjumps
	s.Learnt += o.Learnt
	s.LearntLits += o.LearntLits
	s.Minimised += o.Minimised
	s.Simplified += o.Simplified
	s.ElimVars += o.ElimVars
	s.LearntDeleted += o.LearntDeleted
	s.LearntDB += o.LearntDB
	s.MemBytes += o.MemBytes
	s.PeakMemBytes += o.PeakMemBytes
	s.MemShrinks += o.MemShrinks
	s.LBDHist.Merge(o.LBDHist)
	if o.Progress > s.Progress {
		s.Progress = o.Progress
	}
}

// Options configures a Solver.
type Options struct {
	// VarDecay is the VSIDS activity decay factor (default 0.95).
	VarDecay float64
	// RestartBase is the Luby restart unit in conflicts (default 100).
	RestartBase int
	// PhaseSaving enables progress saving of variable polarities (default true,
	// disabled by setting NoPhaseSaving).
	NoPhaseSaving bool
	// InitialPolarity is the polarity used for never-assigned variables.
	InitialPolarity bool
	// RandomizeFreq in [0,1) decides with random polarity/variable with the
	// given frequency; used for portfolio diversification (default 0).
	RandomizeFreq float64
	// Seed seeds the diversification RNG.
	Seed uint64
	// MaxConflicts bounds the total number of conflicts (0 = unbounded).
	MaxConflicts int64
	// MemBudgetMB bounds the solver's live footprint (LiveBytes) in
	// mebibytes (0 = unbounded). When the accounting crosses the budget
	// at a conflict boundary the solver first degrades — emergency
	// learnt-DB shrinks — and only if still over budget stops with
	// (Unknown, ErrMemBudget), the memory analogue of MaxConflicts.
	MemBudgetMB int64
	// ProgressEvery invokes the solver's Progress callback every this
	// many conflicts (0 disables; see Solver.Progress). The disabled
	// path costs a single nil check per conflict.
	ProgressEvery int64
}

func (o *Options) setDefaults() {
	if o.VarDecay == 0 {
		o.VarDecay = 0.95
	}
	if o.RestartBase == 0 {
		o.RestartBase = 100
	}
}

// lit is a literal as the solver stores it: cnf.Lit's 2v+sign encoding
// in 32 bits, so crossing the package boundary is a cast. l^1 is the
// complement and l itself indexes the per-literal arrays (vals, watches).
type lit = uint32

const litUndef lit = 0

// vidx is the index of l's variable in the per-variable arrays.
func vidx(l lit) int { return int(l>>1) - 1 }

// cref addresses a clause in Solver.arena: it is the index of the
// clause's first literal. The word before it is the header,
// size<<1 | learnt, and a learnt clause carries three more words
// before the header:
//
//	learnt:    [id] [act lo] [act hi] [lbd] [size<<1|1] lit0 lit1 ... litN-1
//	original:                          [id] [size<<1|0] lit0 lit1 ... litN-1
//	                                                    ^cref
//
// so a propagation reaches size and literals without knowing which
// kind it has, and 0 is never a valid reference. The activity is a
// float64 kept as its two halves: reduceDB orders by it, and a
// narrower type would order some pairs differently. The clause's ID
// (see Proof) heads the record in the arena of a solver that logs a
// proof (Solver.ids), and nowhere else: a solver that logs none has the
// layout and the footprint it had before IDs.
type cref = uint32

const (
	crefUndef   cref = 0
	learntWords      = 3 // act lo, act hi, lbd
)

// watcher is one entry of a literal's watch list. For a clause of two
// literals ref carries binTag and blocker is the clause's other
// literal, which is all propagation needs: it never reads the arena
// for a binary clause except to report a conflict.
type watcher struct {
	ref     uint32 // cref, tagged with binTag when the clause is binary
	blocker lit
}

const binTag = 1 << 31

// varBytes is the per-variable state counted by LiveBytes: two
// watch-list headers (48), two value bytes, level and reason (8),
// polarity, frozen and seen (3), activity (8), heap slot and position
// (8), trail slot (4) and level stamp (4).
const varBytes = 48 + 2 + 8 + 3 + 8 + 8 + 4 + 4

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// Solver is a CDCL SAT solver. The zero value is not usable; construct
// with New or NewFromFormula.
type Solver struct {
	opts Options

	// numVars is the number of the solver's variables, which index the
	// per-variable tables. Until the simplification pass they are the
	// formula's, numbered as it numbers them. The pass drops those it
	// eliminated and numbers the others densely, in their order
	// (compactVars): ext[i] is then the formula's number of the solver's
	// variable i+1, strictly increasing, and numVars+numElim the number
	// of the formula's. While numElim is 0 — before the pass, and after
	// one that eliminated nothing — the numberings are one and ext is
	// unused. The solver speaks the formula's numbering at its boundary
	// only: assumptions, Freeze, AddClause and Import in; models, the
	// proof log, the decision graph and ShareLearnt out.
	numVars int
	ext     []uint32
	ok      bool // false once the clause set is known inconsistent

	// ids: every clause record in the arena is headed by the clause's ID
	// (see cref), and units holds, per variable fixed at level 0, the ID
	// of the unit clause that fixes it — noID for an assumption, which
	// the checker holds as its root — set when proof logging starts, on a
	// solver that holds no clause yet, and for good. nextID is the ID of
	// the next clause added or lemma logged: every add takes one, stored
	// or not, and AddFormula gives clause i of its formula the ID i and
	// what it logs while loading the IDs after them (see Proof). logged
	// is the length of the trail prefix whose literals have their unit
	// IDs (logUnits).
	ids    bool
	nextID uint32
	units  []uint32
	logged int

	arena   []uint32 // every clause, see cref
	clauses []cref
	learnts []cref

	watches [][]watcher // indexed by literal: the clauses watching its complement

	vals     []int8 // per literal: lTrue/lFalse/lUndef
	level    []int32
	reason   []cref
	polarity []bool // saved phase per variable
	frozen   []bool // assumption-frozen variables (paper Sect. 3.3)

	// The simplification pass (simplify.go) runs once, when Propagations
	// reaches simplifyAt per original clause or a caller asks for it
	// (Simplify); tests set simplifyAt to 0 to have it run before the
	// first search. numElim counts the variables it eliminated and
	// elimStack, in the formula's numbering, holds the clauses it takes
	// to give them values. Nothing writes to either, or to ext, once the
	// pass is over, which is why Clone shares them.
	simplifyAt int64
	simplified bool
	numElim    int
	elimStack  elimStack

	trail    []lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	order    varHeap
	seen     []byte

	// Scratch reused across conflicts and clause additions.
	learntBuf []lit    // the clause analyze is building
	analyzeTs []lit    // literals marked seen during minimisation
	minStack  []lit    // litRedundant's work list
	lbdStamp  []uint32 // per decision level: lbdEpoch of the last computeLBD that met it
	lbdEpoch  uint32
	addBuf    []lit    // the clause addClause is normalising
	extBuf    []lit    // a clause extLits translated
	chain     []uint32 // with proof logging on: the antecedent chain of the clause analyze built
	resolved  []uint32 // analyze's reasons at the conflict level, the conflict clause first
	minimised []uint32 // chainMinimised's reasons
	cited     []lit    // level-0 literals analyze met, whose units head the chain
	dfs       []dfsFrame
	delID     [1]uint32 // the ID a deletion is logged with

	model []int8 // last satisfying assignment (per variable)

	stats Stats
	graph *DecisionGraph
	// proof is not nil with proof logging on: the log, or what of it the
	// solver has not handed to hand yet (StreamProof).
	proof *FlatLog
	hand  func(Proof) FlatLog

	// peakBytes is the high-water mark of LiveBytes as of the last
	// reduceDB, the only place the footprint falls; see PeakBytes.
	peakBytes int64

	interrupt atomic.Bool
	rngState  uint64

	// ShareLearnt, if non-nil, is invoked for every learnt clause whose LBD
	// is at most ShareMaxLBD; used by the portfolio baselines for clause
	// exchange. The slice is a copy the callback may keep.
	ShareLearnt func(lits []cnf.Lit, lbd int)
	ShareMaxLBD int
	// Import, if non-nil, is polled at every restart for foreign clauses to
	// add. It must return clauses over existing variables.
	Import func() [][]cnf.Lit
	// Progress, if non-nil and Options.ProgressEvery > 0, receives a
	// snapshot of the search statistics every ProgressEvery conflicts,
	// from the solving goroutine. It must be fast and must not call back
	// into the solver; used for live conflict/propagation-rate reporting
	// in parallel, portfolio and distributed runs.
	Progress func(Stats)
}

// New creates a solver with the given number of variables.
func New(numVars int, opts Options) *Solver {
	opts.setDefaults()
	s := &Solver{
		opts:     opts,
		ok:       true,
		varInc:   1,
		claInc:   1,
		rngState: opts.Seed*2654435761 + 88172645463325252,

		simplifyAt: simplifyPropsPerClause,
		// Literals start at 2 (variable 1), decision levels at 0.
		watches:  make([][]watcher, 2),
		vals:     make([]int8, 2),
		lbdStamp: make([]uint32, 1),
	}
	s.growTo(numVars)
	return s
}

// NewFromFormula creates a solver and loads every clause of f, as
// AddClause would in order, after sizing the arena and every watch
// list for them.
func NewFromFormula(f *cnf.Formula, opts Options) *Solver {
	s := New(f.NumVars, opts)
	s.AddFormula(f)
	return s
}

// AddFormula loads every clause of f into a solver that holds none yet,
// as AddClause would in order, after sizing the arena and every watch
// list for them: NewFromFormula for a solver that logs its proof from
// the first clause (New, EnableProof, AddFormula).
func (s *Solver) AddFormula(f *cnf.Formula) {
	s.reserve(f)
	// Clause i of f has ID i (see Proof): what the load logs comes after.
	id := s.nextID
	s.nextID += uint32(f.NumClauses())
	f.Each(func(c cnf.Clause) {
		s.addClause(c, id)
		id++
	})
}

// reserve gives the arena room for the clauses of f, by the formula's
// own counts, and each watch list room for the clauses that will start
// out watching its literal (the two smallest of each clause, as
// addClause sorts them), all lists carved from one allocation. Unit
// clauses, and clauses that level-0 simplification later drops or
// shortens, make this an over-estimate, nothing more.
func (s *Solver) reserve(f *cnf.Formula) {
	s.growTo(f.NumVars)
	degree := make([]int32, len(s.watches))
	f.Each(func(c cnf.Clause) {
		a, b := ^lit(0), ^lit(0)
		for _, x := range c {
			if l := lit(x); l < a {
				a, b = l, a
			} else if l < b && l != a {
				b = l
			}
		}
		if int(b|1) >= len(degree) {
			return // unit or empty, or over variables growTo has yet to see
		}
		degree[a^1]++
		degree[b^1]++
	})
	s.arena = slices.Grow(s.arena, int(1+s.idWords())*f.NumClauses()+f.NumLits())
	s.clauses = slices.Grow(s.clauses, f.NumClauses())
	backing := make([]watcher, 2*f.NumClauses())
	for l, d := range degree {
		s.watches[l] = backing[:0:d]
		backing = backing[d:]
	}
}

// growTo makes the formula's variables up to n known to the solver.
// After the pass they join the map: they come after every variable it
// has, so it stays monotone.
func (s *Solver) growTo(n int) {
	known := s.NumVars()
	if n <= known {
		return
	}
	if n > cnf.MaxVar {
		panic(fmt.Sprintf("sat: variable %d does not fit a 32-bit literal (cnf.MaxVar)", n))
	}
	add := n - known
	if s.numElim > 0 {
		for v := known + 1; v <= n; v++ {
			s.ext = append(s.ext, uint32(v))
		}
	}
	s.watches = append(s.watches, make([][]watcher, 2*add)...)
	s.vals = append(s.vals, make([]int8, 2*add)...)
	s.level = append(s.level, make([]int32, add)...)
	s.reason = append(s.reason, make([]cref, add)...)
	s.polarity = append(s.polarity, make([]bool, add)...)
	if s.opts.InitialPolarity {
		for i := s.numVars; i < s.numVars+add; i++ {
			s.polarity[i] = true
		}
	}
	s.frozen = append(s.frozen, make([]bool, add)...)
	s.activity = append(s.activity, make([]float64, add)...)
	s.seen = append(s.seen, make([]byte, add)...)
	s.lbdStamp = append(s.lbdStamp, make([]uint32, add)...)
	s.order.grow(s.numVars+add, s.activity)
	if s.ids {
		s.units = slices.Grow(s.units, add)
		for range add {
			s.units = append(s.units, noID)
		}
	}
	s.numVars += add
}

// NumVars returns the number of variables known to the solver, in the
// formula's numbering: those it loaded or was told of since, eliminated
// ones included.
func (s *Solver) NumVars() int { return s.numVars + s.numElim }

// varIndex returns the index in the per-variable tables of the formula's
// variable v, which must be known, or -1 if the pass eliminated it.
func (s *Solver) varIndex(v cnf.Var) int {
	if s.numElim == 0 {
		return int(v) - 1
	}
	i, found := slices.BinarySearch(s.ext, uint32(v))
	if !found {
		return -1
	}
	return i
}

// internLit returns the solver's literal for l, whose variable must be
// known and not eliminated.
func (s *Solver) internLit(l cnf.Lit) lit {
	if s.numElim == 0 {
		return lit(l)
	}
	return lit(2*s.varIndex(l.Var())+2) | lit(l)&1
}

// extLit returns the formula's literal for the solver's l.
func (s *Solver) extLit(l lit) cnf.Lit {
	if s.numElim == 0 {
		return cnf.Lit(l)
	}
	return cnf.Lit(s.ext[vidx(l)]<<1 | l&1)
}

// extLits translates a clause into the formula's numbering: lits itself
// before the pass, else scratch that the next call reuses.
func (s *Solver) extLits(lits []lit) []lit {
	if s.numElim == 0 {
		return lits
	}
	buf := s.extBuf[:0]
	for _, l := range lits {
		buf = append(buf, lit(s.extLit(l)))
	}
	s.extBuf = buf
	return buf
}

// NumClauses returns the number of original (not learnt) clauses the
// solver holds: those of two or more literals that loading left, less
// what the simplification pass removed, plus what it derived.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Stats returns a snapshot of the search statistics.
func (s *Solver) Stats() Stats { return s.stats }

// snapshotLevels refreshes the fields of stats that are levels rather
// than counters.
func (s *Solver) snapshotLevels() {
	s.stats.Progress = s.ProgressEstimate()
	s.stats.LearntDB = int64(len(s.learnts))
	s.stats.MemBytes = s.LiveBytes()
	s.stats.PeakMemBytes = s.PeakBytes()
}

// ProgressEstimate is a cheap "how far along is the search" signal in
// [0,1]: MiniSat's progress estimate, a weighted sum over the decision
// trail where assignments at level i contribute with weight (1/V)^i
// (V = variable count). Level-0 assignments — permanently decided —
// dominate, so the estimate grows as the solver proves out top-level
// facts; deeper, more speculative assignments contribute geometrically
// less. Variables the simplification pass eliminated count as decided
// at level 0: model extension fixes them, the search never will. It is not monotone (restarts and backjumps can lower it), but
// averaged over heartbeat intervals it orders partitions by how close
// they are to a verdict, which is the signal partition splitting keys
// on. Must be called from the solving goroutine (it reads the trail).
func (s *Solver) ProgressEstimate() float64 {
	vars := s.NumVars()
	if vars == 0 {
		return 1
	}
	progress := float64(s.numElim)
	f := 1.0 / float64(vars)
	weight := 1.0
	for i := 0; i <= s.decisionLevel(); i++ {
		beg := 0
		if i > 0 {
			beg = s.trailLim[i-1]
		}
		end := len(s.trail)
		if i < s.decisionLevel() {
			end = s.trailLim[i]
		}
		progress += weight * float64(end-beg)
		weight *= f
	}
	return progress / float64(vars)
}

// Interrupt asynchronously cancels an in-flight Solve, which will return
// (Unknown, ErrInterrupted). Safe to call from other goroutines.
func (s *Solver) Interrupt() { s.interrupt.Store(true) }

// Interrupted reports whether the solver has been cancelled.
func (s *Solver) Interrupted() bool { return s.interrupt.Load() }

// LiveBytes returns the solver's current footprint: the clause arena,
// the two watchers every attached clause has, the per-variable state
// (varBytes) of the variables it has, and, after the simplification
// pass, its elimination stack and its map to the formula's numbering.
// reduceDB compacts the arena, so no deleted clause is counted. Only
// valid on the solving goroutine.
func (s *Solver) LiveBytes() int64 {
	watchers := 2 * (len(s.clauses) + len(s.learnts))
	return int64(s.numVars)*varBytes + 4*int64(len(s.arena)) + 8*int64(watchers) +
		4*int64(s.elimStack.words) + 4*int64(len(s.ext))
}

// PeakBytes returns the high-water mark of LiveBytes over the solver's
// lifetime.
func (s *Solver) PeakBytes() int64 {
	return max(s.peakBytes, s.LiveBytes())
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// level0 is the length of the trail's level-0 prefix.
func (s *Solver) level0() int {
	if len(s.trailLim) > 0 {
		return s.trailLim[0]
	}
	return len(s.trail)
}

// Clause accessors; see cref for the layout.

func (s *Solver) size(c cref) int { return int(s.arena[c-1] >> 1) }

func (s *Solver) lits(c cref) []lit { return s.arena[c : c+s.arena[c-1]>>1] }

func (s *Solver) isLearnt(c cref) bool { return s.arena[c-1]&1 != 0 }

func (s *Solver) lbd(c cref) uint32 { return s.arena[c-2] }

func (s *Solver) act(c cref) float64 {
	return math.Float64frombits(uint64(s.arena[c-4]) | uint64(s.arena[c-3])<<32)
}

func (s *Solver) setAct(c cref, a float64) {
	bits := math.Float64bits(a)
	s.arena[c-4], s.arena[c-3] = uint32(bits), uint32(bits>>32)
}

// alloc appends a clause of at least two literals to the arena, headed
// by its ID if the arena has them.
func (s *Solver) alloc(lits []lit, learnt bool, lbd int, id uint32) cref {
	if s.ids {
		s.arena = append(s.arena, id)
	}
	header := uint32(len(lits)) << 1
	if learnt {
		s.arena = append(s.arena, 0, 0, uint32(lbd))
		header |= 1
	}
	s.arena = append(s.arena, header)
	c := cref(len(s.arena))
	s.arena = append(s.arena, lits...)
	if uint64(len(s.arena)) >= binTag {
		panic("sat: clause arena exceeds 2^31 words")
	}
	return c
}

// sortLits sorts a clause's literals ascending. The encoder's clauses
// have two or three literals, where insertion beats a general sort.
func sortLits(ls []lit) {
	if len(ls) > 8 {
		slices.Sort(ls)
		return
	}
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// AddClause introduces a clause over 1-based variables, growing the
// variable set as needed. It may only be called before Solve or between
// Solve calls (at decision level 0). It returns false if the clause set
// became trivially inconsistent. A clause over a variable an earlier
// Solve eliminated (see Solve) panics.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	return s.addClause(lits, s.takeID())
}

// addClause adds the clause with the given ID.
func (s *Solver) addClause(lits []cnf.Lit, id uint32) bool {
	if !s.ok {
		return false
	}
	if s.mentionsEliminated(lits) {
		panic("sat: AddClause over an eliminated variable")
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	sorted := s.addBuf[:0]
	for _, l := range lits {
		if int(l.Var()) > s.NumVars() {
			s.growTo(int(l.Var()))
		}
		sorted = append(sorted, s.internLit(l))
	}
	s.addBuf = sorted
	sortLits(sorted)
	// Drop duplicates and move literals already false at level 0 behind
	// the others, which keep their order; a clause with l and ¬l
	// (adjacent once sorted) or a true literal is satisfied.
	n, prev, dropped := 0, litUndef, false
	for i, l := range sorted {
		if l == prev {
			continue
		}
		if l == prev^1 || s.vals[l] == lTrue {
			return true
		}
		prev = l
		if s.vals[l] == lUndef {
			sorted[n], sorted[i] = l, sorted[n]
			n++
		} else {
			dropped = true
		}
	}
	c := sorted[:n]
	if (dropped || n == 0) && s.proof != nil {
		// Shortened, or empty: the clause the solver holds is a lemma,
		// derived from the add through the units of what it lost.
		id = s.logFrom(c, sorted, id)
	}
	switch n {
	case 0:
		s.ok = false
		return false
	case 1:
		s.fix(c[0], id)
		return s.settle()
	}
	cl := s.alloc(c, false, 0, id)
	s.clauses = append(s.clauses, cl)
	s.attach(cl)
	return true
}

// takeID hands out the next clause ID.
func (s *Solver) takeID() uint32 {
	id := s.nextID
	if id == noID {
		panic("sat: more than 2^32-1 clauses and lemmas")
	}
	s.nextID++
	return id
}

// idWords is the number of words an ID takes before a clause record.
func (s *Solver) idWords() cref {
	if s.ids {
		return 1
	}
	return 0
}

// id returns the ID of a clause of an arena that has them.
func (s *Solver) id(c cref) uint32 { return s.arena[c-2-learntWords*(s.arena[c-1]&1)] }

// fix asserts l at level 0 with no reason: a unit, whose clause has the
// given ID (noID for an assumption).
func (s *Solver) fix(l lit, id uint32) {
	s.uncheckedEnqueue(l, crefUndef)
	if s.ids {
		s.units[vidx(l)] = id
	}
}

// settle propagates at level 0 and reports whether that ended without a
// conflict, which refutes the clause set.
func (s *Solver) settle() bool {
	if confl := s.propagate(); confl != crefUndef {
		s.refute(confl)
		return false
	}
	return true
}

// refute marks the clause set inconsistent on a conflict at level 0 and
// logs the empty clause, derived from the conflict clause.
func (s *Solver) refute(confl cref) {
	s.ok = false
	if s.proof != nil {
		s.logFrom(nil, s.lits(confl), s.id(confl))
	}
}

// isEliminated reports whether the simplification pass eliminated the
// formula's variable v.
func (s *Solver) isEliminated(v cnf.Var) bool {
	return s.numElim > 0 && int(v) <= s.NumVars() && s.varIndex(v) < 0
}

// mentionsEliminated reports whether one of the literals is over an
// eliminated variable.
func (s *Solver) mentionsEliminated(lits []cnf.Lit) bool {
	return slices.ContainsFunc(lits, func(l cnf.Lit) bool { return s.isEliminated(l.Var()) })
}

func (s *Solver) attach(c cref) {
	l0, l1 := s.arena[c], s.arena[c+1]
	ref := c
	if s.size(c) == 2 {
		ref |= binTag
	}
	s.watches[l0^1] = append(s.watches[l0^1], watcher{ref, l1})
	s.watches[l1^1] = append(s.watches[l1^1], watcher{ref, l0})
}

func (s *Solver) uncheckedEnqueue(l lit, from cref) {
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	v := vidx(l)
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause
// or crefUndef. With proof logging on, what it fixed at level 0 is
// logged (logUnits).
func (s *Solver) propagate() cref {
	confl := s.unitPropagate()
	if s.proof != nil && len(s.trailLim) == 0 {
		s.logUnits()
	}
	return confl
}

func (s *Solver) unitPropagate() cref {
	arena, vals := s.arena, s.vals // neither grows during propagation
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		np := p ^ 1
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			blockerVal := vals[w.blocker]
			if blockerVal == lTrue {
				ws[n] = w
				n++
				continue
			}
			if w.ref&binTag != 0 {
				// Binary: the blocker is the rest of the clause.
				ws[n] = w
				n++
				c := w.ref &^ binTag
				if blockerVal == lFalse {
					// analyze bumps a conflict's variables in stored
					// order: the literal this visit falsified goes last.
					if arena[c] == np {
						arena[c], arena[c+1] = w.blocker, np
					}
					s.stopAt(p, ws, n, i)
					return c
				}
				s.uncheckedEnqueue(w.blocker, c)
				continue
			}
			c := w.ref
			lits := arena[c : c+arena[c-1]>>1]
			// Ensure the false literal is at position 1.
			if lits[0] == np {
				lits[0], lits[1] = lits[1], np
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], np
					idx := lits[1] ^ 1
					s.watches[idx] = append(s.watches[idx], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if vals[first] == lFalse {
				s.stopAt(p, ws, n, i)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:n]
	}
	return crefUndef
}

// stopAt ends propagation on a conflict found at watcher i of p's list:
// the n watchers kept so far are followed by the unvisited ones.
func (s *Solver) stopAt(p lit, ws []watcher, n, i int) {
	n += copy(ws[n:], ws[i+1:])
	s.watches[p] = ws[:n]
	s.qhead = len(s.trail)
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := vidx(l)
		if !s.opts.NoPhaseSaving {
			s.polarity[v] = l&1 == 0
		}
		s.vals[l], s.vals[l^1] = lUndef, lUndef
		s.reason[v] = crefUndef
		s.order.insert(int32(v), s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// bumpVar raises the activity of the variable with index v.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(int32(v), s.activity)
}

func (s *Solver) decayVar() { s.varInc /= s.opts.VarDecay }

// bumpClause raises a learnt clause's activity; original clauses are
// never deleted and carry none.
func (s *Solver) bumpClause(c cref) {
	if !s.isLearnt(c) {
		return
	}
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, cl := range s.learnts {
			s.setAct(cl, s.act(cl)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

// clauseDecay is the learnt-clause activity decay factor.
const clauseDecay = 0.999

func (s *Solver) decayClause() { s.claInc /= clauseDecay }

func (s *Solver) rand() uint64 {
	// xorshift64*
	x := s.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rngState = x
	return x * 2685821657736338717
}

func (s *Solver) randFloat() float64 {
	return float64(s.rand()>>11) / float64(1<<53)
}

func (s *Solver) pickBranchLit() lit {
	if s.opts.RandomizeFreq > 0 && s.randFloat() < s.opts.RandomizeFreq {
		// Random decision among unassigned variables (diversification),
		// drawn in the formula's numbering so that the draw does not
		// depend on what the pass eliminated.
		for tries := 0; tries < 10; tries++ {
			v := cnf.Var(1 + s.rand()%uint64(s.NumVars()))
			if i := s.varIndex(v); i >= 0 && s.vals[2*i+2] == lUndef {
				l := lit(2*i + 2)
				if s.rand()&1 == 0 {
					l |= 1
				}
				return l
			}
		}
	}
	for {
		v, ok := s.order.popMax(s.activity)
		if !ok {
			return litUndef
		}
		if s.vals[2*v+2] == lUndef {
			l := lit(2*v + 2)
			if !s.polarity[v] {
				l |= 1
			}
			return l
		}
	}
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first), the backtrack level and the LBD.
// The clause lives in solver-owned scratch until the next analyze, and
// so does, for a solver that logs its proof, the clause's antecedent
// chain (s.chain): the units of the literals fixed at level 0 that the
// clauses below hold and the clause leaves out; then the reasons of the
// literals minimisation removed or walked through to remove them, each
// after those its own reason needs; then the reasons of the literals
// resolved on at the conflict level, in trail order; then the conflict
// clause. That is the order in which unit propagation, from the clause's
// literals all false, finds each of them unit and the last one false —
// with no sort: the walks give it.
func (s *Solver) analyze(confl cref) ([]lit, int, int) {
	chaining := s.proof != nil
	if chaining {
		s.resolved = append(s.resolved[:0], s.id(confl))
	}
	learnt := append(s.learntBuf[:0], litUndef)
	counter := 0
	p := litUndef
	idx := len(s.trail) - 1
	current := int32(s.decisionLevel())

	for {
		s.bumpClause(confl)
		for _, q := range s.lits(confl) {
			if q == p {
				continue
			}
			v := vidx(q)
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if s.level[v] >= current {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			} else if chaining && s.level[v] == 0 {
				s.cite(q)
			}
		}
		for s.seen[vidx(s.trail[idx])] == 0 {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[vidx(p)]
		s.seen[vidx(p)] = 0
		idx--
		counter--
		if counter == 0 {
			break
		}
		if chaining {
			s.resolved = append(s.resolved, s.id(confl))
		}
	}
	learnt[0] = p ^ 1
	s.learntBuf = learnt

	// Recursive conflict-clause minimisation.
	s.analyzeTs = append(s.analyzeTs[:0], learnt[1:]...)
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reason[vidx(l)] == crefUndef || !s.litRedundant(l) {
			out = append(out, l)
		}
	}
	s.stats.Minimised += int64(len(learnt) - len(out))
	learnt = out

	// Clear the seen flags: of the clause's literals after the first
	// (copied into analyzeTs above) and of those minimisation marked —
	// the latter, and the former where minimisation did not keep them,
	// being where the chain starts.
	if chaining {
		for _, l := range learnt[1:] {
			s.seen[vidx(l)] = 0
		}
		s.chainLearnt()
	}
	for _, l := range s.analyzeTs {
		s.seen[vidx(l)] = 0
	}

	// Find backtrack level: the maximal level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[vidx(learnt[i])] > s.level[vidx(learnt[maxI])] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[vidx(learnt[1])])
	}

	return learnt, btLevel, s.computeLBD(learnt)
}

// computeLBD counts the distinct decision levels among lits, stamping
// each level it meets with this call's epoch.
func (s *Solver) computeLBD(lits []lit) int {
	s.lbdEpoch++
	if s.lbdEpoch == 0 { // wrapped: old stamps could collide
		clear(s.lbdStamp)
		s.lbdEpoch = 1
	}
	lbd := 0
	for _, l := range lits {
		lvl := s.level[vidx(l)]
		if s.lbdStamp[lvl] != s.lbdEpoch {
			s.lbdStamp[lvl] = s.lbdEpoch
			lbd++
		}
	}
	return lbd
}

// dfsFrame is a step of chainMinimised's walk: the variable whose
// reason is being walked, and the next literal of it to visit.
type dfsFrame struct {
	v int
	k int
}

// chainLearnt sets s.chain to the chain of the clause analyze built:
// the units cited, the reasons chainMinimised finds, then those resolved
// at the conflict level, latest first. It clears the citations' marks.
func (s *Solver) chainLearnt() {
	s.chainMinimised()
	chain := s.chain[:0]
	for _, l := range s.cited {
		if id := s.units[vidx(l)]; id != noID {
			chain = append(chain, id)
		}
		s.seen[vidx(l)] = 0
	}
	s.cited = s.cited[:0]
	chain = append(chain, s.minimised...)
	for i := len(s.resolved) - 1; i >= 0; i-- {
		chain = append(chain, s.resolved[i])
	}
	s.chain = chain
}

// cite marks q's variable, fixed at level 0, as one whose unit the chain
// of the clause analyze is building cites; it leaves the mark (3) to be
// cleared there.
func (s *Solver) cite(q lit) {
	if s.seen[vidx(q)] == 0 {
		s.seen[vidx(q)] = 3
		s.cited = append(s.cited, q)
	}
}

// chainMinimised sets s.minimised to the reasons of the variables still
// marked seen (1) once the learnt clause's own marks are cleared — those
// minimisation removed, and those it walked through to remove them —
// each after the reasons of the marked variables its own reason holds:
// a post-order of the implication graph, the order propagation assigns
// them in; and it cites their literals fixed at level 0. It marks each
// variable it has visited 2.
func (s *Solver) chainMinimised() {
	s.minimised = s.minimised[:0]
	stack := s.dfs[:0]
	for _, root := range s.analyzeTs {
		if s.seen[vidx(root)] != 1 {
			continue
		}
		s.seen[vidx(root)] = 2
		stack = append(stack, dfsFrame{v: vidx(root)})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			r := s.reason[top.v]
			lits := s.lits(r)
			for top.k < len(lits) && s.seen[vidx(lits[top.k])] != 1 {
				top.k++
			}
			if top.k == len(lits) {
				s.minimised = append(s.minimised, s.id(r))
				for _, q := range lits {
					if s.level[vidx(q)] == 0 {
						s.cite(q)
					}
				}
				stack = stack[:len(stack)-1]
				continue
			}
			v := vidx(lits[top.k])
			top.k++
			s.seen[v] = 2
			stack = append(stack, dfsFrame{v: v})
		}
	}
	s.dfs = stack
}

// litRedundant checks whether l is implied by the other literals marked in
// seen, walking the implication graph (MiniSat's ccmin).
func (s *Solver) litRedundant(l lit) bool {
	stack := append(s.minStack[:0], l)
	top := len(s.analyzeTs)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range s.lits(s.reason[vidx(p)]) {
			v := vidx(q)
			if q>>1 == p>>1 || s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == crefUndef {
				// Not redundant: undo the tentative marks.
				for _, m := range s.analyzeTs[top:] {
					s.seen[vidx(m)] = 0
				}
				s.analyzeTs = s.analyzeTs[:top]
				s.minStack = stack
				return false
			}
			s.seen[v] = 1
			s.analyzeTs = append(s.analyzeTs, q)
			stack = append(stack, q)
		}
	}
	s.minStack = stack
	return true
}

// recordLearnt stores the clause analyze derived (in the proof, with
// the sharing callback and, unless it is a unit, in the arena) and
// returns its reference, crefUndef for a unit.
func (s *Solver) recordLearnt(lits []lit, lbd int) cref {
	s.stats.Learnt++
	s.stats.LearntLits += int64(len(lits))
	s.stats.LBDHist.Observe(lbd)
	id := noID
	if s.proof != nil {
		id = s.logLemma(lits, s.chain)
	}
	if s.ShareLearnt != nil && lbd <= s.ShareMaxLBD && len(lits) > 1 {
		cp := make([]cnf.Lit, len(lits))
		for i, l := range lits {
			cp[i] = s.extLit(l)
		}
		s.ShareLearnt(cp, lbd)
	}
	if len(lits) == 1 {
		if s.ids {
			s.units[vidx(lits[0])] = id // search fixes it next
		}
		return crefUndef
	}
	c := s.alloc(lits, true, lbd, id)
	s.learnts = append(s.learnts, c)
	s.attach(c)
	s.bumpClause(c)
	return c
}

func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	s.peakBytes = s.PeakBytes() // the footprint falls below
	sort.Slice(s.learnts, func(i, j int) bool {
		// Keep high-activity, low-LBD clauses.
		a, b := s.learnts[i], s.learnts[j]
		if (s.lbd(a) <= 2) != (s.lbd(b) <= 2) {
			return s.lbd(b) <= 2
		}
		return s.act(a) < s.act(b)
	})
	limit := len(s.learnts) / 2
	kept := s.learnts[:0]
	freed := 0
	for i, c := range s.learnts {
		if i < limit && s.size(c) > 2 && !s.isReason(c) {
			if s.proof != nil {
				s.logDelete(s.lits(c), s.id(c))
			}
			s.detach(c)
			freed += int(s.idWords()) + learntWords + 1 + s.size(c)
		} else {
			kept = append(kept, c)
		}
	}
	s.stats.LearntDeleted += int64(len(s.learnts) - len(kept))
	s.learnts = kept
	if freed > 0 {
		s.compact(len(s.arena) - freed)
	}
}

// compact copies the clauses still listed in clauses and learnts, in
// that order, into a fresh arena of the given size and redirects every
// reference to them: the lists themselves, both watchers of each
// clause, and the reasons of the assigned variables (a reason is never
// deleted, see isReason). The old arena holds each clause's new address
// in its first literal's slot while that happens.
func (s *Solver) compact(words int) {
	old, idw := s.arena, s.idWords()
	s.arena = make([]uint32, 0, words)
	move := func(c cref) cref {
		start := c - 1 - learntWords*(old[c-1]&1) - idw
		moved := cref(len(s.arena)) + c - start
		s.arena = append(s.arena, old[start:c+old[c-1]>>1]...)
		old[c] = moved
		return moved
	}
	for i, c := range s.clauses {
		s.clauses[i] = move(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for _, ws := range s.watches {
		for i, w := range ws {
			ws[i].ref = old[w.ref&^binTag] | w.ref&binTag
		}
	}
	for _, l := range s.trail {
		if r := s.reason[vidx(l)]; r != crefUndef {
			s.reason[vidx(l)] = old[r]
		}
	}
}

// overMemBudget reports whether the live footprint exceeds the
// configured memory budget.
func (s *Solver) overMemBudget() bool {
	return s.opts.MemBudgetMB > 0 && s.LiveBytes() > s.opts.MemBudgetMB<<20
}

// shrinkForMem is the degrade-before-dying step: repeated emergency
// learnt-DB reductions until the footprint is back under budget or the
// DB stops shrinking (everything left is binary, reason, or base
// formula — nothing more can go). Returns true if the budget was
// recovered.
func (s *Solver) shrinkForMem() bool {
	for s.overMemBudget() {
		before := len(s.learnts)
		s.reduceDB()
		if len(s.learnts) == before {
			return false
		}
		s.stats.MemShrinks++
	}
	return true
}

// isReason reports whether c, of more than two literals, is the reason
// of an assignment: propagation keeps the implied literal first.
func (s *Solver) isReason(c cref) bool {
	l := s.arena[c]
	return s.vals[l] == lTrue && s.reason[vidx(l)] == c
}

// detach removes the two watchers of a clause of more than two
// literals, moving each list's last watcher into the gap.
func (s *Solver) detach(c cref) {
	for _, l := range [2]lit{s.arena[c], s.arena[c+1]} {
		ws := s.watches[l^1]
		for i, w := range ws {
			if w.ref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l^1] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// search runs CDCL until a model is found, the clause set is refuted,
// the conflict budget is exhausted, or the solver is interrupted.
func (s *Solver) search(conflictBudget int64) (Status, error) {
	var conflicts int64
	for {
		if s.interrupt.Load() {
			return Unknown, ErrInterrupted
		}
		confl := s.propagate()
		if confl != crefUndef {
			conflicts++
			s.stats.Conflicts++
			if s.Progress != nil && s.opts.ProgressEvery > 0 &&
				s.stats.Conflicts%s.opts.ProgressEvery == 0 {
				s.snapshotLevels()
				s.Progress(s.stats)
			}
			if s.decisionLevel() == 0 {
				s.refute(confl) // see Solve: final
				return Unsat, nil
			}
			learnt, btLevel, lbd := s.analyze(confl)
			if btLevel < s.decisionLevel()-1 {
				s.stats.Backjumps++
			}
			if s.graph != nil {
				s.graph.recordBackjump(btLevel)
			}
			s.cancelUntil(btLevel)
			c := s.recordLearnt(learnt, lbd)
			s.uncheckedEnqueue(learnt[0], c)
			s.decayVar()
			s.decayClause()
			if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
				return Unknown, nil
			}
			// Memory only grows at conflicts (learnt clauses), so the
			// budget check lives at the conflict boundary, like
			// MaxConflicts: degrade first, stop only if that fails.
			if s.overMemBudget() && !s.shrinkForMem() {
				s.cancelUntil(0)
				return Unknown, ErrMemBudget
			}
			continue
		}
		if conflictBudget >= 0 && conflicts >= conflictBudget {
			s.cancelUntil(0)
			return Unknown, nil
		}
		if int64(len(s.learnts)) > int64(len(s.clauses))/2+10000 {
			s.reduceDB()
		}
		next := s.pickBranchLit()
		if next == litUndef {
			// All variables assigned but the eliminated ones, which
			// get the values that satisfy the clauses removed with them.
			// The model is in the formula's numbering, as the stack is.
			n := s.NumVars()
			s.model = slices.Grow(s.model[:0], n)[:n]
			clear(s.model)
			for v := range s.numVars {
				s.model[s.extLit(lit(2*v+2)).Var()-1] = s.vals[2*v+2]
			}
			s.elimStack.extend(s.model)
			return Sat, nil
		}
		s.stats.Decisions++
		s.newDecisionLevel()
		if dl := s.decisionLevel(); dl > s.stats.MaxDepth {
			s.stats.MaxDepth = dl
		}
		if s.graph != nil {
			s.graph.recordDecision(s.decisionLevel(), s.extLit(next))
		}
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// Solve decides satisfiability under the given assumptions. Following the
// paper (Sect. 3.3, "Changes to the Propositional Solver"), assumptions are
// converted into unit clauses enqueued at decision level 0, a propagation
// step is forced, and the assigned literals are frozen: level-0 assignments
// are never backtracked, so the solver can never flip them, and they are
// retained across restarts.
//
// Freezing is permanent, exactly as in the paper's prototype (each
// sub-formula gets its own solver process): assumptions accumulate over
// repeated Solve calls on the same instance, and a later call whose
// assumption contradicts a frozen one returns Unsat. To explore
// different partitions, use a Solver per assumption set — fresh, or a
// Clone of one that holds the formula, as package parallel does. Since
// assumptions are permanent, an Unsat that a conflict at level 0 gave —
// the formula with every assumption so far refuted — is final for the
// instance and for its clones: every later Solve of either answers Unsat
// at once, whatever it assumes.
//
// Once per solver, at the first restart boundary where the search has
// made simplifyPropsPerClause propagations per original clause, Solve
// runs the simplification pass (simplify.go) on the clause set as it
// stands under the level-0 assignment, assumptions included. Nothing
// changes for the caller: Model gives the eliminated
// variables values that satisfy the formula as it was loaded, and
// the proof log carries every clause the pass derived, so it checks
// against that formula too. The one restriction is on what comes
// later. An eliminated variable's clauses are gone, and they are not
// restored: a later Solve that assumes over one refuses with
// ErrEliminated, AddClause over one panics, and a clause arriving
// through Import over one is dropped (it is a consequence of clauses
// the solver no longer needs).
func (s *Solver) Solve(assumptions ...cnf.Lit) (Status, error) {
	if !s.ok {
		return Unsat, nil
	}
	if s.mentionsEliminated(assumptions) {
		return Unknown, ErrEliminated
	}
	// Stamp the final progress estimate and learnt-DB size so Stats()
	// reflects where the search ended even when it finished between
	// Progress callbacks.
	defer s.snapshotLevels()
	s.cancelUntil(0)
	for _, a := range assumptions {
		if int(a.Var()) > s.NumVars() {
			s.growTo(int(a.Var()))
		}
		l := s.internLit(a)
		switch s.vals[l] {
		case lTrue:
			continue
		case lFalse:
			if s.proof != nil {
				s.logFrom(nil, []lit{l}, noID)
			}
			return Unsat, nil
		}
		s.frozen[vidx(l)] = true
		s.fix(l, noID)
	}
	// Forced propagation of the assumption units (paper Sect. 3.3): the
	// search then starts on an equisatisfiable but pruned formula.
	if !s.settle() {
		return Unsat, nil
	}

	for restart := int64(1); ; restart++ {
		if s.stats.Propagations >= s.simplifyAt*int64(len(s.clauses)) && !s.simplifyOnce() {
			return Unsat, nil
		}
		budget := int64(s.opts.RestartBase) * luby(restart)
		st, err := s.search(budget)
		if err != nil {
			return Unknown, err
		}
		if st != Unknown {
			return st, nil
		}
		if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
			return Unknown, nil
		}
		s.stats.Restarts++
		s.cancelUntil(0)
		if s.Import != nil {
			for _, lits := range s.Import() {
				if s.mentionsEliminated(lits) {
					continue
				}
				if !s.addClause(lits, s.takeID()) {
					return Unsat, nil
				}
			}
		}
	}
}

// Model returns the satisfying assignment found by the last successful
// Solve. Index v-1 holds the value of variable v. It is a model of the
// clauses as they were added: variables the simplification pass
// eliminated carry values that satisfy the clauses removed with them.
func (s *Solver) Model() []bool {
	out := make([]bool, s.NumVars())
	for i, v := range s.model {
		out[i] = v == lTrue
	}
	return out
}

// Frozen reports whether a variable was frozen by an assumption.
func (s *Solver) Frozen(v cnf.Var) bool {
	if int(v) > s.NumVars() {
		return false
	}
	i := s.varIndex(v)
	return i >= 0 && s.frozen[i]
}
