// Package core ties the whole toolchain together into the paper's
// parallel bounded model checking workflow (Sect. 3.3):
//
//	program → unfold(u) → flatten → encode(contexts) → partition(2^p)
//	        → parallel solve (first SAT wins) → decode + validate trace
//
// It is the programmatic equivalent of the paper's prototype command
// line (Sect. 3.4): unwind bound, context bound, number of cores, and an
// optional partition subrange for distribution over multiple machines.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/cnf"
	"repro/internal/flatten"
	"repro/internal/interp"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/internal/trace"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/prog"
)

// Verdict is the analysis outcome.
type Verdict int

const (
	// Unknown means the analysis was cancelled or hit a budget.
	Unknown Verdict = iota
	// Safe means no assertion violation exists within the bounds.
	Safe
	// Unsafe means a reachable assertion violation was found.
	Unsafe
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "SAFE"
	case Unsafe:
		return "UNSAFE"
	default:
		return "UNKNOWN"
	}
}

// VerdictOf is the one map from the cubes' folded answer
// (partition.Summary.Status) to the run's verdict.
func VerdictOf(s sat.Status) Verdict {
	switch s {
	case sat.Sat:
		return Unsafe
	case sat.Unsat:
		return Safe
	}
	return Unknown
}

// Options configures the analysis.
type Options struct {
	// Unwind is the loop/recursion unwinding bound (default 1).
	Unwind int
	// Contexts is the context bound (context-bounded mode, default 1;
	// the paper's --contexts is the number of context switches, i.e.
	// Contexts-1).
	Contexts int
	// Rounds, when > 0, selects the original round-robin scheduler with
	// the given round bound instead of context bounding (ablation mode).
	Rounds int
	// Width is the integer bit width (default 8).
	Width int
	// Cores is the number of solver instances running concurrently
	// (default 1).
	Cores int
	// Partitions is the number of trace-space partitions (a power of
	// two; default max(1, Cores) rounded up to a power of two, capped by
	// the encoding).
	Partitions int
	// From/To restrict the analysis to the half-open partition index
	// range [From, To) (distributed mode); From = To = 0 means all.
	From, To int
	// SimulateParallel computes the parallel wall time by deterministic
	// makespan simulation over sequentially measured per-partition solve
	// times instead of actually running Cores goroutines. Exact for this
	// technique (solvers do not cooperate); intended for hosts with fewer
	// physical cores than Cores. See parallel.Simulate. Incompatible with
	// Split: a sequential simulation has no idle worker to split a
	// straggler.
	SimulateParallel bool
	// CertifyUnsat checks a clausal refutation proof for every UNSAT
	// partition against the encoding as emitted (the solver's own
	// simplification logs what it derives), so Safe verdicts are
	// certified independently of the search; a resume re-solves what no
	// check stands behind. The counterpart of counterexample replay.
	CertifyUnsat bool
	// KeepProofs records the refutation proof of every UNSAT partition
	// and retains it on the corresponding Result.Instances entry instead
	// of checking it locally, for a caller that checks it elsewhere.
	KeepProofs bool
	// Budget bounds each partition's wall clock, solver conflicts and
	// solver memory. A partition that exhausts part of it degrades to
	// Unknown, listed under that budget in the coverage report, instead
	// of stalling the whole run.
	Budget journal.Budget
	// Split enables in-process adaptive cube splitting (Split.Depth > 0):
	// an idle solver slot splits the cube of the hardest partition that
	// was started at least Split.Grace ago on the next canonical split
	// literal, taking one half and queueing the other. See
	// parallel.Options.
	Split partition.SplitPolicy
	// JournalPath, when non-empty, records the run manifest and every
	// partition verdict in a crash-safe append-only journal at that path,
	// so an interrupted run can be resumed without re-solving committed
	// partitions. A pre-existing journal is refused unless Resume is set.
	JournalPath string
	// Resume permits JournalPath to name an existing journal: its
	// manifest must match this run (program hash, bounds, partition
	// count) or Verify fails with journal.ErrManifestMismatch.
	Resume bool
	// Tracer, when non-nil, emits one timed span per pipeline phase
	// (unfold, flatten, encode, partition, solve — with the solver
	// template as its child — and validate) under a root "verify" span.
	// Nil is the zero-overhead fast path.
	Tracer *obs.Tracer
	// Profiler, when non-nil, captures pprof CPU/heap profiles
	// bracketing the encode (unfold+flatten+encode) and solve phases —
	// the -profile-dir machinery. Nil is the zero-overhead fast path.
	Profiler *obs.Profiler

	// span is the enclosing span for sub-phase emission; set by Verify
	// so EncodeProgram's phases nest under the "verify" root.
	span *obs.Span
}

// phase opens a span for one pipeline phase, nested under the Verify
// root span when called from Verify, or a root span when the phase
// helpers (EncodeProgram, MakePartitions) are used standalone.
func (o *Options) phase(name string, attrs ...obs.Attr) *obs.Span {
	if o.span != nil {
		return o.span.Child(name, attrs...)
	}
	return o.Tracer.Start(name, attrs...)
}

// PhaseTiming is one pipeline phase's wall-clock cost, in execution
// order. The same data the tracer emits as spans, kept on the Result so
// callers (parbmc -stats) need no sink round-trip.
type PhaseTiming struct {
	Name     string
	Duration time.Duration
}

func (o *Options) setDefaults() {
	if o.Unwind == 0 {
		o.Unwind = 1
	}
	if o.Contexts == 0 && o.Rounds == 0 {
		o.Contexts = 1
	}
	if o.Width == 0 {
		o.Width = 8
	}
	if o.Cores == 0 {
		o.Cores = 1
	}
}

// Coverage reports how much of the trace space a run actually decided:
// partitions that hit a budget are listed under the budget they
// exhausted, so an Unknown verdict names its cause instead of being
// silent about which chunks gave up.
type Coverage struct {
	// Total is the number of partitions in the run.
	Total int
	// Decided is the number that reached a definite SAT/UNSAT verdict
	// (including verdicts replayed from a resume journal).
	Decided int
	// Timeout, ConflictBudget, Memory and Cancelled list the partition
	// indices that ended Unknown, keyed by why.
	Timeout        []int
	ConflictBudget []int
	Memory         []int
	Cancelled      []int
}

// Complete reports whether every partition was decided.
func (c Coverage) Complete() bool { return c.Decided == c.Total }

func (c Coverage) String() string {
	s := fmt.Sprintf("%d/%d partitions decided", c.Decided, c.Total)
	if c.Complete() {
		return s
	}
	if len(c.Timeout) > 0 {
		s += fmt.Sprintf(", timeout: %v", c.Timeout)
	}
	if len(c.ConflictBudget) > 0 {
		s += fmt.Sprintf(", conflict-budget: %v", c.ConflictBudget)
	}
	if len(c.Memory) > 0 {
		s += fmt.Sprintf(", memory: %v", c.Memory)
	}
	if len(c.Cancelled) > 0 {
		s += fmt.Sprintf(", cancelled: %v", c.Cancelled)
	}
	return s
}

// buildCoverage classifies per-partition outcomes.
func buildCoverage(total int, pres *parallel.Result) Coverage {
	c := Coverage{Total: total}
	for _, inst := range pres.Instances {
		switch {
		case inst.Status != sat.Unknown:
			c.Decided++
		case inst.Cause == sat.CauseTimeout:
			c.Timeout = append(c.Timeout, inst.Partition)
		case inst.Cause == sat.CauseConflictBudget:
			c.ConflictBudget = append(c.ConflictBudget, inst.Partition)
		case inst.Cause == sat.CauseMemory:
			c.Memory = append(c.Memory, inst.Partition)
		default:
			c.Cancelled = append(c.Cancelled, inst.Partition)
		}
	}
	return c
}

// Result reports the analysis outcome and its cost metrics, mirroring
// the columns of Table 2 in the paper.
type Result struct {
	// Verdict is SAFE / UNSAFE / UNKNOWN.
	Verdict Verdict
	// Trace is the decoded counterexample (Verdict == Unsafe).
	Trace *trace.Trace
	// Model is the raw satisfying assignment Trace was decoded from
	// (Verdict == Unsafe) — the SAT half of a verdict certificate: any
	// party holding the same encoding can re-evaluate the formula and
	// replay the decoded trace without trusting this run's solver.
	Model []bool
	// Violation is the replayed assertion failure (Verdict == Unsafe).
	Violation *interp.Violation

	// Vars and Clauses are the propositional formula size.
	Vars, Clauses int
	// Threads is the number of static thread instances.
	Threads int
	// ThreadProcs names the source procedure of each static thread.
	ThreadProcs []string
	// Partitions is the number of partitions actually analysed.
	Partitions int
	// Winner is the partition that found the bug (-1 if none).
	Winner int

	// EncodeTime and SolveTime split the wall-clock cost. SolveTime is
	// the whole solve phase: the template (below) and the partitions.
	EncodeTime time.Duration
	SolveTime  time.Duration
	// Phases breaks the run into per-phase wall-clock timings
	// (unfold, flatten, encode, partition, template, solve, validate) in
	// execution order; phases that did not run are absent. "template" is
	// the serial first step of "solve" and counted in it too.
	Phases []PhaseTiming
	// Template accounts for the solver the formula was loaded into — and
	// simplified in, when there were several partitions to solve — before
	// the per-partition solvers were cloned from it: work that belongs to
	// the run, not to any of Instances.
	Template parallel.TemplateResult

	// Instances are the per-partition solver results.
	Instances []parallel.InstanceResult
	// Certified reports that every UNSAT partition carried a checked
	// refutation proof (CertifyUnsat only); CertifyWork is what the run's
	// proof checker did.
	Certified   bool
	CertifyWork sat.ProofCheckerStats
	// Coverage classifies every partition outcome; on an Unknown verdict
	// it names which partitions exhausted which budget.
	Coverage Coverage
	// Resumed is the number of partition verdicts replayed from the
	// journal instead of re-solved (JournalPath with Resume).
	Resumed int
	// Splits counts adaptive cube splits performed by this run;
	// MaxCubeDepth is the deepest cube path reached (Options.Split).
	Splits       int
	MaxCubeDepth int
	// JournalSealed reports that the resume journal hit a write or sync
	// failure mid-run (disk full, I/O error) and sealed itself read-only;
	// the run finished journal-less from that point, so crash resume
	// covers only the verdicts committed before the seal. SealCause is
	// the underlying failure.
	JournalSealed bool
	SealCause     string
	// Manifest is the run that was analysed, as its journal pins it.
	Manifest journal.Manifest
}

// Verify runs the full pipeline on a checked program: prepare, then run
// what it prepared, under one "verify" span, every phase its child.
func Verify(ctx context.Context, p *prog.Program, opts Options) (res *Result, err error) {
	opts.setDefaults()
	// Every option-combination check comes before the first side effect:
	// a refused call must leave nothing behind (no journal file) that
	// would make the corrected call fail differently.
	if opts.SimulateParallel && opts.Split.Depth > 0 {
		return nil, fmt.Errorf("core: Split.Depth is incompatible with SimulateParallel: the simulation solves the partitions one after another, so no worker is ever idle to split a straggler (measure adaptive splitting with real concurrent runs)")
	}
	root := opts.Tracer.Start("verify",
		obs.KV("unwind", opts.Unwind), obs.KV("contexts", opts.Contexts),
		obs.KV("rounds", opts.Rounds), obs.KV("width", opts.Width),
		obs.KV("cores", opts.Cores))
	opts.span = root
	defer func() {
		if err != nil {
			root.End(obs.KV("error", err.Error()))
		} else {
			root.End(obs.KV("verdict", res.Verdict.String()))
		}
	}()
	pr, err := prepare(p, opts)
	if err != nil {
		return nil, err
	}
	if res, err = pr.run(ctx, opts); err != nil {
		return nil, err
	}
	res.EncodeTime = pr.timing.Total()
	res.Phases = append(slices.Clip(pr.phases), res.Phases...)
	// Every kept proof leaves whole: the template's log, then the
	// partition's own.
	var prefix sat.Proof
	for i := range res.Instances {
		inst := &res.Instances[i]
		if inst.Proof == nil {
			continue
		}
		if prefix == nil {
			if prefix, err = pr.template.Prefix(ctx); err != nil {
				return nil, err
			}
		}
		inst.Proof = append(prefix, inst.Proof...) // capped: a copy, never nil
	}
	return res, nil
}

// Prepared is the half of an analysis that is the same for every cube of
// a run: the program encoded, all of its partitions and the canonical
// split literals made, and the solver template every cube's solver is
// cloned from (parallel.Template), which the first run builds. It is a
// function of the program and of the options that say what the run is —
// the bounds, Partitions, Budget, the proof switches, Split — and of
// nothing else. A distributed run's coordinator prepares it once: it
// builds the template and ships it, hands out each cube's assumptions,
// and checks every certificate against the encoding; a worker holds the
// template alone (parallel.Restored).
type Prepared struct {
	enc *vc.Encoded
	// digest is the hash of the formula's clauses as encoded, which every
	// re-derivation of it must match (reencode).
	digest    uint64
	parts     []partition.Partition // the run's, all of them
	splitLits []cnf.Lit             // partition.SplitLits, whether or not the run can be handed a path
	// popts are the options that shape the template; a Run adds its own
	// (workers, hooks, journal) to them.
	popts         parallel.Options
	template      *parallel.Template
	manifest      journal.Manifest
	vars, clauses int // of the formula
	timing        EncodeTiming
	phases        []PhaseTiming // unfold, flatten, encode, partition
}

// Prepare runs the front half of the pipeline for the run opts describe.
// From and To there say only that the run is one whose cubes arrive
// from outside, as assumption literals a range at a time (distributed
// mode): the template then leaves every split literal to them, as it
// does under Split.
func Prepare(p *prog.Program, opts Options) (*Prepared, error) {
	opts.setDefaults()
	return prepare(p, opts)
}

// Encoded, Partitions and SplitLits are what a cube's index and path
// mean in this run; the coordinator checks certificates against them.
// Encoded().Formula() is nil in every run: the template holds the
// formula until its solver and the run's proof checker have loaded it,
// and Template().Formula() gives it back after that, made again on the
// program the run holds (reencode); Vars is its variable count.
func (pr *Prepared) Encoded() *vc.Encoded { return pr.enc }

func (pr *Prepared) Vars() int { return pr.vars }

func (pr *Prepared) Partitions() []partition.Partition { return pr.parts }

func (pr *Prepared) SplitLits() []cnf.Lit { return pr.splitLits }

// Template is the solver template of the run.
func (pr *Prepared) Template() *parallel.Template { return pr.template }

// Manifest is the run over all of its partitions: the program hash, the
// bounds with their defaults applied, and as many partitions as the
// encoding allowed, which may be fewer than were asked for.
func (pr *Prepared) Manifest() journal.Manifest { return pr.manifest }

func prepare(p *prog.Program, opts Options) (*Prepared, error) {
	// The profile brackets mirror the phase spans: one capture around
	// the front half (unfold → encode), one around the solve phase.
	opts.Profiler.StartPhase("encode")
	enc, _, timing, err := EncodeProgram(p, opts)
	opts.Profiler.EndPhase("encode")
	if err != nil {
		return nil, err
	}
	pr := &Prepared{enc: enc, timing: timing, phases: []PhaseTiming{
		{Name: "unfold", Duration: timing.Unfold},
		{Name: "flatten", Duration: timing.Flatten},
		{Name: "encode", Duration: timing.Encode},
	}}

	partSpan := opts.phase("partition")
	partStart := time.Now()
	whole := opts
	whole.From, whole.To = 0, 0
	if pr.parts, _, err = MakePartitions(enc, whole); err != nil {
		partSpan.End(obs.KV("error", err.Error()))
		return nil, err
	}
	pr.splitLits = partition.SplitLits(enc, len(pr.parts))
	pr.phases = append(pr.phases, PhaseTiming{Name: "partition", Duration: time.Since(partStart)})
	partSpan.End(obs.KV("partitions", len(pr.parts)))
	pr.manifest = journal.Manifest{
		ProgramSHA256: journal.HashProgram(prog.Format(p)),
		Unwind:        opts.Unwind, Contexts: opts.Contexts, Rounds: opts.Rounds, Width: opts.Width,
		Partitions: len(pr.parts), To: len(pr.parts),
	}

	pr.popts = parallel.Options{
		CertifyUnsat: opts.CertifyUnsat, KeepProofs: opts.KeepProofs,
		Budget: opts.Budget, Split: opts.Split,
	}
	if opts.Split.Depth > 0 || opts.From != 0 || opts.To != 0 {
		pr.popts.SplitLits = pr.splitLits
	}
	// Only the template holds the formula from here on, and only until
	// its solver and the run's checker have loaded it.
	f := enc.TakeFormula()
	pr.vars, pr.clauses, pr.digest = f.NumVars, f.NumClauses(), formulaDigest(f)
	pr.template = parallel.Prepare(f, pr.reencode, pr.parts, pr.popts)
	return pr, nil
}

// reencode runs the encoder again on the flattened program the run
// holds, with the options it ran with, for the few that read the formula
// after the template's build (the coordinator's check of a model against
// every clause): the encoder is deterministic, so the formula it makes
// is the run's, every clause as the template loaded it, and the digest
// taken at Prepare says so — a mismatch is an error, never another
// formula.
func (pr *Prepared) reencode() (*cnf.Formula, error) {
	again, err := vc.Encode(pr.enc.Program, pr.enc.Opts)
	if err != nil {
		return nil, fmt.Errorf("core: encoding the run again: %w", err)
	}
	f := again.TakeFormula()
	if formulaDigest(f) != pr.digest {
		return nil, fmt.Errorf("core: the encoding made again (%d variables, %d clauses) is not the run's (%d, %d)",
			f.NumVars, f.NumClauses(), pr.vars, pr.clauses)
	}
	return f, nil
}

// formulaDigest hashes a formula's variable count and its clauses, in
// order, each a step of FNV-1a over 64-bit words: a step is a bijection
// of the state for any one word, so a formula that differs from the
// run's in one literal, one clause length or the variable count always
// differs in its digest, and one that differs in more collides with odds
// of about 2^-64. Every run pays for it: on the two-core reference box
// it takes 0.3 ms over es.u2.c6's 75 thousand clauses, where SHA-256 of
// the same took 2.1–2.5 ms.
func formulaDigest(f *cnf.Formula) uint64 {
	const prime = 0x100000001b3
	h := (0xcbf29ce484222325 ^ uint64(f.NumVars)) * prime
	f.Each(func(c cnf.Clause) {
		h = (h ^ uint64(len(c))) * prime
		for _, l := range c {
			h = (h ^ uint64(l)) * prime
		}
	})
	return h
}

// run solves the cubes opts selects — the partitions [From, To) — on
// clones of the prepared template, and decodes and replays a
// counterexample. A kept proof (KeepProofs) is the partition's
// own log, which continues the template's (Template().Prefix); Verify
// returns it whole.
func (pr *Prepared) run(ctx context.Context, opts Options) (*Result, error) {
	enc := pr.enc
	parts, err := selectPartitions(pr.parts, opts)
	if err != nil {
		return nil, err
	}
	man := pr.manifest // of the whole run, or of the range selected
	if opts.From != 0 || opts.To != 0 {
		man.From, man.To = opts.From, opts.To
	}
	jnl, err := journal.OpenRun(opts.JournalPath, opts.Resume, man)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	jnl.SetParent(opts.span)

	popts := pr.popts
	popts.Workers, popts.Journal = opts.Cores, jnl
	popts.CertifyUnsat, popts.KeepProofs = opts.CertifyUnsat, opts.KeepProofs
	solveSpan := opts.phase("solve",
		obs.KV("partitions", len(parts)), obs.KV("workers", opts.Cores),
		obs.KV("vars", pr.vars), obs.KV("clauses", pr.clauses))
	solveStart := time.Now()
	opts.Profiler.StartPhase("solve")
	var pres *parallel.Result
	if opts.SimulateParallel {
		pres, err = pr.template.Simulate(ctx, parts, popts)
	} else {
		pres, err = pr.template.Solve(ctx, parts, popts)
	}
	opts.Profiler.EndPhase("solve")
	if err != nil {
		solveSpan.End(obs.KV("error", err.Error()))
		return nil, err
	}
	var phases []PhaseTiming
	if tpl := pres.Template; tpl.Time > 0 {
		phases = append(phases, PhaseTiming{Name: "template", Duration: tpl.Time})
		solveSpan.Record("template", tpl.Time,
			obs.KV("clauses_in", tpl.ClausesIn), obs.KV("clauses_out", tpl.ClausesOut),
			obs.KV("elim_vars", tpl.Stats.ElimVars), obs.KV("cubes", tpl.Cubes))
	}
	phases = append(phases, PhaseTiming{Name: "solve", Duration: time.Since(solveStart)})
	solveSpan.End(obs.KV("status", pres.Status.String()), obs.KV("winner", pres.Winner))

	procs := make([]string, len(enc.Program.Threads))
	for i, th := range enc.Program.Threads {
		procs[i] = th.Proc
	}
	res := &Result{
		Certified:    pres.Certified,
		CertifyWork:  pres.CertifyWork,
		Vars:         pr.vars,
		Clauses:      pr.clauses,
		Threads:      len(enc.Program.Threads),
		ThreadProcs:  procs,
		Partitions:   len(parts),
		Winner:       pres.Winner,
		SolveTime:    pres.Wall,
		Template:     pres.Template,
		Instances:    pres.Instances,
		Coverage:     buildCoverage(len(parts), pres),
		Resumed:      pres.Resumed,
		Splits:       pres.Splits,
		MaxCubeDepth: pres.MaxCubeDepth,
		Manifest:     man,
	}
	res.JournalSealed = pres.JournalSealed
	res.SealCause = pres.JournalSealCause
	res.Verdict = VerdictOf(pres.Status)
	if pres.Status == sat.Sat {
		res.Model = pres.Model
		res.Trace = trace.Decode(enc, pres.Model)
		valSpan := opts.phase("validate")
		valStart := time.Now()
		viol, verr := trace.Validate(enc, res.Trace)
		if verr != nil {
			valSpan.End(obs.KV("error", verr.Error()))
			return nil, fmt.Errorf("core: counterexample validation failed: %w", verr)
		}
		phases = append(phases, PhaseTiming{Name: "validate", Duration: time.Since(valStart)})
		valSpan.End()
		res.Violation = viol
	}
	res.Phases = phases
	return res, nil
}

// EncodeTiming splits the front half of the pipeline (unfold, flatten,
// encode) into per-phase wall-clock costs. The encode phase covers
// verification-condition generation and the interleaved Tseitin CNF
// conversion (the bit-vector builder emits clauses as it goes, so the
// two are not separable).
type EncodeTiming struct {
	Unfold  time.Duration
	Flatten time.Duration
	Encode  time.Duration
}

// Total is the summed front-half cost (the Result.EncodeTime quantity).
func (t EncodeTiming) Total() time.Duration { return t.Unfold + t.Flatten + t.Encode }

// EncodeProgram runs the front half of the pipeline (unfold, flatten,
// encode) and returns the encoded formula with per-phase timings.
// Exposed for the benchmark harness, which reuses one encoding across
// many solver configurations.
func EncodeProgram(p *prog.Program, opts Options) (*vc.Encoded, *flatten.Program, EncodeTiming, error) {
	opts.setDefaults()
	var timing EncodeTiming

	unfoldSpan := opts.phase("unfold", obs.KV("unwind", opts.Unwind))
	start := time.Now()
	up, err := unfold.Unfold(p, unfold.Options{Unwind: opts.Unwind})
	timing.Unfold = time.Since(start)
	unfoldSpan.End()
	if err != nil {
		return nil, nil, timing, err
	}

	flatSpan := opts.phase("flatten")
	start = time.Now()
	fp, err := flatten.Flatten(up)
	timing.Flatten = time.Since(start)
	flatSpan.End()
	if err != nil {
		return nil, nil, timing, err
	}

	vopts := vc.Options{Width: opts.Width}
	if opts.Rounds > 0 {
		vopts.Mode = vc.RoundRobin
		vopts.Rounds = opts.Rounds
	} else {
		vopts.Contexts = opts.Contexts
	}
	encSpan := opts.phase("encode")
	start = time.Now()
	enc, err := vc.Encode(fp, vopts)
	timing.Encode = time.Since(start)
	if err != nil {
		encSpan.End(obs.KV("error", err.Error()))
		return nil, nil, timing, err
	}
	vars, clauses := enc.Size()
	encSpan.End(obs.KV("vars", vars), obs.KV("clauses", clauses))
	return enc, fp, timing, nil
}

// MakePartitions builds the partition list for the encoded formula,
// applying the Partitions/Cores defaulting and the From/To subrange.
// total is the full partition count before the subrange slice — the
// quantity that gives a partition index its meaning (and the one the
// resume journal's manifest must pin).
func MakePartitions(enc *vc.Encoded, opts Options) (parts []partition.Partition, total int, err error) {
	opts.setDefaults()
	nparts := opts.Partitions
	if nparts == 0 {
		nparts = 1
		for nparts < opts.Cores {
			nparts *= 2
		}
	}
	if max := partition.MaxPartitions(enc); nparts > max {
		nparts = max
	}
	all, err := partition.Make(enc, nparts)
	if err != nil {
		return nil, 0, err
	}
	parts, err = selectPartitions(all, opts)
	return parts, len(all), err
}

// selectPartitions cuts the subrange [From, To) out of a run's
// partitions (From = To = 0: all of them).
func selectPartitions(all []partition.Partition, opts Options) ([]partition.Partition, error) {
	if opts.From == 0 && opts.To == 0 {
		return all, nil
	}
	if opts.From < 0 || opts.From >= opts.To || opts.To > len(all) {
		return nil, fmt.Errorf("core: invalid partition range [%d,%d) of %d", opts.From, opts.To, len(all))
	}
	return all[opts.From:opts.To], nil
}
