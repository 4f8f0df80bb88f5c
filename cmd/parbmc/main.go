// Command parbmc is the paper's prototype verifier (Sect. 3.4): parallel
// and distributed context-bounded model checking of multi-threaded
// programs via symbolic partitioning of the interleavings.
//
// Parallel analysis over 8 cores on a single machine:
//
//	parbmc -i program.mt --unwind 2 --contexts 5 --cores 8
//
// Distributed analysis over two 4-core machines (the paper's --from/--to
// interface, half-open ranges):
//
//	parbmc -i program.mt --unwind 2 --contexts 5 --cores 8 --from 0 --to 4
//	parbmc -i program.mt --unwind 2 --contexts 5 --cores 8 --from 4 --to 8
//
// Built-in benchmark programs can be selected with --benchmark
// (fibonacci, boundedbuffer, eliminationstack, safestack,
// workstealingqueue).
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cmd/internal/runflags"
	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/flatten"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/weakmem"
	"repro/prog"
)

func main() { os.Exit(runflags.Main("parbmc", run)) }

// flags are parbmc's own flags, beside core.Options and the shared
// groups.
type flags struct {
	input, benchmark, dimacs, dump    string
	pso, tso, showTrace, quiet, stats bool
}

// run is parbmc's whole process, from its arguments to its exit code: 0
// SAFE or UNKNOWN, 1 UNSAFE, 2 when the run fails.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	// `parbmc report …` is a subcommand with its own argument shape;
	// dispatch before the run flags see it.
	if len(args) > 1 && args[1] == "report" {
		return reportMain(args[2:], stdout, stderr), nil
	}
	var (
		opts core.Options
		f    flags
	)
	proc := runflags.New("parbmc", args, stdout, stderr)
	fs := proc.Flags
	fs.StringVar(&f.input, "i", "", "input program file")
	fs.StringVar(&f.benchmark, "benchmark", "", "built-in benchmark name instead of -i")
	fs.BoolVar(&f.pso, "pso", false, "analyse under PSO weak memory (per-variable store buffers)")
	fs.BoolVar(&f.tso, "tso", false, "analyse under TSO weak memory (FIFO store buffers)")
	fs.StringVar(&f.dimacs, "dimacs", "", "export the propositional formula in DIMACS format and exit")
	fs.StringVar(&f.dump, "dump", "", "dump an intermediate artefact and exit: source | flat")
	fs.BoolVar(&f.showTrace, "trace", true, "print the counterexample schedule")
	fs.BoolVar(&f.quiet, "q", false, "print only the verdict")
	fs.BoolVar(&f.stats, "stats", false, "print per-phase timings and per-partition solver statistics")
	fs.IntVar(&opts.Unwind, "unwind", 1, "loop/recursion unwinding bound")
	fs.IntVar(&opts.Contexts, "contexts", 0, "number of execution contexts")
	fs.IntVar(&opts.Rounds, "rounds", 0, "round-robin rounds (ablation mode, replaces --contexts)")
	fs.IntVar(&opts.Width, "width", 8, "integer bit width")
	fs.IntVar(&opts.Cores, "cores", 1, "parallel solver instances")
	fs.IntVar(&opts.Partitions, "partitions", 0, "trace-space partitions (power of two; default: cores)")
	fs.IntVar(&opts.From, "from", 0, "first partition index (distributed mode)")
	fs.IntVar(&opts.To, "to", 0, "one past the last partition index (distributed mode)")
	fs.BoolVar(&opts.CertifyUnsat, "certify", true, "check refutation proofs for UNSAT partitions (certified SAFE verdicts)")
	runflags.Journal(fs, &opts.JournalPath, &opts.Resume,
		"crash-safe run journal path (commit every partition verdict)",
		"resume from an existing -journal, skipping committed partitions")
	runflags.Budget(fs, &opts.Budget,
		"per-partition wall-clock budget (0: unbounded)",
		"per-partition solver conflict budget (0: unbounded)",
		"per-partition solver memory budget in MiB; over it the solver sheds learnt clauses, then records a memory-caused UNKNOWN (0: unbounded)")
	runflags.Split(fs, &opts.Split,
		"adaptive cube splitting: max extra split bits per partition (0 disables)",
		"minimum time since a partition was started before it may be split (default 15s)")
	proc.Rec.Flags(fs, runflags.RecorderUsage{
		TraceOut:   "write pipeline phase spans as JSONL to this file",
		Report:     "write the run's flight-recorder report (JSON) to this file; render with `parbmc report`",
		ProfileDir: "capture per-phase pprof CPU+heap profiles (encode, solve) into this directory",
		PprofAddr:  "serve /debug/pprof and /healthz on this address",
	})
	return proc.Run(ctx, func(ctx context.Context) (int, error) { return verify(ctx, proc, f, opts) })
}

// verify loads the program, dumps it or verifies it, files the run in
// the report and prints the verdict.
func verify(ctx context.Context, proc *runflags.Process, f flags, opts core.Options) (int, error) {
	rec := &proc.Rec
	opts.Tracer, opts.Profiler = rec.Tracer, rec.Profiler
	parseSpan := rec.Tracer.Start("parse")
	p, err := loadProgram(f.input, f.benchmark)
	parseSpan.End()
	if err != nil {
		return 2, err
	}
	if f.pso && f.tso {
		return 2, errors.New("--pso and --tso are mutually exclusive")
	}
	if f.pso {
		p, err = weakmem.Transform(p)
	} else if f.tso {
		p, err = weakmem.TransformTSO(p, 2)
	}
	if err != nil {
		return 2, err
	}
	if f.dump != "" || f.dimacs != "" {
		return 0, dumpArtefacts(proc.Stdout, p, f.dump, f.dimacs, opts)
	}

	name := f.benchmark
	if name == "" {
		name = f.input
	}
	// A run that fails before core derived its manifest reports no bounds.
	manifest := report.Manifest{Program: name, Mode: "local", TraceID: rec.Tracer.TraceID()}
	rec.Report.SetManifest(manifest)
	start := time.Now()
	res, err := core.Verify(ctx, p, opts)
	if err != nil {
		return 2, err
	}
	manifest.Manifest = res.Manifest
	rec.Report.SetManifest(manifest)
	rec.Report.SetVerdict(res.Verdict.String(), time.Since(start))
	if res.JournalSealed {
		rec.Report.Warn(partition.SealWarning(res.SealCause))
	}
	recordRows(rec.Report, res)

	if f.quiet {
		fmt.Fprintln(proc.Stdout, res.Verdict)
	} else {
		printResult(proc.Stdout, res, opts, f.stats, f.showTrace)
	}
	if res.Verdict == core.Unsafe {
		return 1, nil
	}
	return 0, nil
}

// printResult prints the verdict and what the run did: certification,
// formula size, partitions, resume, splits, coverage, a sealed journal,
// with stats the phases and every partition's search, and on UNSAFE the
// violation and its schedule.
func printResult(w io.Writer, res *core.Result, opts core.Options, stats, showTrace bool) {
	fmt.Fprintf(w, "verdict:    %v\n", res.Verdict)
	if opts.CertifyUnsat && res.Verdict == core.Safe {
		fmt.Fprintf(w, "certified:  %v (refutation proofs checked)\n", res.Certified)
	}
	fmt.Fprintf(w, "threads:    %d\n", res.Threads)
	fmt.Fprintf(w, "formula:    %d variables, %d clauses\n", res.Vars, res.Clauses)
	fmt.Fprintf(w, "partitions: %d (winner: %d)\n", res.Partitions, res.Winner)
	fmt.Fprintf(w, "encode:     %v\n", res.EncodeTime)
	fmt.Fprintf(w, "solve:      %v\n", res.SolveTime)
	if res.Resumed > 0 {
		fmt.Fprintf(w, "resumed:    %d partitions replayed from %s\n", res.Resumed, opts.JournalPath)
	}
	if res.Splits > 0 || res.MaxCubeDepth > 0 {
		fmt.Fprintf(w, "splits:     %d adaptive cube splits (max depth %d)\n", res.Splits, res.MaxCubeDepth)
	}
	if !res.Coverage.Complete() || res.Resumed > 0 || opts.Budget != (journal.Budget{}) {
		fmt.Fprintf(w, "coverage:   %v\n", res.Coverage)
	}
	if res.JournalSealed {
		fmt.Fprintln(w, "WARNING:   ", partition.SealWarning(res.SealCause))
	}
	if stats {
		for _, ph := range res.Phases {
			fmt.Fprintf(w, "phase %-10s %v\n", ph.Name+":", ph.Duration)
		}
		if tpl := res.Template; tpl.Time > 0 {
			// The solver the partitions' solvers were cloned from: its
			// time is in no partition's, and what its pass eliminated is
			// eliminated for all of them.
			st := tpl.Stats
			fmt.Fprintf(w, "template: %d cubes in %v — vars=%d->%d clauses=%d->%d elimvars=%d simplified=%d propagations=%d peakmembytes=%d\n",
				tpl.Cubes, tpl.Time, tpl.VarsIn, tpl.VarsOut, tpl.ClausesIn, tpl.ClausesOut, st.ElimVars, st.Simplified, st.Propagations, st.PeakMemBytes)
		}
		var peakMem int64
		for _, inst := range res.Instances {
			st := inst.Stats
			peakMem = max(peakMem, st.PeakMemBytes)
			fmt.Fprintf(w, "partition %d: %s in %v — decisions=%d conflicts=%d elimvars=%d simplified=%d propagations=%d maxdepth=%d backjumps=%d restarts=%d progress=%.3f hardness=%.1f peakmembytes=%d\n",
				inst.Partition, inst.Status, inst.Time,
				st.Decisions, st.Conflicts, st.ElimVars, st.Simplified, st.Propagations, st.MaxDepth, st.Backjumps, st.Restarts, st.Progress, partition.Hardness(st.Conflicts, st.Progress, inst.Time), st.PeakMemBytes)
		}
		if peakMem > 0 {
			fmt.Fprintf(w, "peak solver memory: %d bytes (max over partitions)\n", peakMem)
		}
	}
	if res.Verdict == core.Unsafe {
		if res.Violation != nil {
			fmt.Fprintf(w, "violation:  %v\n", res.Violation)
		}
		if showTrace && res.Trace != nil {
			fmt.Fprintf(w, "schedule:   %v\n", res.Trace)
		}
	}
}

// benchmarks are the built-in programs -benchmark names.
var benchmarks = map[string]func() *prog.Program{
	"fibonacci":         func() *prog.Program { return bench.Fibonacci(2) },
	"boundedbuffer":     bench.Boundedbuffer,
	"eliminationstack":  bench.Eliminationstack,
	"safestack":         bench.Safestack,
	"workstealingqueue": bench.Workstealingqueue,
}

func loadProgram(input, benchmark string) (*prog.Program, error) {
	if benchmark != "" {
		if p := benchmarks[benchmark]; p != nil {
			return p(), nil
		}
		return nil, fmt.Errorf("unknown benchmark %q", benchmark)
	}
	if input == "" {
		return nil, fmt.Errorf("either -i or --benchmark is required")
	}
	data, err := os.ReadFile(input)
	if err != nil {
		return nil, err
	}
	return prog.Parse(string(data))
}

// dumpArtefacts prints intermediate artefacts to w: the (re)formatted
// source, the flattened sequentialized structure (the Fig. 3 artefact),
// or the bit-blasted formula in DIMACS format with the partitioning
// variables announced in comments. Only the bounds and width of opts
// matter.
func dumpArtefacts(w io.Writer, p *prog.Program, dump, dimacs string, opts core.Options) error {
	if dump == "source" {
		fmt.Fprint(w, prog.Format(p))
		return nil
	}
	opts = core.Options{Unwind: opts.Unwind, Contexts: opts.Contexts, Rounds: opts.Rounds, Width: opts.Width}
	enc, fp, _, err := core.EncodeProgram(p, opts)
	if err != nil {
		return err
	}
	switch dump {
	case "flat":
		return flatten.Format(w, fp)
	case "":
	default:
		return fmt.Errorf("unknown dump artefact %q (want source | flat)", dump)
	}
	if dimacs != "" {
		f, err := os.Create(dimacs)
		if err != nil {
			return err
		}
		defer f.Close()
		// Comment header: the partitioning variables (tid LSBs), so
		// external solvers can reproduce the trace-space partitioning.
		fmt.Fprintf(f, "c parbmc: unwind=%d contexts=%d rounds=%d width=%d\n", opts.Unwind, opts.Contexts, opts.Rounds, opts.Width)
		for i, l := range enc.TidLSBs {
			if l != 0 {
				fmt.Fprintf(f, "c partition-var context=%d dimacs=%d\n", i, l.Dimacs())
			}
		}
		return cnf.WriteDimacs(f, enc.TakeFormula())
	}
	return nil
}
