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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
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

// stdout is the dump destination, replaceable in tests.
var stdout io.Writer = os.Stdout

func main() {
	// `parbmc report …` is a subcommand with its own argument shape;
	// dispatch before flag.Parse sees the run flags.
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(reportMain(os.Args[2:]))
	}
	var (
		opts core.Options
		rec  runflags.Recorder

		input     = flag.String("i", "", "input program file")
		benchmark = flag.String("benchmark", "", "built-in benchmark name instead of -i")
		pso       = flag.Bool("pso", false, "analyse under PSO weak memory (per-variable store buffers)")
		tso       = flag.Bool("tso", false, "analyse under TSO weak memory (FIFO store buffers)")
		dimacs    = flag.String("dimacs", "", "export the propositional formula in DIMACS format and exit")
		dump      = flag.String("dump", "", "dump an intermediate artefact and exit: source | flat")
		showTrace = flag.Bool("trace", true, "print the counterexample schedule")
		quiet     = flag.Bool("q", false, "print only the verdict")
		stats     = flag.Bool("stats", false, "print per-phase timings and per-partition solver statistics")
	)
	flag.IntVar(&opts.Unwind, "unwind", 1, "loop/recursion unwinding bound")
	flag.IntVar(&opts.Contexts, "contexts", 0, "number of execution contexts")
	flag.IntVar(&opts.Rounds, "rounds", 0, "round-robin rounds (ablation mode, replaces --contexts)")
	flag.IntVar(&opts.Width, "width", 8, "integer bit width")
	flag.IntVar(&opts.Cores, "cores", 1, "parallel solver instances")
	flag.IntVar(&opts.Partitions, "partitions", 0, "trace-space partitions (power of two; default: cores)")
	flag.IntVar(&opts.From, "from", 0, "first partition index (distributed mode)")
	flag.IntVar(&opts.To, "to", 0, "one past the last partition index (distributed mode)")
	flag.BoolVar(&opts.CertifyUnsat, "certify", false, "check refutation proofs for UNSAT partitions (certified SAFE verdicts)")
	runflags.Journal(flag.CommandLine, &opts.JournalPath, &opts.Resume,
		"crash-safe run journal path (commit every partition verdict)",
		"resume from an existing -journal, skipping committed partitions")
	runflags.Budget(flag.CommandLine, &opts.Budget,
		"per-partition wall-clock budget (0: unbounded)",
		"per-partition solver conflict budget (0: unbounded)",
		"per-partition solver memory budget in MiB; over it the solver sheds learnt clauses, then records a memory-caused UNKNOWN (0: unbounded)")
	runflags.Split(flag.CommandLine, &opts.Split,
		"adaptive cube splitting: max extra split bits per partition (0 disables)",
		"minimum time since a partition was started before it may be split (default 15s)",
		"minimum live hardness before a partition qualifies for splitting (0: any straggler past -split-grace)")
	rec.Flags(flag.CommandLine, runflags.RecorderUsage{
		TraceOut:   "write pipeline phase spans as JSONL to this file",
		Report:     "write the run's flight-recorder report (JSON) to this file; render with `parbmc report`",
		ProfileDir: "capture per-phase pprof CPU+heap profiles (encode, solve) into this directory",
		PprofAddr:  "serve /debug/pprof and /healthz on this address",
	})
	flag.Parse()

	if err := rec.Open("parbmc", os.Stderr); err != nil {
		fatal(err)
	}
	defer rec.Close()
	opts.Tracer, opts.Profiler = rec.Tracer, rec.Profiler

	parseSpan := rec.Tracer.Start("parse")
	p, err := loadProgram(*input, *benchmark)
	parseSpan.End()
	if err != nil {
		fatal(err)
	}
	if *pso && *tso {
		fatal("--pso and --tso are mutually exclusive")
	}
	if *pso {
		p, err = weakmem.Transform(p)
	} else if *tso {
		p, err = weakmem.TransformTSO(p, 2)
	}
	if err != nil {
		fatal(err)
	}

	if *dump != "" || *dimacs != "" {
		if err := dumpArtefacts(p, *dump, *dimacs, opts.Unwind, opts.Contexts, opts.Rounds, opts.Width); err != nil {
			fatal(err)
		}
		return
	}

	// SIGTERM (the polite kill) must behave like SIGINT: cancel the run so
	// in-flight solving stops; committed journal records are already
	// durable, so even SIGKILL loses only uncommitted work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := core.Verify(ctx, p, opts)
	rec.ProfileErr()
	if err != nil {
		fatal(err)
	}

	if rec.Report != nil {
		name := *benchmark
		if name == "" {
			name = *input
		}
		rec.Report.SetManifest(report.Manifest{
			Program: name, Unwind: opts.Unwind, Contexts: opts.Contexts,
			Rounds: opts.Rounds, Width: opts.Width, Partitions: res.Partitions,
			Mode: "local", TraceID: rec.Tracer.TraceID(),
		})
		rec.Report.SetVerdict(res.Verdict.String(), time.Since(start))
		if res.JournalSealed {
			rec.Report.Warn(partition.SealWarning(res.SealCause))
		}
		recordRows(rec.Report, res)
		rec.WriteReport()
	}

	if *quiet {
		fmt.Println(res.Verdict)
	} else {
		fmt.Printf("verdict:    %v\n", res.Verdict)
		if opts.CertifyUnsat && res.Verdict == core.Safe {
			fmt.Printf("certified:  %v (refutation proofs checked)\n", res.Certified)
		}
		fmt.Printf("threads:    %d\n", res.Threads)
		fmt.Printf("formula:    %d variables, %d clauses\n", res.Vars, res.Clauses)
		fmt.Printf("partitions: %d (winner: %d)\n", res.Partitions, res.Winner)
		fmt.Printf("encode:     %v\n", res.EncodeTime)
		fmt.Printf("solve:      %v\n", res.SolveTime)
		if res.Resumed > 0 {
			fmt.Printf("resumed:    %d partitions replayed from %s\n", res.Resumed, opts.JournalPath)
		}
		if res.Splits > 0 || res.MaxCubeDepth > 0 {
			fmt.Printf("splits:     %d adaptive cube splits (max depth %d)\n", res.Splits, res.MaxCubeDepth)
		}
		if !res.Coverage.Complete() || res.Resumed > 0 || opts.Budget != (journal.Budget{}) {
			fmt.Printf("coverage:   %v\n", res.Coverage)
		}
		if res.JournalSealed {
			fmt.Println("WARNING:   ", partition.SealWarning(res.SealCause))
		}
		if *stats {
			for _, ph := range res.Phases {
				fmt.Printf("phase %-10s %v\n", ph.Name+":", ph.Duration)
			}
			if tpl := res.Template; tpl.Time > 0 {
				// The solver the partitions' solvers were cloned from: its
				// time is in no partition's, and what its pass eliminated is
				// eliminated for all of them.
				st := tpl.Stats
				fmt.Printf("template: %d cubes in %v — clauses=%d->%d elimvars=%d simplified=%d propagations=%d peakmembytes=%d\n",
					tpl.Cubes, tpl.Time, tpl.ClausesIn, tpl.ClausesOut, st.ElimVars, st.Simplified, st.Propagations, st.PeakMemBytes)
			}
			var peakMem int64
			for _, inst := range res.Instances {
				st := inst.Stats
				if st.PeakMemBytes > peakMem {
					peakMem = st.PeakMemBytes
				}
				fmt.Printf("partition %d: %s in %v — decisions=%d conflicts=%d elimvars=%d simplified=%d propagations=%d maxdepth=%d backjumps=%d restarts=%d progress=%.3f hardness=%.1f peakmembytes=%d\n",
					inst.Partition, inst.Status, inst.Time,
					st.Decisions, st.Conflicts, st.ElimVars, st.Simplified, st.Propagations, st.MaxDepth, st.Backjumps, st.Restarts, st.Progress, inst.Hardness, st.PeakMemBytes)
			}
			if peakMem > 0 {
				fmt.Printf("peak solver memory: %d bytes (max over partitions)\n", peakMem)
			}
		}
		if res.Verdict == core.Unsafe {
			if res.Violation != nil {
				fmt.Printf("violation:  %v\n", res.Violation)
			}
			if *showTrace && res.Trace != nil {
				fmt.Printf("schedule:   %v\n", res.Trace)
			}
		}
	}
	if res.Verdict == core.Unsafe {
		os.Exit(1)
	}
}

// fatal reports a usage or run failure and exits with status 2.
func fatal(msg any) {
	fmt.Fprintln(os.Stderr, "parbmc:", msg)
	os.Exit(2)
}

func loadProgram(input, benchmark string) (*prog.Program, error) {
	if benchmark != "" {
		switch benchmark {
		case "fibonacci":
			return bench.Fibonacci(2), nil
		case "boundedbuffer":
			return bench.Boundedbuffer(), nil
		case "eliminationstack":
			return bench.Eliminationstack(), nil
		case "safestack":
			return bench.Safestack(), nil
		case "workstealingqueue":
			return bench.Workstealingqueue(), nil
		default:
			return nil, fmt.Errorf("unknown benchmark %q", benchmark)
		}
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

// dumpArtefacts prints intermediate artefacts: the (re)formatted source,
// the flattened sequentialized structure (the Fig. 3 artefact), or the
// bit-blasted formula in DIMACS format with the partitioning variables
// announced in comments.
func dumpArtefacts(p *prog.Program, dump, dimacs string, unwind, contexts, rounds, width int) error {
	if dump == "source" {
		fmt.Fprint(stdout, prog.Format(p))
		return nil
	}
	opts := core.Options{Unwind: unwind, Contexts: contexts, Rounds: rounds, Width: width}
	enc, fp, _, err := core.EncodeProgram(p, opts)
	if err != nil {
		return err
	}
	switch dump {
	case "flat":
		return flatten.Format(stdout, fp)
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
		fmt.Fprintf(f, "c parbmc: unwind=%d contexts=%d rounds=%d width=%d\n", unwind, contexts, rounds, width)
		for i, l := range enc.TidLSBs {
			if l != 0 {
				fmt.Fprintf(f, "c partition-var context=%d dimacs=%d\n", i, l.Dimacs())
			}
		}
		return cnf.WriteDimacs(f, enc.Formula())
	}
	return nil
}
