// Command satsolve is a standalone CDCL SAT solver over DIMACS CNF
// files, exposing the solver that backs the verifier (the reproduction's
// MiniSat 2.2 stand-in). It prints s SATISFIABLE / s UNSATISFIABLE and a
// v model line, following SAT-competition output conventions.
//
//	satsolve formula.cnf
//	satsolve -cores 4 -portfolio sharing formula.cnf
//	satsolve -assume "3 -7" formula.cnf
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/cmd/internal/runflags"
	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// emitAndCheckProof serialises the refutation to DRAT text and, with
// check, round-trips it through the parser and the RUP checker — so what
// is verified is the emitted artifact, not the in-memory log it came
// from.
func emitAndCheckProof(formula *cnf.Formula, assumptions []cnf.Lit, proof *sat.Proof, path string, check bool) error {
	var buf strings.Builder
	if err := sat.WriteDRAT(&buf, proof); err != nil {
		return err
	}
	text := buf.String()
	if path != "" {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Printf("c proof written to %s (%d lemmas, %d literals)\n", path, proof.NumLemmas(), proof.NumLits())
		if check {
			// Verify the file actually written, not the buffer.
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			text = string(data)
		}
	}
	if check {
		parsed, err := sat.ParseDRAT(strings.NewReader(text))
		if err != nil {
			return fmt.Errorf("proof re-parse failed: %w", err)
		}
		if err := sat.CheckRUP(formula, assumptions, parsed); err != nil {
			return fmt.Errorf("proof check failed: %w", err)
		}
		fmt.Printf("c proof verified (%d lemmas, %d literals)\n", parsed.NumLemmas(), parsed.NumLits())
	}
	return nil
}

func main() {
	var (
		rec       runflags.Recorder
		memBudget int64

		cores     = flag.Int("cores", 1, "parallel solver instances")
		style     = flag.String("portfolio", "sharing", "portfolio style: sharing | diverse")
		assume    = flag.String("assume", "", "space-separated DIMACS literals to assume")
		stats     = flag.Bool("stats", false, "print search statistics")
		noModel   = flag.Bool("no-model", false, "suppress the v line")
		maxConfl  = flag.Int64("max-conflicts", 0, "conflict budget (0 = unbounded)")
		progress  = flag.Int64("progress", 0, "print live search progress every N conflicts (0 disables)")
		proofPath = flag.String("proof", "", "on UNSAT, write a DRAT-style refutation proof to this file (single-instance mode)")
		check     = flag.Bool("check", false, "on UNSAT, re-parse the emitted proof and re-verify it by RUP checking (single-instance mode)")
	)
	runflags.MemBudget(flag.CommandLine, &memBudget, "per-instance solver memory budget in MiB; over it the solver sheds learnt clauses, then gives up UNKNOWN (0 = unbounded)")
	rec.Flags(flag.CommandLine, runflags.RecorderUsage{
		ProfileDir: "capture pprof CPU+heap profiles of the solve phase into this directory",
		PprofAddr:  "serve /debug/pprof and /healthz on this address",
	})
	flag.Parse()
	if err := rec.Open("satsolve", os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "satsolve:", err)
		os.Exit(2)
	}
	defer rec.Close()
	profiler := rec.Profiler
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: satsolve [flags] formula.cnf")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "satsolve:", err)
		os.Exit(2)
	}
	formula, err := cnf.ReadDimacs(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "satsolve:", err)
		os.Exit(2)
	}

	var assumptions []cnf.Lit
	for _, tok := range strings.Fields(*assume) {
		n, err := strconv.Atoi(tok)
		if err != nil || n == 0 {
			fmt.Fprintf(os.Stderr, "satsolve: bad assumption %q\n", tok)
			os.Exit(2)
		}
		assumptions = append(assumptions, cnf.FromDimacs(n))
	}

	var status sat.Status
	var model []bool
	var searchStats []sat.Stats

	// liveProgress prints one c-line per snapshot to stderr, so piping
	// the s/v lines stays clean while a long solve shows it is alive.
	liveProgress := func(instance int, st sat.Stats) {
		fmt.Fprintf(os.Stderr, "c progress instance=%d decisions=%d conflicts=%d propagations=%d restarts=%d estimate=%.6f\n",
			instance, st.Decisions, st.Conflicts, st.Propagations, st.Restarts, st.Progress)
	}

	budget := journal.Budget{Conflicts: *maxConfl, MemMB: memBudget}
	wantProof := *proofPath != "" || *check
	profiler.StartPhase("solve")
	if *cores > 1 && len(assumptions) == 0 {
		if wantProof {
			// Portfolio instances exchange clauses, so no single instance's
			// log is a self-contained refutation.
			fmt.Fprintln(os.Stderr, "satsolve: -proof/-check require single-instance mode (-cores 1)")
			os.Exit(2)
		}
		st := portfolio.StyleSharing
		if *style == "diverse" {
			st = portfolio.StyleDiverse
		}
		popts := portfolio.Options{Cores: *cores, Style: st, Budget: budget}
		if *progress > 0 {
			popts.Progress = liveProgress
			popts.ProgressEvery = *progress
		}
		res, err := portfolio.Solve(context.Background(), formula, popts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "satsolve:", err)
			os.Exit(2)
		}
		status, model, searchStats = res.Status, res.Model, res.Stats
	} else {
		s := sat.NewFromFormula(formula, sat.Options{
			MaxConflicts: budget.Conflicts, MemBudgetMB: budget.MemMB, ProgressEvery: *progress,
		})
		if *progress > 0 {
			s.Progress = func(st sat.Stats) { liveProgress(0, st) }
		}
		if wantProof {
			s.EnableProof()
		}
		status, err = s.Solve(assumptions...)
		if err == sat.ErrMemBudget {
			// A structured give-up, not a failure: report UNKNOWN with the
			// cause named, like a conflict-budget exhaustion.
			fmt.Printf("c memory budget exhausted (%d MiB, peak %d bytes)\n", memBudget, s.PeakBytes())
			status, err = sat.Unknown, nil
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "satsolve:", err)
			os.Exit(2)
		}
		if status == sat.Sat {
			model = s.Model()
		}
		searchStats = []sat.Stats{s.Stats()}
		if status == sat.Unsat && wantProof {
			if err := emitAndCheckProof(formula, assumptions, s.ProofLog(), *proofPath, *check); err != nil {
				fmt.Fprintln(os.Stderr, "satsolve:", err)
				os.Exit(2)
			}
		}
	}
	profiler.EndPhase("solve")
	rec.ProfileErr()
	for _, e := range profiler.Entries() {
		fmt.Printf("c profile %s %s written to %s (%d bytes)\n", e.Phase, e.Kind, e.Path, e.Bytes)
	}

	if *stats {
		for i, st := range searchStats {
			fmt.Printf("c instance %d: decisions=%d conflicts=%d elimvars=%d simplified=%d propagations=%d maxdepth=%d backjumps=%d restarts=%d progress=%.6f membytes=%d peakmembytes=%d memshrinks=%d\n",
				i, st.Decisions, st.Conflicts, st.ElimVars, st.Simplified, st.Propagations, st.MaxDepth, st.Backjumps, st.Restarts, st.Progress,
				st.MemBytes, st.PeakMemBytes, st.MemShrinks)
		}
	}
	switch status {
	case sat.Sat:
		fmt.Println("s SATISFIABLE")
		if !*noModel {
			var b strings.Builder
			b.WriteString("v")
			for v := 1; v <= formula.NumVars; v++ {
				lit := v
				if !model[v-1] {
					lit = -v
				}
				fmt.Fprintf(&b, " %d", lit)
			}
			b.WriteString(" 0")
			fmt.Println(b.String())
		}
		os.Exit(10)
	case sat.Unsat:
		fmt.Println("s UNSATISFIABLE")
		os.Exit(20)
	default:
		fmt.Println("s UNKNOWN")
	}
}
