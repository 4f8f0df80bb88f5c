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
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/cmd/internal/runflags"
	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

func main() { os.Exit(runflags.Main("satsolve", run)) }

// run is satsolve's whole process, from its arguments to its exit code,
// by SAT-competition convention: 10 SATISFIABLE, 20 UNSATISFIABLE, 0
// UNKNOWN (a budget given up, or the solve interrupted), 2 an error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	var memBudget int64
	proc := runflags.New("satsolve", args, stdout, stderr)
	fs := proc.Flags
	var (
		cores     = fs.Int("cores", 1, "parallel solver instances")
		style     = fs.String("portfolio", "sharing", "portfolio style: sharing | diverse")
		assume    = fs.String("assume", "", "space-separated DIMACS literals to assume")
		stats     = fs.Bool("stats", false, "print search statistics")
		noModel   = fs.Bool("no-model", false, "suppress the v line")
		maxConfl  = fs.Int64("max-conflicts", 0, "conflict budget (0 = unbounded)")
		progress  = fs.Int64("progress", 0, "print live search progress every N conflicts (0 disables)")
		proofPath = fs.String("proof", "", "on UNSAT, write a DRAT-style refutation proof to this file (single-instance mode)")
		check     = fs.Bool("check", false, "on UNSAT, check the refutation the solver logged, along its antecedent chains (single-instance mode)")
	)
	runflags.MemBudget(fs, &memBudget, "per-instance solver memory budget in MiB; over it the solver sheds learnt clauses, then gives up UNKNOWN (0 = unbounded)")
	proc.Rec.Flags(fs, runflags.RecorderUsage{
		ProfileDir: "capture pprof CPU+heap profiles of the solve phase into this directory",
		PprofAddr:  "serve /debug/pprof and /healthz on this address",
	})
	return proc.Run(ctx, func(ctx context.Context) (int, error) {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: satsolve [flags] formula.cnf")
			return 2, nil
		}
		formula, err := readDimacs(fs.Arg(0))
		if err != nil {
			return 2, err
		}
		var assumptions []cnf.Lit
		for _, tok := range strings.Fields(*assume) {
			n, err := strconv.Atoi(tok)
			if err != nil || n == 0 || n < -cnf.MaxVar || n > cnf.MaxVar {
				return 2, fmt.Errorf("bad assumption %q", tok)
			}
			assumptions = append(assumptions, cnf.FromDimacs(n))
		}

		// live prints one c-line per snapshot to stderr, so piping the
		// s/v lines stays clean while a long solve shows it is alive.
		live := func(instance int, st sat.Stats) {
			fmt.Fprintf(stderr, "c progress instance=%d decisions=%d conflicts=%d propagations=%d restarts=%d estimate=%.6f\n",
				instance, st.Decisions, st.Conflicts, st.Propagations, st.Restarts, st.Progress)
		}
		budget := journal.Budget{Conflicts: *maxConfl, MemMB: memBudget}
		portfolioMode := *cores > 1 && len(assumptions) == 0
		if portfolioMode && (*proofPath != "" || *check) {
			// Portfolio instances exchange clauses, so no single
			// instance's log is a self-contained refutation.
			return 2, errors.New("-proof/-check require single-instance mode (-cores 1)")
		}
		var res *portfolio.Result
		proc.Rec.Profiler.StartPhase("solve")
		if portfolioMode {
			st := portfolio.StyleSharing
			if *style == "diverse" {
				st = portfolio.StyleDiverse
			}
			res, err = portfolio.Solve(ctx, formula, portfolio.Options{
				Cores: *cores, Style: st, Budget: budget, Progress: live, ProgressEvery: *progress,
			})
		} else {
			res, err = solveOne(ctx, stdout, formula, assumptions, budget, *progress, live, *proofPath, *check)
		}
		proc.Rec.Profiler.EndPhase("solve")
		if err != nil {
			return 2, err
		}
		for _, e := range proc.Rec.Profiler.Entries() {
			fmt.Fprintf(stdout, "c profile %s %s written to %s (%d bytes)\n", e.Phase, e.Kind, e.Path, e.Bytes)
		}
		return printAnswer(stdout, res, formula.NumVars, *stats, *noModel), nil
	})
}

// printAnswer prints the statistics with stats, the s line and, unless
// noModel, a model's v line, and returns the answer's exit code.
func printAnswer(w io.Writer, res *portfolio.Result, vars int, stats, noModel bool) int {
	if stats {
		for i, st := range res.Stats {
			fmt.Fprintf(w, "c instance %d: decisions=%d conflicts=%d elimvars=%d simplified=%d propagations=%d maxdepth=%d backjumps=%d restarts=%d progress=%.6f membytes=%d peakmembytes=%d memshrinks=%d\n",
				i, st.Decisions, st.Conflicts, st.ElimVars, st.Simplified, st.Propagations, st.MaxDepth, st.Backjumps, st.Restarts, st.Progress,
				st.MemBytes, st.PeakMemBytes, st.MemShrinks)
		}
	}
	switch res.Status {
	case sat.Sat:
		fmt.Fprintln(w, "s SATISFIABLE")
		if !noModel {
			var b strings.Builder
			b.WriteString("v")
			for v := 1; v <= vars; v++ {
				lit := v
				if !res.Model[v-1] {
					lit = -v
				}
				fmt.Fprintf(&b, " %d", lit)
			}
			b.WriteString(" 0")
			fmt.Fprintln(w, b.String())
		}
		return 10
	case sat.Unsat:
		fmt.Fprintln(w, "s UNSATISFIABLE")
		return 20
	}
	fmt.Fprintln(w, "s UNKNOWN")
	return 0
}

func readDimacs(path string) (*cnf.Formula, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cnf.ReadDimacs(f)
}

// solveOne runs a single solver, which ctx interrupts. A memory budget
// exhausted or an interrupt is a give-up, not a failure: the status is
// UNKNOWN, with the memory cause named on stdout. With a proof path or
// check, an UNSAT answer's refutation is emitted and checked.
func solveOne(ctx context.Context, stdout io.Writer, formula *cnf.Formula, assumptions []cnf.Lit, budget journal.Budget,
	progress int64, live func(int, sat.Stats), proofPath string, check bool) (*portfolio.Result, error) {
	s := sat.New(formula.NumVars, sat.Options{
		MaxConflicts: budget.Conflicts, MemBudgetMB: budget.MemMB, ProgressEvery: progress,
	})
	s.Progress = func(st sat.Stats) { live(0, st) }
	wantProof := proofPath != "" || check
	if wantProof {
		s.EnableProof()
	}
	s.AddFormula(formula)
	defer context.AfterFunc(ctx, s.Interrupt)()
	status, err := s.Solve(assumptions...)
	switch err {
	case sat.ErrMemBudget:
		fmt.Fprintf(stdout, "c memory budget exhausted (%d MiB, peak %d bytes)\n", budget.MemMB, s.PeakBytes())
		status, err = sat.Unknown, nil
	case sat.ErrInterrupted:
		err = nil
	}
	if err != nil {
		return nil, err
	}
	res := &portfolio.Result{Status: status, Stats: []sat.Stats{s.Stats()}}
	if status == sat.Sat {
		res.Model = s.Model()
	}
	if status == sat.Unsat && wantProof {
		return res, emitAndCheckProof(stdout, formula, assumptions, s.ProofLog(), proofPath, check)
	}
	return res, nil
}

// emitAndCheckProof writes the refutation as DRAT text, for external
// checkers, and with check puts the proof the solver logged — its
// antecedent chains, which the text has no place for, included — to the
// RUP checker.
func emitAndCheckProof(stdout io.Writer, formula *cnf.Formula, assumptions []cnf.Lit, proof sat.Proof, path string, check bool) error {
	if path != "" {
		var buf strings.Builder
		if err := sat.WriteDRAT(&buf, proof); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "c proof written to %s (%d lemmas, %d literals)\n", path, proof.NumLemmas(), proof.NumLits())
	}
	if check {
		if err := sat.CheckRUP(formula, assumptions, proof); err != nil {
			return fmt.Errorf("proof check failed: %w", err)
		}
		fmt.Fprintf(stdout, "c proof verified (%d lemmas, %d literals)\n", proof.NumLemmas(), proof.NumLits())
	}
	return nil
}
