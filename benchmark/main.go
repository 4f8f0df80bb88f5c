// Command benchmark is the repository's benchmark harness: it measures
// time to a verdict, CPU, memory and set-up time on four workloads, and
// in a separate traced run attributes the time to the layers of the
// pipeline. See README.md; /BENCHMARK.json is the contract it honours.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cnf"
)

func main() {
	var (
		cfg      config
		workload = flag.String("workload", "", "workload to run: proof_1core, proof_partitioned, quick_batch or distrib_loopback")
		seed     = flag.Int64("seed", 1, "seed for the job order inside each pass")
		seconds  = flag.Float64("seconds", 25, "how long to keep starting passes")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		aa       = flag.Int("aa", 0, "A/A mode: measure every workload (or only -workload) twice with this many seeds per set, from -seed up")
		dimacs   = flag.Bool("dimacs", false, "write the proof_1core formulas to <out>/<job>.cnf and exit")

		child  = flag.Bool("child", false, "internal: run one pass in this process and print it as JSON")
		extras = flag.Bool("extras", false, "internal: run the traced run's extra measurements and print them as JSON")
		calib  = flag.Bool("calib", false, "internal: time the calibration kernel once and print the seconds")
		pass   = flag.Int("pass", 0, "internal: pass number of -child")
	)
	flag.BoolVar(&cfg.Smoke, "smoke", false, "run each workload's tiny smoke jobs instead of its job table")
	flag.StringVar(&cfg.SrcDir, "src", "benchmark", "the benchmark's source directory")
	flag.StringVar(&cfg.BuildDir, "build", ".bench_build", "directory set-up builds the harness into")
	flag.StringVar(&cfg.OutDir, "out", filepath.Join("benchmark", "out"), "directory for reports, spans and DIMACS files")
	flag.Parse()

	err := func() error {
		var err error
		if cfg.BuildDir, err = filepath.Abs(cfg.BuildDir); err != nil {
			return err
		}
		switch {
		case *dimacs:
			return writeDimacs(cfg.OutDir)
		case *aa > 0:
			return runAA(cfg, *workload, *seed, *seconds, *aa)
		case *calib:
			return json.NewEncoder(os.Stdout).Encode(calibKernel())
		}
		w, err := findWorkload(*workload)
		if err != nil {
			return err
		}
		switch {
		case *child:
			res, err := runPass(w, cfg.Smoke, *seed, *pass, *trace == 1)
			if err != nil {
				return err
			}
			return json.NewEncoder(os.Stdout).Encode(res)
		case *extras:
			res, err := runExtras(w, cfg.Smoke)
			if err != nil {
				return err
			}
			return json.NewEncoder(os.Stdout).Encode(res)
		}
		rep, err := runWorkload(cfg, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		// Metrics first, verdict on them second: a failed job still
		// leaves every number printed.
		printTable(rep)
		fmt.Println(resultLine(rep))
		if len(rep.Problems) > 0 {
			return fmt.Errorf("%d problems, first: %s", len(rep.Problems), rep.Problems[0])
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// writeDimacs exports the proof_1core formulas so that anyone with a
// reference solver can time it on exactly what internal/sat is given.
func writeDimacs(outDir string) error {
	w, err := findWorkload("proof_1core")
	if err != nil {
		return err
	}
	jobs, err := passJobs(w, false, 0, 0)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, j := range jobs {
		enc, _, err := encodeJob(j, 0, 0)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, j.Name+".cnf")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := cnf.WriteDimacs(f, enc.Formula()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d vars, %d clauses)\n", path, enc.Formula().NumVars, enc.Formula().NumClauses())
	}
	return nil
}
