package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	// childProcs is the GOMAXPROCS of every child: at most two solver
	// threads or two worker connections, the size of the reference box.
	childProcs = 2
	// setupRounds is how often a run sets up; setup_s is their median.
	setupRounds = 5
)

// passRun is one pass as the parent saw it: the child's own report
// plus what the kernel accounted to the child process.
type passRun struct {
	PassResult
	// WallS is the sum over the pass's jobs of source text → verdict.
	WallS float64 `json:"pass_wall_s"`
	CPUS  float64 `json:"cpu_s"`
	RSSMB float64 `json:"peak_rss_mb"`
}

// config says where things are; the defaults suit a run from the
// checkout root through run.sh.
type config struct {
	SrcDir   string // the benchmark's own directory
	BuildDir string // where set-up builds the harness
	OutDir   string // reports, spans, DIMACS
	Smoke    bool   // tiny jobs instead of the real tables
}

// spawn runs the harness binary as a child and decodes the JSON
// document it prints into out.
func spawn(exe string, out any, args ...string) (*syscall.Rusage, error) {
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, fmt.Errorf("child %v: bad output: %w", args, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("child %v: no rusage", args)
	}
	return ru, nil
}

func spawnPass(exe string, cfg config, w Workload, seed int64, pass int, traced bool, oracle Oracle) (*passRun, error) {
	args := []string{"-child", "-workload", w.Name, "-seed", fmt.Sprint(seed), "-pass", fmt.Sprint(pass)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	run := &passRun{}
	ru, err := spawn(exe, &run.PassResult, args...)
	if err != nil {
		return nil, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	run.CPUS = tv(ru.Utime) + tv(ru.Stime)
	run.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	for i := range run.Jobs {
		oracle.check(&run.Jobs[i])
		run.WallS += run.Jobs[i].WallS
	}
	return run, nil
}

// setupOnce is everything that happens before the first timed pass:
// build the harness from source (the Go build cache is warm after the
// launcher's own build), load and cross-check the oracle, and run one
// discarded warm-up pass of the workload's smoke jobs on the binary
// just built. It returns that binary for the timed passes.
func setupOnce(cfg config, w Workload, seed int64, round int) (exe string, oracle Oracle, took time.Duration, err error) {
	// An up-to-date binary would let go build skip the link.
	exe = filepath.Join(cfg.BuildDir, fmt.Sprintf("pbench-setup-%d", os.Getpid()))
	os.Remove(exe)
	start := time.Now()
	build := exec.Command("go", "build", "-o", exe, ".")
	build.Dir = cfg.SrcDir
	if out, berr := build.CombinedOutput(); berr != nil {
		return "", nil, 0, fmt.Errorf("go build: %v\n%s", berr, out)
	}
	if oracle, err = loadOracle(cfg.SrcDir); err != nil {
		return "", nil, 0, err
	}
	warm := cfg
	warm.Smoke = true
	run, err := spawnPass(exe, warm, w, seed, -1-round, false, oracle)
	if err != nil {
		return "", nil, 0, err
	}
	for _, row := range run.Jobs {
		if row.Fail != "" {
			return "", nil, 0, fmt.Errorf("warm-up job %s: %s", row.Job, row.Fail)
		}
	}
	return exe, oracle, time.Since(start), nil
}

// Report is the full record of one run, written to OutDir; the result
// line on stdout carries only what the driver reads.
type Report struct {
	Env      map[string]any      `json:"env"`
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Seconds  float64             `json:"seconds"`
	Traced   bool                `json:"traced"`
	EndToEnd map[string]E2EValue `json:"end_to_end,omitempty"`
	// Calib is the host-speed record the end-to-end times were scaled by
	// (calib.go); traced runs report unscaled times and have none.
	Calib    *Calibration       `json:"calibration,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// SelfS is the traced passes' self time (duration minus children)
	// summed by span name, from the last traced pass.
	SelfS     map[string]float64 `json:"self_s,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Problems lists every failed job and every deterministic counter
	// that differed between two passes; empty on a correct run.
	Problems []string `json:"problems,omitempty"`
	// Det is, per job, every deterministic counter the run saw; all
	// passes of a correct run agree on it.
	Det    map[string]map[string]float64 `json:"det"`
	Passes []passRun                     `json:"passes"`
	Extras *Extras                       `json:"extras,omitempty"`
}

// E2EValue is one end-to-end metric: Value is what the result line
// carries, the median of the samples, for a time scaled to the reference
// clock; Summary describes the samples as measured.
type E2EValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Summary
	Bound float64 `json:"bound"`
}

// runWorkload is one invocation of the benchmark: set up, run passes
// of one workload in fresh child processes for `seconds`, aggregate.
// Untraced runs produce the end-to-end metrics and time the calibration
// kernel between passes. Traced runs alternate untraced and traced
// passes, so the per-layer numbers and the tracing overhead come from
// passes made side by side, and finish with the extras child.
func runWorkload(cfg config, w Workload, seed int64, seconds float64, traced bool) (*Report, error) {
	rep := &Report{Env: environment(seed), Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced}
	var exe string
	var oracle Oracle
	var err error
	var setups []float64
	var calib *calibrator
	if traced {
		// The launcher built this binary; set-up time is an end-to-end
		// metric and is measured by untraced runs only.
		if exe, err = os.Executable(); err != nil {
			return nil, err
		}
		if oracle, err = loadOracle(cfg.SrcDir); err != nil {
			return nil, err
		}
	} else {
		if err = os.MkdirAll(cfg.BuildDir, 0o755); err != nil {
			return nil, err
		}
		if calib, err = newCalibrator(); err != nil {
			return nil, err
		}
		for round := 0; round < setupRounds; round++ {
			var took time.Duration
			if exe, oracle, took, err = setupOnce(cfg, w, seed, round); err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		defer os.Remove(exe)
	}

	start := time.Now()
	for pass := 0; ; pass++ {
		if calib != nil {
			if err := calib.sampleIfDue(); err != nil {
				return nil, err
			}
		}
		run, err := spawnPass(exe, cfg, w, seed, pass, traced && pass%2 == 1, oracle)
		if err != nil {
			return nil, err
		}
		rep.Passes = append(rep.Passes, *run)
		// Stop once the budget is spent, but always after a whole
		// number of untraced/traced pairs in a traced run.
		if time.Since(start).Seconds() >= seconds && (!traced || pass%2 == 1) {
			break
		}
	}
	if calib != nil {
		if err := calib.sample(); err != nil {
			return nil, err
		}
	}
	if traced {
		rep.Extras = &Extras{}
		args := []string{"-extras", "-workload", w.Name}
		if cfg.Smoke {
			args = append(args, "-smoke")
		}
		if _, err := spawn(exe, rep.Extras, args...); err != nil {
			return nil, err
		}
	}

	// Failures and determinism.
	rep.Det = map[string]map[string]float64{}
	for _, p := range rep.Passes {
		for _, row := range p.Jobs {
			rep.Attempted++
			if row.Fail != "" {
				rep.Failed++
				rep.Problems = append(rep.Problems, fmt.Sprintf("pass %d job %s: %s", p.Pass, row.Job, row.Fail))
				continue
			}
			rep.Problems = append(rep.Problems, mergeDet(rep.Det, row.Job, row.Det, fmt.Sprintf("pass %d", p.Pass))...)
		}
	}

	if traced {
		rep.PerLayer = layerMetrics(w, rep)
		last := rep.Passes[len(rep.Passes)-1] // a traced run ends on a traced pass
		rep.SelfS = map[string]float64{}
		for i, d := range selfTimes(last.Spans) {
			rep.SelfS[last.Spans[i].Name] += d.Seconds()
		}
	} else {
		var wall, cpu, rss []float64
		for _, p := range rep.Passes {
			wall, cpu, rss = append(wall, p.WallS), append(cpu, p.CPUS), append(rss, p.RSSMB)
		}
		samples := map[string][]float64{"verdict_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "setup_s": setups}
		c := calib.result()
		rep.Calib = &c
		rep.EndToEnd = map[string]E2EValue{}
		for _, m := range endToEnd {
			v := E2EValue{Unit: m.Unit, Summary: summarize(samples[m.Name]), Bound: m.Bound}
			v.Value = v.Median
			if m.Unit == "s" {
				v.Value *= c.Factor
			}
			rep.EndToEnd[m.Name] = v
		}
	}
	return rep, writeReport(cfg, rep)
}

// mergeDet adds one job's deterministic counters to what has been seen
// so far and reports every counter that now has two values.
func mergeDet(seen map[string]map[string]float64, job string, det map[string]float64, where string) (problems []string) {
	if seen[job] == nil {
		seen[job] = map[string]float64{}
	}
	for _, k := range sortedKeys(det) {
		if prev, ok := seen[job][k]; ok && prev != det[k] {
			problems = append(problems, fmt.Sprintf("%s job %s: %s = %v, was %v before", where, job, k, det[k], prev))
			continue
		}
		seen[job][k] = det[k]
	}
	return problems
}

// layerMetrics folds the traced passes into the per-layer metrics:
// times and counts are summed over a pass's jobs, rates and ratios are
// taken from those sums, and each metric is the median over the traced
// passes. Deterministic counters are the same in every pass, so their
// median is their value.
func layerMetrics(w Workload, rep *Report) map[string]float64 {
	perPass := map[string][]float64{}
	var tracedWall, untracedWall []float64
	for _, p := range rep.Passes {
		if !p.Traced {
			untracedWall = append(untracedWall, p.WallS)
			continue
		}
		tracedWall = append(tracedWall, p.WallS)
		sum := map[string]float64{}
		var slowestTimesN, jobsAll, solveAll float64
		for _, row := range p.Jobs {
			j, _ := parseJob(row.Job)
			for k, v := range row.Det {
				sum[k] += v
			}
			for k, v := range row.Layers {
				if w.Distrib && j.NoCert {
					continue // the uncertified job reports through the two lines below only
				}
				sum[k] += v
			}
			if w.Distrib {
				jobsAll += row.Det["distrib.jobs"]
				solveAll += row.Layers["distrib.solve_s"]
				if j.NoCert {
					sum["distrib.cert_off_wall_s"] += row.Layers["distrib.wall_s"]
				}
			}
			slowestTimesN += row.Layers["parallel.slowest_s"] * row.Det["partition.count"]
		}
		ratio := func(name string, num, den float64) {
			if den > 0 {
				sum[name] = num / den
			}
		}
		ratio("vc.clauses_per_s", sum["vc.clauses"], sum["vc.encode_s"])
		ratio("cnf.short_clause_share", sum["cnf.short_clauses"], sum["vc.clauses"])
		ratio("sat.props_per_s", sum["sat.propagations"], sum["sat.search_s"])
		ratio("sat.conflicts_per_s", sum["sat.conflicts"], sum["sat.search_s"])
		ratio("parallel.efficiency", sum["parallel.busy_s"], float64(w.Workers)*sum["parallel.solve_s"])
		ratio("parallel.imbalance", slowestTimesN, sum["parallel.busy_s"])
		ratio("parallel.redundancy", sum["sat.conflicts"], rep.Extras.Det["parallel.baseline_conflicts"])
		ratio("distrib.nonsolve_cpu_per_job_ms", (p.CPUS-solveAll)*1000, jobsAll)
		for k, v := range sum {
			perPass[k] = append(perPass[k], v)
		}
	}
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = median(perPass[m.Name])
	}
	for _, src := range []map[string]float64{rep.Extras.Det, rep.Extras.Layers} {
		for k, v := range src {
			if _, ok := out[k]; ok {
				out[k] = v
			}
		}
	}
	if len(untracedWall) > 0 {
		out["trace.overhead_ratio"] = median(tracedWall) / median(untracedWall)
	}
	return out
}

// resultLine is the last line of stdout, in the driver's format.
func resultLine(rep *Report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if rep.Traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{rep.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{rep.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.Problems) == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	return string(line)
}

func writeReport(cfg config, rep *Report) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	kind := "untraced"
	if rep.Traced {
		kind = "traced"
		f, err := os.Create(filepath.Join(cfg.OutDir, "trace-"+rep.Workload+".jsonl"))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		enc := json.NewEncoder(bw)
		write := func(pass int, spans []Span) {
			for _, s := range spans {
				_ = enc.Encode(struct {
					Pass int `json:"pass"`
					Span
				}{pass, s}) // a write error surfaces at Flush
			}
		}
		for _, p := range rep.Passes {
			write(p.Pass, p.Spans)
		}
		write(-1, rep.Extras.Spans)
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.OutDir, fmt.Sprintf("report-%s-%s.json", rep.Workload, kind)), data, 0o644)
}

// printTable is the human-readable form of the report, on stderr.
func printTable(rep *Report) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s  seed %d  passes %d  jobs %d  failed %d\n", rep.Workload, rep.Seed, len(rep.Passes), rep.Attempted, rep.Failed)
	if rep.Traced {
		fmt.Fprintln(tw, "metric\tvalue\tunit\texact")
		for _, m := range perLayer {
			exact := ""
			if m.Det {
				exact = "="
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", m.Name, rep.PerLayer[m.Name], m.Unit, exact)
		}
	} else {
		fmt.Fprintf(tw, "calibration kernel %.4f s (median of %d), reference clock %.4f s: times scaled by %.4f\n",
			median(rep.Calib.Samples), len(rep.Calib.Samples), rep.Calib.RefS, rep.Calib.Factor)
		fmt.Fprintln(tw, "metric\tvalue\tmedian\tmin\tmax\tn\tunit\tbound")
		for _, m := range endToEnd {
			v := rep.EndToEnd[m.Name]
			fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%s\t+%.0f%%\n", m.Name, v.Value, v.Median, v.Min, v.Max, v.N, m.Unit, 100*m.Bound)
		}
	}
	tw.Flush()
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "PROBLEM:", p)
	}
}

func environment(seed int64) map[string]any {
	env := map[string]any{
		"go":               runtime.Version(),
		"nproc":            runtime.NumCPU(),
		"child_gomaxprocs": childProcs,
		"seed":             seed,
		"setup_rounds":     setupRounds,
		"commit":           "unknown",
		"cpu":              "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// sortedKeys is used wherever map order would otherwise reach output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
