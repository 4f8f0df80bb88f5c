package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/prog"
)

// Job is one verification: (program, memory model, unwind, contexts,
// partitions), run with its workload's worker count and transport.
type Job struct {
	Name string
	// Prog is the program key (see programSource); TSO > 0 analyses it
	// under TSO with that store-buffer depth.
	Prog             string
	TSO              int
	Unwind, Contexts int
	// Partitions is 1 for the unpartitioned problem.
	Partitions int
	// NoCert (distributed jobs only) turns certification and the journal
	// off, so the same transport is measured without proofs.
	NoCert bool
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// parseJob decodes <prog>[.tso<d>].u<unwind>.c<contexts>[.p<partitions>][.nocert].
func parseJob(name string) (Job, error) {
	j := Job{Name: name, Partitions: 1}
	bad := func() (Job, error) { return Job{}, fmt.Errorf("bad job name %q", name) }
	if !nameRE.MatchString(name) {
		return bad()
	}
	fields := strings.Split(name, ".")
	j.Prog = fields[0]
	num := func(f, prefix string) (int, bool) {
		if !strings.HasPrefix(f, prefix) {
			return 0, false
		}
		n, err := strconv.Atoi(f[len(prefix):])
		return n, err == nil && n > 0
	}
	rest := fields[1:]
	if len(rest) > 0 {
		if n, ok := num(rest[0], "tso"); ok {
			j.TSO, rest = n, rest[1:]
		}
	}
	if len(rest) < 2 {
		return bad()
	}
	var ok bool
	if j.Unwind, ok = num(rest[0], "u"); !ok {
		return bad()
	}
	if j.Contexts, ok = num(rest[1], "c"); !ok {
		return bad()
	}
	rest = rest[2:]
	if len(rest) > 0 {
		if n, ok := num(rest[0], "p"); ok {
			j.Partitions, rest = n, rest[1:]
		}
	}
	if len(rest) > 0 && rest[0] == "nocert" {
		j.NoCert, rest = true, rest[1:]
	}
	if len(rest) > 0 {
		return bad()
	}
	if _, err := programSource(j.Prog); err != nil {
		return Job{}, fmt.Errorf("job %q: %w", name, err)
	}
	return j, nil
}

// programSource returns the source text the job starts from. The
// programs are the repo's own benchmark models; the harness formats
// them back to text so that every job pays for parsing, as a user's
// input file would.
func programSource(key string) (string, error) {
	var p *prog.Program
	switch key {
	case "es":
		p = bench.Eliminationstack()
	case "ss":
		p = bench.Safestack()
	case "ws":
		p = bench.Workstealingqueue()
	case "bb":
		p = bench.Boundedbuffer()
	case "wsfix":
		p = bench.WorkstealingqueueFixed()
	case "bbfix":
		p = bench.BoundedbufferFixed()
	default:
		n, err := strconv.Atoi(strings.TrimPrefix(key, "fib"))
		if !strings.HasPrefix(key, "fib") || err != nil || n < 1 {
			return "", fmt.Errorf("unknown program %q", key)
		}
		p = bench.Fibonacci(n)
	}
	return prog.Format(p), nil
}

// Workload is a named set of jobs run once per pass.
type Workload struct {
	Name string
	// Workers is the number of solver threads (in-process jobs) or
	// worker connections (distributed jobs) each job gets.
	Workers int
	// Distrib runs the jobs through distrib.Coordinate + distrib.Work
	// over 127.0.0.1 TCP instead of core.Verify.
	Distrib bool
	Jobs    []string
	// Smoke is the tiny stand-in pass used as the set-up warm-up and by
	// the unit tests; it exercises the same code path in well under a
	// second.
	Smoke []string
}

// The job tables. README.md says why each job is here and what it
// measured on the reference box; expected.json holds every verdict.
var workloads = []Workload{
	{
		Name:    "proof_1core",
		Workers: 1,
		Jobs:    []string{"es.u2.c6", "wsfix.u2.c6"},
		Smoke:   []string{"fib2.u2.c6"},
	},
	{
		Name:    "proof_partitioned",
		Workers: 2,
		Jobs:    []string{"es.u2.c6.p8", "ws.u2.c6.p16"},
		Smoke:   []string{"bb.u2.c5.p2"},
	},
	{
		Name:    "quick_batch",
		Workers: 1,
		Jobs: []string{
			"bb.u8.c3", "bb.u8.c4", "bb.u6.c4", "ss.u6.c3", "ss.u8.c3", "ss.u4.c4",
			"es.u6.c2", "es.u4.c3", "ws.u8.c3", "ws.u8.c4", "ws.u5.c4",
			"wsfix.u6.c3", "bbfix.u6.c3", "fib4.u4.c4",
			"bb.u2.c6", "bb.u4.c7", "ws.u3.c7", "fib2.u2.c6",
			"es.tso1.u3.c3",
		},
		Smoke: []string{"fib2.u2.c6"},
	},
	{
		Name:    "distrib_loopback",
		Workers: 2,
		Distrib: true,
		Jobs:    []string{"es.u2.c5.p16", "es.u2.c5.p16.nocert"},
		Smoke:   []string{"fib1.u1.c3.p4"},
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// passJobs returns the jobs of one pass in the order the seed gives
// them. The seed drives nothing else but scratch paths: the set of jobs
// is the same for every seed, so every counter marked deterministic
// must be too.
func passJobs(w Workload, smoke bool, seed int64, pass int) ([]Job, error) {
	names := w.Jobs
	if smoke {
		names = w.Smoke
	}
	jobs := make([]Job, len(names))
	for i, n := range names {
		j, err := parseJob(n)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(pass)))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs, nil
}
