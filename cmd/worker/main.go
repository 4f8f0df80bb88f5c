// Command worker joins a distributed analysis: it connects to a
// coordinator (cmd/coordinator), receives partition-range jobs, runs the
// parallel verifier on its local cores, heartbeats while solving, and
// reports verdicts until the coordinator sends stop. With -reconnect it
// survives connection loss, redialing with exponential backoff + jitter.
//
// -connect accepts a comma-separated list of coordinator addresses for
// HA pairs (primary,standby): on connection loss the worker rotates
// through the list until it finds whichever coordinator currently holds
// the leadership lease, so a failover needs no worker restarts.
// -reconnect-timeout caps the total wall-clock retry budget per outage;
// when it expires the worker exits non-zero with the reason in its
// final log line.
//
// The -fault-* flags drive the deterministic fault-injection harness
// used to exercise the coordinator's retry and quarantine paths:
// transport faults (drop/stall/corrupt/half-open at a chosen job
// index), a solver panic (-fault-panic), a deterministic straggler
// delay (-fault-slow-ms, optionally scoped with -fault-slow-jobs) that
// keeps heartbeating while the job drags — visible only to the
// coordinator's adaptive scheduler — and Byzantine faults that lie
// about a computed result (-fault-flip, -fault-bogus-model,
// -fault-truncate-proof, -fault-oversize-proof) to exercise
// certificate rejection.
//
//	worker -connect host:9731,host2:9731 -cores 4 -reconnect 5 -reconnect-timeout 2m
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/runflags"
	"repro/internal/distrib"
	"repro/internal/obs"
)

func main() {
	var (
		rec runflags.Recorder

		connect   = flag.String("connect", "127.0.0.1:9731", "coordinator address, or a comma-separated primary,standby list")
		cores     = flag.Int("cores", 1, "local solver instances per job")
		name      = flag.String("name", "", "worker name reported to the coordinator")
		reconnect = flag.Int("reconnect", 0, "max consecutive reconnect attempts after connection loss (0: exit on loss)")
		backoff   = flag.Duration("backoff", 0, "base reconnect backoff (default 250ms)")
		reconnTO  = flag.Duration("reconnect-timeout", 0, "total wall-clock retry budget per outage (0: unbounded)")
		memLimit  = flag.Int64("mem-limit", 0, "arm the OOM watchdog at this many MiB of live heap (0: inherit GOMEMLIMIT)")
		memFrac   = flag.Float64("mem-trip-fraction", 0, "fraction of the memory limit at which the watchdog aborts the running chunk (default 0.9)")
		seed      = flag.Int64("fault-seed", 0, "seed for backoff jitter and the fault plan")
		dropAt    = flag.Int("fault-drop", -1, "drop the connection upon receiving this job index")
		halfAt    = flag.Int("fault-half-open", -1, "go half-open at this job index: TCP stays up, all sends silently vanish")
		corruptAt = flag.Int("fault-corrupt", -1, "send a corrupt frame in place of this job's result")
		stallAt   = flag.Int("fault-stall", -1, "go silent (no heartbeats) before running this job")
		stallFor  = flag.Duration("stall-for", 30*time.Second, "stall duration for -fault-stall")
		panicAt   = flag.Int("fault-panic", -1, "panic inside the solver path at this job index")
		flipAt    = flag.Int("fault-flip", -1, "flip this job's definite verdict (Byzantine)")
		bogusAt   = flag.Int("fault-bogus-model", -1, "claim UNSAFE with a garbage model at this job index (Byzantine)")
		truncAt   = flag.Int("fault-truncate-proof", -1, "send a truncated certificate for this job (Byzantine)")
		oversizAt = flag.Int("fault-oversize-proof", -1, "declare an oversized certificate for this job (Byzantine)")
		slowMS    = flag.Int64("fault-slow-ms", 0, "artificial pre-solve delay in milliseconds per affected job; the straggler keeps heartbeating (0 disables)")
		slowJobs  = flag.String("fault-slow-jobs", "", "comma-separated job indices to slow down (empty with -fault-slow-ms: every job)")
	)
	// -trace-out writes this worker's span events as JSONL. Job spans
	// adopt the coordinator's trace ID from the wire, so this file and
	// the coordinator's merge into one tree under `parbmc report`.
	rec.Flags(flag.CommandLine, runflags.RecorderUsage{
		TraceOut:  "write this worker's spans as JSONL to this file (merge with `parbmc report`)",
		PprofAddr: "serve /debug/pprof and /healthz on this address",
	})
	flag.Parse()

	proc := *name
	if proc == "" {
		proc = "worker"
	}
	if err := rec.Open(proc, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(2)
	}
	defer rec.Close()
	// The run's solver template is built once, inside the first job: its
	// span is the worker's one line about it.
	tracer := obs.NewTracer(obs.MultiSink(rec.Tracer.Sink(), templateLine{})).WithProc(proc)

	var plan *distrib.FaultPlan
	faultFlags := []struct {
		at   int
		kind distrib.FaultKind
	}{
		{*dropAt, distrib.FaultDrop},
		{*halfAt, distrib.FaultHalfOpen},
		{*corruptAt, distrib.FaultCorrupt},
		{*panicAt, distrib.FaultPanic},
		{*flipAt, distrib.FaultFlipVerdict},
		{*bogusAt, distrib.FaultBogusModel},
		{*truncAt, distrib.FaultTruncatedProof},
		{*oversizAt, distrib.FaultOversizedProof},
	}
	anyFault := *stallAt >= 0 || *seed != 0 || *slowMS > 0
	for _, ff := range faultFlags {
		anyFault = anyFault || ff.at >= 0
	}
	if anyFault {
		plan = &distrib.FaultPlan{Seed: *seed}
		for _, ff := range faultFlags {
			if ff.at >= 0 {
				plan.Events = append(plan.Events, distrib.FaultEvent{Job: ff.at, Kind: ff.kind})
			}
		}
		if *stallAt >= 0 {
			plan.Events = append(plan.Events, distrib.FaultEvent{Job: *stallAt, Kind: distrib.FaultStall, Stall: *stallFor})
		}
		if *slowMS > 0 {
			d := time.Duration(*slowMS) * time.Millisecond
			idxs, err := parseJobList(*slowJobs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "worker: -fault-slow-jobs: %v\n", err)
				os.Exit(2)
			}
			if len(idxs) == 0 {
				// A uniformly slow worker: every job it is handed drags.
				plan.Every = &distrib.FaultEvent{Kind: distrib.FaultSlow, Slow: d}
			} else {
				for _, j := range idxs {
					plan.Events = append(plan.Events, distrib.FaultEvent{Job: j, Kind: distrib.FaultSlow, Slow: d})
				}
			}
		}
	}

	// SIGTERM drains like SIGINT; the coordinator's heartbeat monitor
	// requeues whatever job this worker abandons.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	jobs, err := distrib.Work(ctx, *connect, distrib.WorkerOptions{
		Name:             *name,
		Cores:            *cores,
		MaxReconnects:    *reconnect,
		ReconnectBackoff: *backoff,
		ReconnectTimeout: *reconnTO,
		Faults:           plan,
		Tracer:           tracer,
		MemLimitBytes:    *memLimit << 20,
		MemTripFraction:  *memFrac,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v (after %d jobs)\n", err, jobs)
		os.Exit(2)
	}
	fmt.Printf("worker: done, %d jobs completed\n", jobs)
}

// templateLine prints a line for every "template" span that passes.
type templateLine struct{}

func (templateLine) Emit(e obs.Event) {
	if e.Name == "template" {
		fmt.Printf("worker: template built in %v: clauses %v -> %v, %v variables eliminated, serves every job of the run\n",
			time.Duration(e.DurMicros)*time.Microsecond, e.Attrs["clauses_in"], e.Attrs["clauses_out"], e.Attrs["elim_vars"])
	}
}

// parseJobList parses a comma-separated list of job indices.
func parseJobList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad job index %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
