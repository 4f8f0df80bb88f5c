// Command worker joins a distributed analysis: it connects to a
// coordinator (cmd/coordinator), restores the run's solver template from
// the snapshot the coordinator sends, receives partition-range jobs with
// each partition's assumption literals, solves them on its local cores,
// heartbeats while solving, and reports verdicts until the coordinator
// sends stop. It never reads the program. With -reconnect it survives
// connection loss, redialing with exponential backoff + jitter.
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
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/cmd/internal/runflags"
	"repro/internal/distrib"
	"repro/internal/obs"
)

func main() { os.Exit(runflags.Main("worker", run)) }

// run is the worker's whole process, from its arguments to its exit
// code: 0 once the coordinator sends stop, 2 when the worker gives up.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	var faults faultFlags
	proc := runflags.New("worker", args, stdout, stderr)
	fs := proc.Flags
	var (
		connect   = fs.String("connect", "127.0.0.1:9731", "coordinator address, or a comma-separated primary,standby list")
		cores     = fs.Int("cores", 1, "local solver instances per job")
		name      = fs.String("name", "", "worker name reported to the coordinator")
		reconnect = fs.Int("reconnect", 0, "max consecutive reconnect attempts after connection loss (0: exit on loss)")
		backoff   = fs.Duration("backoff", 0, "base reconnect backoff (default 250ms)")
		reconnTO  = fs.Duration("reconnect-timeout", 0, "total wall-clock retry budget per outage (0: unbounded)")
		memLimit  = fs.Int64("mem-limit", 0, "arm the OOM watchdog at this many MiB of live heap (0: inherit GOMEMLIMIT)")
		memFrac   = fs.Float64("mem-trip-fraction", 0, "fraction of the memory limit at which the watchdog aborts the running chunk (default 0.9)")
	)
	faults.register(fs)
	// -trace-out writes this worker's span events as JSONL. Job spans
	// adopt the coordinator's trace ID from the wire, so this file and
	// the coordinator's merge into one tree under `parbmc report`.
	proc.Rec.Flags(fs, runflags.RecorderUsage{
		TraceOut:  "write this worker's spans as JSONL to this file (merge with `parbmc report`)",
		PprofAddr: "serve /debug/pprof and /healthz on this address",
	})
	return proc.Run(ctx, func(ctx context.Context) (int, error) {
		plan, err := faults.plan()
		if err != nil {
			return 2, err
		}
		tracerName := *name
		if tracerName == "" {
			tracerName = "worker"
		}
		// The run's solver template is restored once, from the snapshot
		// that comes with the first job: its span is the worker's one line
		// about it. A job its memory watchdog cancelled gets a line too.
		tracer := obs.NewTracer(obs.MultiSink(proc.Rec.Tracer.Sink(), spanLines{stdout})).WithProc(tracerName)
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
			return 2, fmt.Errorf("%w (after %d jobs)", err, jobs)
		}
		fmt.Fprintf(stdout, "worker: done, %d jobs completed\n", jobs)
		return 0, nil
	})
}

// faultFlags are the -fault-* flags of the deterministic fault-injection
// harness.
type faultFlags struct {
	seed, slowMS                                                   int64
	drop, halfOpen, corrupt, stall, panic, flip, bogus, trunc, big int
	stallFor                                                       time.Duration
	slowJobs                                                       string
}

func (f *faultFlags) register(fs *flag.FlagSet) {
	fs.Int64Var(&f.seed, "fault-seed", 0, "seed for backoff jitter and the fault plan")
	fs.IntVar(&f.drop, "fault-drop", -1, "drop the connection upon receiving this job index")
	fs.IntVar(&f.halfOpen, "fault-half-open", -1, "go half-open at this job index: TCP stays up, all sends silently vanish")
	fs.IntVar(&f.corrupt, "fault-corrupt", -1, "send a corrupt frame in place of this job's result")
	fs.IntVar(&f.stall, "fault-stall", -1, "go silent (no heartbeats) before running this job")
	fs.DurationVar(&f.stallFor, "stall-for", 30*time.Second, "stall duration for -fault-stall")
	fs.IntVar(&f.panic, "fault-panic", -1, "panic inside the solver path at this job index")
	fs.IntVar(&f.flip, "fault-flip", -1, "flip this job's definite verdict (Byzantine)")
	fs.IntVar(&f.bogus, "fault-bogus-model", -1, "claim UNSAFE with a garbage model at this job index (Byzantine)")
	fs.IntVar(&f.trunc, "fault-truncate-proof", -1, "send a truncated certificate for this job (Byzantine)")
	fs.IntVar(&f.big, "fault-oversize-proof", -1, "declare an oversized certificate for this job (Byzantine)")
	fs.Int64Var(&f.slowMS, "fault-slow-ms", 0, "artificial pre-solve delay in milliseconds per affected job; the straggler keeps heartbeating (0 disables)")
	fs.StringVar(&f.slowJobs, "fault-slow-jobs", "", "comma-separated job indices to slow down (empty with -fault-slow-ms: every job)")
}

// plan is the fault plan the flags describe, nil when they describe none.
func (f *faultFlags) plan() (*distrib.FaultPlan, error) {
	plan := &distrib.FaultPlan{Seed: f.seed}
	for _, ev := range []distrib.FaultEvent{
		{Job: f.drop, Kind: distrib.FaultDrop},
		{Job: f.halfOpen, Kind: distrib.FaultHalfOpen},
		{Job: f.corrupt, Kind: distrib.FaultCorrupt},
		{Job: f.panic, Kind: distrib.FaultPanic},
		{Job: f.flip, Kind: distrib.FaultFlipVerdict},
		{Job: f.bogus, Kind: distrib.FaultBogusModel},
		{Job: f.trunc, Kind: distrib.FaultTruncatedProof},
		{Job: f.big, Kind: distrib.FaultOversizedProof},
		{Job: f.stall, Kind: distrib.FaultStall, Stall: f.stallFor},
	} {
		if ev.Job >= 0 {
			plan.Events = append(plan.Events, ev)
		}
	}
	if f.slowMS > 0 {
		slow := distrib.FaultEvent{Kind: distrib.FaultSlow, Slow: time.Duration(f.slowMS) * time.Millisecond}
		idxs, err := parseJobList(f.slowJobs)
		if err != nil {
			return nil, fmt.Errorf("-fault-slow-jobs: %w", err)
		}
		if len(idxs) == 0 {
			// A uniformly slow worker: every job it is handed drags.
			plan.Every = &slow
		}
		for _, j := range idxs {
			slow.Job = j
			plan.Events = append(plan.Events, slow)
		}
	}
	if len(plan.Events) == 0 && plan.Every == nil && f.seed == 0 {
		return nil, nil
	}
	return plan, nil
}

// spanLines prints a line for every "template_restore" span that
// passes, and for every "worker_job" span that records a watchdog trip.
type spanLines struct{ w io.Writer }

func (t spanLines) Emit(e obs.Event) {
	switch {
	case e.Name == "template_restore":
		fmt.Fprintf(t.w, "worker: template restored in %v from %v bytes: %v clauses, serves every job of the run\n",
			time.Duration(e.DurMicros)*time.Microsecond, e.Attrs["bytes"], e.Attrs["clauses"])
	case e.Name == "worker_job" && e.Attrs["mem_trip"] != nil:
		fmt.Fprintf(t.w, "worker: %v: job %v cancelled, its cube goes back to the coordinator\n", e.Attrs["mem_trip"], e.Attrs["job"])
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
