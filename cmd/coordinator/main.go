// Command coordinator serves a distributed analysis over TCP: it splits
// the trace-space partitions into chunks and hands them to connecting
// workers (cmd/worker), terminating everyone as soon as one worker finds
// a counterexample. This implements the cross-machine termination that
// the paper's prototype left as future work.
//
// Worker churn is tolerated: failed chunks are retried up to -max-attempts
// times before being quarantined, stalled workers are evicted by
// heartbeat (-heartbeat), and the run ends with Unknown plus a failure
// log — rather than hanging — if no workers remain for -drain-timeout.
//
// With -metrics-addr the coordinator serves /metrics (Prometheus text
// format: chunk/worker gauges, aggregated remote solver counters, live
// per-worker conflict gauges fed by heartbeats) and /healthz (the
// worker-health registry as JSON, plus the HA role when -lease is set),
// plus pprof with -pprof:
//
//	coordinator -listen :9731 -metrics-addr :9100 -i program.mt --unwind 2 --contexts 5 --partitions 16
//
// With -lease two coordinators form a hot-standby pair: whichever
// acquires the shared lease file runs the analysis as primary; the
// other serves as a warm standby, live-replicating the primary's
// journal into its own -journal path, and promotes automatically —
// resuming from the replica — when the primary's lease expires. Point
// workers at both with a comma-separated -coordinator list.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/cmd/internal/runflags"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/prog"
)

func main() { os.Exit(runflags.Main("coordinator", run)) }

// flags are the coordinator's own flags, beside its options and the
// shared groups.
type flags struct {
	listen, input, metricAddr, certify, lease, holder, advertise string
	pprof                                                        bool
	leaseTTL, snapshots                                          time.Duration
}

// run is the coordinator's whole process, from its arguments to its
// exit code: 0 SAFE or UNKNOWN, 1 UNSAFE, 2 when the run fails.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	var (
		opts distrib.CoordinatorOptions
		f    flags
	)
	proc := runflags.New("coordinator", args, stdout, stderr)
	proc.ReportLine = true
	fs := proc.Flags
	fs.StringVar(&f.listen, "listen", ":9731", "listen address")
	fs.StringVar(&f.input, "i", "", "input program file")
	fs.StringVar(&f.metricAddr, "metrics-addr", "", "serve /metrics and /healthz on this address (empty disables)")
	fs.BoolVar(&f.pprof, "pprof", false, "also mount /debug/pprof on the metrics address")
	fs.StringVar(&f.certify, "certify", "full", "remote verdict certification: full | sample=N | off")
	fs.StringVar(&f.lease, "lease", "", "shared leadership lease file: run as an HA primary/standby pair (requires -journal)")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", 15*time.Second, "leadership lease duration; bounds the failover blackout")
	fs.StringVar(&f.holder, "holder", "", "this coordinator's name in the lease (default: the listen address)")
	fs.StringVar(&f.advertise, "advertise", "", "address advertised in the lease for workers and the standby (default: the bound listen address)")
	fs.DurationVar(&f.snapshots, "report-snapshots", 5*time.Second, "metrics snapshot cadence captured into -report (0 disables)")
	fs.IntVar(&opts.Unwind, "unwind", 1, "loop/recursion unwinding bound")
	fs.IntVar(&opts.Contexts, "contexts", 1, "number of execution contexts")
	fs.IntVar(&opts.Width, "width", 8, "integer bit width")
	fs.IntVar(&opts.Partitions, "partitions", 8, "total trace-space partitions (power of two)")
	fs.IntVar(&opts.ChunkSize, "chunk", 0, "partitions per work unit (default partitions/8)")
	fs.DurationVar(&opts.JobTimeout, "job-timeout", 0, "per-job timeout (default 10m)")
	fs.IntVar(&opts.MaxAttempts, "max-attempts", 0, "per-chunk failure budget before quarantine (default 3)")
	fs.DurationVar(&opts.HeartbeatInterval, "heartbeat", 0, "worker heartbeat interval (default 5s; a negative interval is refused)")
	fs.DurationVar(&opts.DrainTimeout, "drain-timeout", 0, "give up when no workers remain for this long (default 30s)")
	fs.BoolVar(&opts.Hedge, "hedge", false, "speculatively re-dispatch the longest-running chunk to idle workers, racing duplicates")
	runflags.Journal(fs, &opts.JournalPath, &opts.Resume,
		"crash-safe run journal path (commit every chunk verdict)",
		"resume from an existing -journal, skipping committed chunks")
	runflags.Budget(fs, &opts.Budget,
		"per-chunk wall-clock budget on workers (0: unbounded)",
		"per-chunk solver conflict budget on workers (0: unbounded)",
		"per-partition solver memory budget on workers, in MiB (0: unbounded)")
	runflags.Split(fs, &opts.Split,
		"adaptive cube splitting: max extra split bits per chunk (0 disables)",
		"minimum in-flight age before a chunk may be split or hedged (default 15s)")
	// The flight recorder: -trace-out streams coordinator spans as
	// JSONL, -report additionally collects them (plus worker spans
	// shipped back on results, per-partition progress, and periodic
	// metrics snapshots) into one self-contained artifact.
	proc.Rec.Flags(fs, runflags.RecorderUsage{
		TraceOut:   "write coordinator spans as JSONL to this file (workers join the trace over the wire)",
		Report:     "write the run's flight-recorder report (JSON) to this file; render with `parbmc report`",
		ProfileDir: "capture pprof CPU+heap profiles of the coordination phase into this directory",
	})
	return proc.Run(ctx, func(ctx context.Context) (int, error) { return coordinate(ctx, proc, f, opts) })
}

// coordinate listens, serves the run to the workers that connect — as
// the HA pair's primary or standby with -lease — and prints its result.
func coordinate(ctx context.Context, proc *runflags.Process, f flags, opts distrib.CoordinatorOptions) (int, error) {
	var err error
	if opts.Certify, err = distrib.ParseCertifyPolicy(f.certify); err != nil {
		return 2, err
	}
	if f.input == "" {
		return 2, errors.New("-i is required")
	}
	data, err := os.ReadFile(f.input)
	if err != nil {
		return 2, err
	}
	p, err := prog.Parse(string(data))
	if err != nil {
		return 2, err
	}
	ln, err := net.Listen("tcp", f.listen)
	if err != nil {
		return 2, err
	}
	stdout, rec := proc.Stdout, &proc.Rec
	fmt.Fprintf(stdout, "coordinator: listening on %s (%d partitions)\n", ln.Addr(), opts.Partitions)
	opts.Tracer, opts.Report, opts.ProgramName = rec.Tracer, rec.Report, f.input

	var haState *distrib.HAState
	if f.lease != "" {
		haState = &distrib.HAState{}
	}
	if f.metricAddr != "" {
		opts.Metrics = obs.NewRegistry()
		opts.Health = distrib.NewHealthRegistry()
		defer runflags.Serve(f.metricAddr, obs.NewMux(obs.MuxOptions{
			Registry: opts.Metrics,
			Health:   func() any { return health(opts, haState) },
			Pprof:    f.pprof,
		}), proc.Name, "metrics", proc.Stderr)()
		fmt.Fprintf(stdout, "coordinator: metrics on http://%s/metrics\n", f.metricAddr)
	}
	if f.snapshots > 0 {
		snapCtx, stop := context.WithCancel(ctx)
		defer stop()
		go snapshots(snapCtx, rec.Report, opts.Metrics, f.snapshots)
	}

	// The coordinator has no local encode/solve phases: the distributed
	// run is one "coordinate" phase (scheduling, certification, result
	// folding), profiled as a whole.
	rec.Profiler.StartPhase("coordinate")
	var res *distrib.CoordinatorResult
	if f.lease != "" {
		ha := distrib.HAOptions{LeasePath: f.lease, Holder: f.holder, Addr: f.advertise, LeaseTTL: f.leaseTTL, State: haState}
		if ha.Holder == "" {
			ha.Holder = ln.Addr().String()
		}
		if ha.Addr == "" {
			ha.Addr = ln.Addr().String()
		}
		fmt.Fprintf(stdout, "coordinator: HA mode, lease %s, holder %s, advertising %s\n", f.lease, ha.Holder, ha.Addr)
		res, err = distrib.RunHA(ctx, ln, p, opts, ha)
	} else {
		res, err = distrib.Coordinate(ctx, ln, p, opts)
	}
	rec.Profiler.EndPhase("coordinate")
	rec.Report.Snapshot(opts.Metrics)
	if err != nil {
		return 2, err
	}
	proc.WriteReport()
	printResult(stdout, res, opts.Certify)
	if res.Verdict == core.Unsafe {
		return 1, nil
	}
	return 0, nil
}

// health is the /healthz detail: the worker-health registry, and on an
// HA run the role beside it and replication state, so one scrape answers
// both "who is primary" and "is failover healthy".
func health(opts distrib.CoordinatorOptions, ha *distrib.HAState) any {
	if ha == nil {
		return opts.Health.Snapshot()
	}
	role, epoch, replicated := ha.Role()
	return map[string]any{
		"role":               role,
		"epoch":              epoch,
		"replicated_records": replicated,
		"replication":        replicationHealth(opts.Metrics),
		"workers":            opts.Health.Snapshot(),
	}
}

// snapshots captures the metrics into the report every interval until
// ctx ends; without -report or -metrics-addr there is nothing to do.
func snapshots(ctx context.Context, rep *report.Recorder, reg *obs.Registry, every time.Duration) {
	if rep == nil || reg == nil {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rep.Snapshot(reg)
		}
	}
}

// printResult prints the run summary: verdict and coverage, then one
// line per thing that went other than plainly — splits, exhausted
// budgets, sealed journal, memory aborts, drain, quarantine — and the
// per-worker health table.
func printResult(w io.Writer, res *distrib.CoordinatorResult, certPolicy distrib.CertifyPolicy) {
	fmt.Fprintf(w, "verdict: %v (winner partition %d, %d jobs, %d reassigned, %v)\n",
		res.Verdict, res.Winner, res.Jobs, res.Reassigned, res.Wall)
	fmt.Fprintf(w, "coverage: %d/%d chunks decided, %d resumed from journal\n",
		res.ChunksDecided, res.ChunksTotal, res.Resumed)
	if res.Splits > 0 || res.Hedges > 0 || res.Superseded > 0 {
		fmt.Fprintf(w, "adaptive scheduling: %d cubes split (depth %d), %d steals, %d hedged dispatches, %d superseded results discarded\n",
			res.Splits, res.MaxCubeDepth, res.Steals, res.Hedges, res.Superseded)
	}
	for _, ex := range res.Exhausted {
		fmt.Fprintf(w, "budget exhausted: partitions [%d,%d] gave up on %s\n",
			ex.Cube.From, ex.Cube.To, ex.Rec.Cause)
	}
	fmt.Fprintf(w, "remote search: %d decisions, %d conflicts, %d propagations, %d restarts, %d variables eliminated and %d clauses removed by simplification, solve time %v\n",
		res.RemoteStats.Decisions, res.RemoteStats.Conflicts, res.RemoteStats.Propagations,
		res.RemoteStats.Restarts, res.RemoteStats.ElimVars, res.RemoteStats.Simplified,
		time.Duration(res.SolveMillis)*time.Millisecond)
	if tpl := res.Template; res.TemplateBytes > 0 {
		fmt.Fprintf(w, "template: built once in %v: variables %d -> %d, clauses %d -> %d, %d variables eliminated (counted here, in no partition's search), %d bytes sent to each connection\n",
			time.Duration(tpl.Millis)*time.Millisecond, tpl.VarsIn, tpl.VarsOut, tpl.ClausesIn, tpl.ClausesOut, tpl.ElimVars, res.TemplateBytes)
	}
	for _, r := range res.Restores {
		fmt.Fprintf(w, "template: worker %s restored it in %v from %d bytes\n",
			r.Worker, time.Duration(r.Millis)*time.Millisecond, r.Bytes)
	}
	if certPolicy.Enabled() {
		fmt.Fprintf(w, "certification (%s): %d verdicts certified, %d certificates rejected, verify time %v, %d lemmas checked along %d chain clauses, %d certificate bytes accepted\n",
			certPolicy, res.Certified, res.CertRejected, time.Duration(res.CertifyMillis)*time.Millisecond,
			res.CertifyWork.Lemmas, res.CertifyWork.ChainClauses, res.CertBytes)
	}
	if res.JournalSealed {
		fmt.Fprintln(w, "WARNING:", partition.SealWarning(res.JournalSealCause))
	}
	if res.MemoryAborted > 0 {
		fmt.Fprintf(w, "memory aborts: %d chunk result(s) gave up on the memory budget\n", res.MemoryAborted)
	}
	if res.Drained {
		fmt.Fprintln(w, "run drained: chunks were pending but no workers remained connected")
	}
	for _, q := range res.Quarantined {
		last := ""
		if len(q.Errors) > 0 {
			last = q.Errors[len(q.Errors)-1]
		}
		fmt.Fprintf(w, "quarantined: partitions [%d,%d] after %d failed attempts (last: %s)\n",
			q.Chunk.From, q.Chunk.To, q.Attempts, last)
	}
	for _, wh := range res.Workers {
		trust := ""
		if wh.Untrusted {
			trust = fmt.Sprintf(", UNTRUSTED (%d certificates rejected)", wh.CertRejections)
		}
		fmt.Fprintf(w, "worker %s: %d jobs, %d failures, %d connections, last seen %s%s\n",
			wh.Name, wh.Jobs, wh.Failures, wh.Connections, wh.LastSeen.Format(time.TimeOnly), trust)
	}
}

// replicationHealth folds the registry's replication gauges into the
// /healthz JSON: how many standbys are attached and each one's journal
// replication lag in records.
func replicationHealth(metrics *obs.Registry) map[string]any {
	standbys := 0
	for _, s := range metrics.Samples("parbmc_standbys_connected") {
		standbys += int(s.Value)
	}
	lag := map[string]int64{}
	for _, s := range metrics.Samples("parbmc_replication_lag_records") {
		lag[obs.LabelValue(s.Labels)] = int64(s.Value)
	}
	return map[string]any{
		"standbys_connected": standbys,
		"lag_records":        lag,
	}
}
