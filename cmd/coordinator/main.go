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
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/runflags"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/prog"
)

func main() {
	var (
		opts distrib.CoordinatorOptions
		rec  runflags.Recorder

		listen     = flag.String("listen", ":9731", "listen address")
		input      = flag.String("i", "", "input program file")
		metricAddr = flag.String("metrics-addr", "", "serve /metrics and /healthz on this address (empty disables)")
		pprofOn    = flag.Bool("pprof", false, "also mount /debug/pprof on the metrics address")
		certify    = flag.String("certify", "full", "remote verdict certification: full | sample=N | off")
		lease      = flag.String("lease", "", "shared leadership lease file: run as an HA primary/standby pair (requires -journal)")
		leaseTTL   = flag.Duration("lease-ttl", 15*time.Second, "leadership lease duration; bounds the failover blackout")
		holder     = flag.String("holder", "", "this coordinator's name in the lease (default: the listen address)")
		advertise  = flag.String("advertise", "", "address advertised in the lease for workers and the standby (default: the bound listen address)")
		snapshotIv = flag.Duration("report-snapshots", 5*time.Second, "metrics snapshot cadence captured into -report (0 disables)")
	)
	flag.IntVar(&opts.Unwind, "unwind", 1, "loop/recursion unwinding bound")
	flag.IntVar(&opts.Contexts, "contexts", 1, "number of execution contexts")
	flag.IntVar(&opts.Width, "width", 8, "integer bit width")
	flag.IntVar(&opts.Partitions, "partitions", 8, "total trace-space partitions (power of two)")
	flag.IntVar(&opts.ChunkSize, "chunk", 0, "partitions per work unit (default partitions/8)")
	flag.DurationVar(&opts.JobTimeout, "job-timeout", 0, "per-job timeout (default 10m)")
	flag.IntVar(&opts.MaxAttempts, "max-attempts", 0, "per-chunk failure budget before quarantine (default 3)")
	flag.DurationVar(&opts.HeartbeatInterval, "heartbeat", 0, "worker heartbeat interval (default 5s, negative disables)")
	flag.DurationVar(&opts.DrainTimeout, "drain-timeout", 0, "give up when no workers remain for this long (default 30s)")
	flag.Float64Var(&opts.MemPauseRatio, "mem-pause-ratio", 0, "pause job dispatch while any worker's heartbeat memory fill ratio is at or above this (default 0.95, negative disables)")
	flag.BoolVar(&opts.Hedge, "hedge", false, "speculatively re-dispatch the longest-running chunk to idle workers, racing duplicates")
	runflags.Journal(flag.CommandLine, &opts.JournalPath, &opts.Resume,
		"crash-safe run journal path (commit every chunk verdict)",
		"resume from an existing -journal, skipping committed chunks")
	runflags.Budget(flag.CommandLine, &opts.Budget,
		"per-chunk wall-clock budget on workers (0: unbounded)",
		"per-chunk solver conflict budget on workers (0: unbounded)",
		"per-partition solver memory budget on workers, in MiB (0: unbounded)")
	runflags.Split(flag.CommandLine, &opts.Split,
		"adaptive cube splitting: max extra split bits per chunk (0 disables)",
		"minimum in-flight age before a chunk may be split or hedged (default 15s)",
		"minimum live hardness before a chunk qualifies for splitting (0: any straggler past -split-grace)")
	// The flight recorder: -trace-out streams coordinator spans as
	// JSONL, -report additionally collects them (plus worker spans
	// shipped back on results, per-partition progress, and periodic
	// metrics snapshots) into one self-contained artifact.
	rec.Flags(flag.CommandLine, runflags.RecorderUsage{
		TraceOut:   "write coordinator spans as JSONL to this file (workers join the trace over the wire)",
		Report:     "write the run's flight-recorder report (JSON) to this file; render with `parbmc report`",
		ProfileDir: "capture pprof CPU+heap profiles of the coordination phase into this directory",
	})
	flag.Parse()
	var err error
	if opts.Certify, err = distrib.ParseCertifyPolicy(*certify); err != nil {
		fatal(err)
	}
	if *input == "" {
		fatal("-i is required")
	}
	data, err := os.ReadFile(*input)
	if err != nil {
		fatal(err)
	}
	p, err := prog.Parse(string(data))
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("coordinator: listening on %s (%d partitions)\n", ln.Addr(), opts.Partitions)
	if err := rec.Open("coordinator", os.Stderr); err != nil {
		fatal(err)
	}
	defer rec.Close()
	opts.Tracer, opts.Report, opts.ProgramName = rec.Tracer, rec.Report, *input

	var haState *distrib.HAState
	if *lease != "" {
		haState = &distrib.HAState{}
	}
	if *metricAddr != "" {
		opts.Metrics = obs.NewRegistry()
		opts.Health = distrib.NewHealthRegistry()
		mux := obs.NewMux(obs.MuxOptions{
			Registry: opts.Metrics,
			Health: func() any {
				if haState == nil {
					return opts.Health.Snapshot()
				}
				// HA runs report their role alongside worker health and
				// replication state, so one /healthz scrape answers both
				// "who is primary" and "is failover healthy".
				role, epoch, replicated := haState.Role()
				return map[string]any{
					"role":               role,
					"epoch":              epoch,
					"replicated_records": replicated,
					"replication":        replicationHealth(opts.Metrics),
					"workers":            opts.Health.Snapshot(),
				}
			},
			Pprof: *pprofOn,
		})
		srv, errc := obs.Serve(*metricAddr, mux)
		defer srv.Close()
		go func() {
			if err := <-errc; err != nil {
				fmt.Fprintln(os.Stderr, "coordinator: metrics server:", err)
			}
		}()
		fmt.Printf("coordinator: metrics on http://%s/metrics\n", *metricAddr)
	}

	// SIGTERM behaves like SIGINT: cancel the run and let committed
	// journal records carry the progress into the next -resume run. Even
	// an outright SIGKILL loses only uncommitted chunks — every verdict
	// is fsynced to -journal before it is acknowledged.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if rec.Report != nil && opts.Metrics != nil && *snapshotIv > 0 {
		snapCtx, snapStop := context.WithCancel(ctx)
		defer snapStop()
		go func() {
			t := time.NewTicker(*snapshotIv)
			defer t.Stop()
			for {
				select {
				case <-snapCtx.Done():
					return
				case <-t.C:
					rec.Report.Snapshot(opts.Metrics)
				}
			}
		}()
	}

	// The coordinator has no local encode/solve phases: the distributed
	// run is one "coordinate" phase (scheduling, certification, result
	// folding), profiled as a whole.
	rec.Profiler.StartPhase("coordinate")
	var res *distrib.CoordinatorResult
	if *lease != "" {
		name := *holder
		if name == "" {
			name = ln.Addr().String()
		}
		addr := *advertise
		if addr == "" {
			addr = ln.Addr().String()
		}
		fmt.Printf("coordinator: HA mode, lease %s, holder %s, advertising %s\n", *lease, name, addr)
		res, err = distrib.RunHA(ctx, ln, p, opts, distrib.HAOptions{
			LeasePath: *lease,
			Holder:    name,
			Addr:      addr,
			LeaseTTL:  *leaseTTL,
			State:     haState,
		})
	} else {
		res, err = distrib.Coordinate(ctx, ln, p, opts)
	}
	rec.Profiler.EndPhase("coordinate")
	rec.ProfileErr()
	// The report is written even when the run failed: a crashed or
	// drained run is exactly when the flight recorder matters most.
	rec.Report.Snapshot(opts.Metrics)
	if rec.WriteReport() {
		fmt.Printf("coordinator: run report written to %s\n", rec.ReportOut)
	}
	if err != nil {
		fatal(err)
	}
	printResult(res, opts.Certify)
	if res.Verdict == core.Unsafe {
		os.Exit(1)
	}
}

// fatal reports a usage or run failure and exits with status 2.
func fatal(msg any) {
	fmt.Fprintln(os.Stderr, "coordinator:", msg)
	os.Exit(2)
}

// printResult prints the run summary: verdict and coverage, then one
// line per thing that went other than plainly — splits, exhausted
// budgets, sealed journal, memory aborts, drain, quarantine — and the
// per-worker health table.
func printResult(res *distrib.CoordinatorResult, certPolicy distrib.CertifyPolicy) {
	fmt.Printf("verdict: %v (winner partition %d, %d jobs, %d reassigned, %v)\n",
		res.Verdict, res.Winner, res.Jobs, res.Reassigned, res.Wall)
	fmt.Printf("coverage: %d/%d chunks decided, %d resumed from journal\n",
		res.ChunksDecided, res.ChunksTotal, res.Resumed)
	if res.Splits > 0 || res.Hedges > 0 || res.Superseded > 0 {
		fmt.Printf("adaptive scheduling: %d cubes split (depth %d), %d steals, %d hedged dispatches, %d superseded results discarded\n",
			res.Splits, res.MaxCubeDepth, res.Steals, res.Hedges, res.Superseded)
	}
	for _, ex := range res.Exhausted {
		fmt.Printf("budget exhausted: partitions [%d,%d] gave up on %s\n",
			ex.Cube.From, ex.Cube.To, ex.Rec.Cause)
	}
	fmt.Printf("remote search: %d decisions, %d conflicts, %d propagations, %d restarts, %d variables eliminated and %d clauses removed by simplification, solve time %v\n",
		res.RemoteStats.Decisions, res.RemoteStats.Conflicts, res.RemoteStats.Propagations,
		res.RemoteStats.Restarts, res.RemoteStats.ElimVars, res.RemoteStats.Simplified,
		time.Duration(res.SolveMillis)*time.Millisecond)
	for _, tpl := range res.Templates {
		fmt.Printf("template: worker %s built its solver template in %v: clauses %d -> %d, %d variables eliminated (counted here, in no partition's search)\n",
			tpl.Worker, time.Duration(tpl.Millis)*time.Millisecond, tpl.ClausesIn, tpl.ClausesOut, tpl.ElimVars)
	}
	if certPolicy.Enabled() {
		fmt.Printf("certification (%s): %d verdicts certified, %d certificates rejected, verify time %v, %d lemmas checked in %d propagations (%d within their hints, %d hint fallbacks), %d certificate bytes accepted\n",
			certPolicy, res.Certified, res.CertRejected, time.Duration(res.CertifyMillis)*time.Millisecond,
			res.CertifyWork.Lemmas, res.CertifyWork.Propagations, res.CertifyWork.Hinted, res.CertifyWork.Fallbacks, res.CertBytes)
	}
	if res.JournalSealed {
		fmt.Println("WARNING:", partition.SealWarning(res.JournalSealCause))
	}
	if res.MemoryAborted > 0 {
		fmt.Printf("memory aborts: %d chunk result(s) gave up on memory (%d dispatch pauses under fleet pressure)\n",
			res.MemoryAborted, res.DispatchPaused)
	}
	if res.Drained {
		fmt.Println("run drained: chunks were pending but no workers remained connected")
	}
	for _, q := range res.Quarantined {
		last := ""
		if len(q.Errors) > 0 {
			last = q.Errors[len(q.Errors)-1]
		}
		fmt.Printf("quarantined: partitions [%d,%d] after %d failed attempts (last: %s)\n",
			q.Chunk.From, q.Chunk.To, q.Attempts, last)
	}
	for _, w := range res.Workers {
		trust := ""
		if w.Untrusted {
			trust = fmt.Sprintf(", UNTRUSTED (%d certificates rejected)", w.CertRejections)
		}
		fmt.Printf("worker %s: %d jobs, %d failures, %d connections, last seen %s%s\n",
			w.Name, w.Jobs, w.Failures, w.Connections, w.LastSeen.Format(time.TimeOnly), trust)
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
		// Labels render as `standby="name"`; strip down to the name.
		name := strings.TrimSuffix(strings.TrimPrefix(s.Labels, `standby="`), `"`)
		lag[name] = int64(s.Value)
	}
	return map[string]any{
		"standbys_connected": standbys,
		"lag_records":        lag,
	}
}
