// Package distrib implements the paper's distributed analysis
// (Sect. 3.4, Fig. 7) in two forms.
//
// SimulateCluster reproduces the paper's own experimental protocol
// byte-for-byte: the partitions are split into chunks of machine-sized
// groups, each chunk is analysed in a separate run with the machine's
// core count, and the reported wall-clock time of the simulated cluster
// is the maximum over the chunk times (the paper simulated a 128-core
// cluster of 16 8-core machines exactly this way, Sect. 4.1).
//
// Coordinator and Worker implement real distribution over TCP: a
// coordinator hands partition ranges to connected workers (the paper's
// --from/--to interface), collects verdicts, reassigns chunks of failed
// workers, and broadcasts termination as soon as one worker finds a
// counterexample — the cross-machine termination the paper's prototype
// left as future work.
//
// # Fault tolerance
//
// Worker churn is treated as the normal case, not the exception:
//
//   - Retry budget and quarantine: every chunk failure (connection loss,
//     stall, corrupt frame, stale result, worker-side error) charges the
//     chunk's attempt budget (CoordinatorOptions.MaxAttempts). A chunk
//     that exhausts the budget is quarantined — recorded in the
//     structured failure log (CoordinatorResult.Quarantined) with one
//     reason per failed attempt — instead of being reassigned forever; a
//     quarantined chunk caps the verdict at Unknown.
//   - Heartbeats: each job message carries the heartbeat cadence; the
//     worker reports at that interval while the solver runs, and the
//     coordinator declares a connection stalled after HeartbeatGrace of
//     silence — well before the 10-minute JobTimeout.
//   - Result validation: a result whose JobID does not match the
//     outstanding job is rejected as a stale-result misattribution and
//     treated as a worker failure; frames are capped at 16 MiB.
//   - Drain detection: when chunks are pending but no workers remain
//     connected for DrainTimeout, the coordinator returns Unknown with
//     the failure log instead of blocking on Accept forever.
//   - Reconnecting workers: a worker with MaxReconnects > 0 redials
//     after a lost connection with exponential backoff plus seeded
//     jitter, and its health (jobs, failures, connections, last seen) is
//     tracked across connections by name in the coordinator's registry
//     (CoordinatorResult.Workers).
//   - Fault injection: WorkerOptions.Faults takes a deterministic
//     FaultPlan that can drop the connection mid-job, stall silently, go
//     half-open (TCP up, every send swallowed), or corrupt a frame at
//     chosen job indices — the harness the test suite uses to exercise
//     every reassignment path. CoordinatorFaultPlan is the primary-side
//     counterpart: an abrupt in-process SIGKILL after N commits.
//
// # Coordinator failover
//
// RunHA runs a coordinator as one half of a hot-standby pair: lease
// -based leadership with epoch fencing (Lease, HAOptions), live journal
// replication from primary to standby over the job wire protocol, and
// automatic promotion — a standby whose primary's lease expires resumes
// the run from its replicated journal, and workers given both addresses
// (Work with "addr1,addr2") re-home to it without restarting. See
// failover.go and the "Coordinator failover" section of DESIGN.md.
package distrib

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/prog"
)

// ChunkResult records one simulated machine's run.
type ChunkResult struct {
	Chunk   partition.Cube
	Verdict core.Verdict
	Time    time.Duration
}

// SimResult aggregates a simulated cluster run.
type SimResult struct {
	// Verdict is Unsafe if any chunk found a bug, Safe if all chunks are
	// safe, Unknown on cancellation.
	Verdict core.Verdict
	// MaxChunkTime is the simulated cluster wall-clock time (the paper's
	// Fig. 7 metric: chunks run on different machines in parallel, so the
	// slowest machine determines completion).
	MaxChunkTime time.Duration
	// TotalTime is the actual sequential wall-clock spent simulating.
	TotalTime time.Duration
	// Chunks are the per-machine results.
	Chunks []ChunkResult
}

// SimulateCluster analyses the program with nparts partitions split into
// chunks of machineCores each, running one chunk after another on
// machineCores workers, exactly like the paper's cluster simulation.
func SimulateCluster(ctx context.Context, p *prog.Program, opts core.Options, nparts, machineCores int) (*SimResult, error) {
	start := time.Now()
	opts.Partitions, opts.Cores = nparts, machineCores
	// As many partitions as the encoding allows: the run's manifest says.
	prep, err := core.Prepare(p, opts)
	if err != nil {
		return nil, err
	}
	chunks := partition.Chunks(prep.Manifest().Partitions, machineCores)
	res := &SimResult{Verdict: core.Safe}
	for _, ch := range chunks {
		o := opts
		o.From, o.To = ch.From, ch.To+1
		r, err := core.Verify(ctx, p, o)
		if err != nil {
			return nil, err
		}
		res.Chunks = append(res.Chunks, ChunkResult{Chunk: ch, Verdict: r.Verdict, Time: r.SolveTime})
		if r.SolveTime > res.MaxChunkTime {
			res.MaxChunkTime = r.SolveTime
		}
		switch r.Verdict {
		case core.Unsafe:
			// A real cluster would terminate the other machines here; the
			// simulation can simply stop (the max-time metric still holds:
			// machines run concurrently).
			res.Verdict = core.Unsafe
			res.TotalTime = time.Since(start)
			return res, nil
		case core.Unknown:
			res.Verdict = core.Unknown
			res.TotalTime = time.Since(start)
			return res, nil
		}
	}
	res.TotalTime = time.Since(start)
	return res, nil
}
