// Package distrib implements the paper's distributed analysis
// (Sect. 3.4) over TCP: a coordinator (Coordinate) hands partition
// ranges to connected workers (Work), collects verdicts, reassigns
// chunks of failed workers, and broadcasts termination as soon as one
// worker finds a counterexample — the cross-machine termination the
// paper's prototype left as future work.
//
// Only the coordinator runs the front end. It encodes the program once,
// builds the run's solver template once and ships its snapshot to every
// connection; each job carries the assumption literals of its cubes. A
// worker is a solver: it restores the template, solves each cube under
// the literals it is sent, and ships back the verdict, the statistics
// and the evidence — a model for UNSAFE, which the coordinator replays
// on its own encoding in every certify mode, and under certification a
// refutation proof per partition for SAFE. It never sees the program.
// (The paper's Fig. 7, a cluster simulated one machine after another,
// is one simulated run: core.Verify with SimulateParallel.)
//
// # Fault tolerance
//
// Worker churn is treated as the normal case, not the exception:
//
//   - Retry budget and quarantine: every chunk failure (connection loss,
//     stall, corrupt frame, stale result, worker-side error, an
//     uncertified counterexample that does not replay) charges the
//     chunk's attempt budget (CoordinatorOptions.MaxAttempts). A chunk
//     that exhausts the budget is quarantined — recorded in the
//     structured failure log (CoordinatorResult.Quarantined) with one
//     reason per failed attempt — instead of being reassigned forever; a
//     quarantined chunk caps the verdict at Unknown.
//   - Heartbeats: each job message carries the heartbeat cadence; the
//     worker reports at that interval while the solver runs, and the
//     coordinator declares a connection stalled after HeartbeatGrace of
//     silence — well before the 10-minute JobTimeout.
//   - Budgets and the memory watchdog: a cube that exhausts a budget the
//     run set (CoordinatorOptions.Budget) comes back a terminal Unknown,
//     journaled with that budget and charged nothing; a give-up naming a
//     budget the run never set is a failed attempt. A worker's OOM
//     watchdog (WorkerOptions.MemLimitBytes) cancels its job near the
//     limit, and the cube is re-queued like any cancelled attempt: the
//     trip is the machine's, not the cube's.
//   - Result validation: a result whose JobID does not match the
//     outstanding job is rejected as a stale-result misattribution and
//     treated as a worker failure; frames are capped at 16 MiB.
//   - Drain detection: when chunks are pending but no workers remain
//     connected for DrainTimeout, the coordinator returns Unknown with
//     the failure log instead of blocking on Accept forever.
//   - Reconnecting workers: a worker with MaxReconnects > 0 redials
//     after a lost connection with exponential backoff plus a jitter of
//     its own (a FaultPlan's Seed makes it replay), and its health (jobs,
//     failures, connections, last seen) is tracked across connections by
//     name in the coordinator's registry (CoordinatorResult.Workers). For
//     DrainTimeout after a run ended, a worker that dials in is told so.
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
