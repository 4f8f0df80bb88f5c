package distrib

import (
	"bytes"
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/sat"
)

// FaultKind selects the failure a FaultEvent injects.
type FaultKind int

const (
	// FaultDrop closes the connection upon receiving the job, before any
	// result is sent — a worker crashing mid-job.
	FaultDrop FaultKind = iota
	// FaultStall suppresses heartbeats and the result for the event's
	// Stall duration before processing the job — a hung worker. The
	// coordinator's heartbeat monitor should evict the connection well
	// before the job timeout.
	FaultStall
	// FaultCorrupt puts a malformed frame on the wire in place of the
	// result and drops the connection.
	FaultCorrupt
	// FaultPanic makes the solver path panic inside the job. The worker's
	// recover boundary must convert it into a structured Error result and
	// keep the process alive.
	FaultPanic
	// FaultHalfOpen simulates a half-open connection: the TCP socket
	// stays up and readable, the job runs, but every outbound message —
	// heartbeats and the result alike — is silently swallowed. Neither
	// endpoint sees a connection error, so only the coordinator's
	// HeartbeatGrace monitor (never a transport failure, and long before
	// JobTimeout) can detect it.
	FaultHalfOpen
	// FaultSlow makes the worker a deterministic straggler: the job
	// sleeps for the event's Slow duration before solving, with
	// heartbeats flowing normally (zero progress, zero hardness) the
	// whole time. Unlike FaultStall the worker is perfectly healthy as
	// far as the liveness monitor can tell — only the adaptive
	// scheduler's split/hedge machinery can route around it. The sleep
	// aborts promptly when the job is cancelled.
	FaultSlow

	// The remaining kinds are Byzantine: the worker completes the job but
	// lies about the outcome. They exercise the coordinator's certificate
	// checking — an uncertified coordinator accepts every one of them.

	// FaultFlipVerdict inverts a definite verdict: SAFE becomes UNSAFE
	// with a fabricated all-zero model, UNSAFE becomes SAFE with no
	// proofs.
	FaultFlipVerdict
	// FaultBogusModel claims UNSAFE with a garbage model regardless of
	// the honest verdict.
	FaultBogusModel
	// FaultTruncatedProof sends only a prefix of the real certificate
	// (declaring the truncated size, so the cut manifests as a corrupt
	// certificate rather than a hung transfer).
	FaultTruncatedProof
	// FaultOversizedProof declares a certificate above the coordinator's
	// size cap and sends nothing.
	FaultOversizedProof
	// FaultFlipLemma negates the first literal of lemma number
	// FaultEvent.Lemma — counted round the proof as often as it takes —
	// in the certificate's first proof and leaves everything else alone:
	// a well-formed certificate of the right size that only an actual
	// proof check can tell from the honest one. A first proof without
	// lemmas has none to flip: the digest of the prefix it continues is
	// falsified instead, so the fault never passes for an honest run.
	FaultFlipLemma
	// FaultOtherTemplate has the worker prepare the run under a memory
	// budget of its own (FaultEvent.MemMB) instead of the job's — what a
	// worker from another build or with another configuration amounts to:
	// honest proofs of honest verdicts, over a template that is not the
	// coordinator's.
	FaultOtherTemplate
	// FaultHostileHints leaves the verdict and every proof as they are and
	// replaces the hints (sat.Proof.Hints) of each lemma, in rotation, by
	// none, every variable, variable 0, a variable past the last, and the
	// next lemma's: what a worker of another build, or one out to waste
	// the coordinator's time, could send. It is the one Byzantine kind the
	// coordinator must not refuse — a hint is advice, the proof is honest —
	// and it shows as CertifyWork.Fallbacks.
	FaultHostileHints
)

func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultCorrupt:
		return "corrupt"
	case FaultPanic:
		return "panic"
	case FaultHalfOpen:
		return "half-open"
	case FaultSlow:
		return "slow"
	case FaultFlipVerdict:
		return "flip-verdict"
	case FaultBogusModel:
		return "bogus-model"
	case FaultTruncatedProof:
		return "truncated-proof"
	case FaultOversizedProof:
		return "oversized-proof"
	case FaultFlipLemma:
		return "flip-lemma"
	case FaultOtherTemplate:
		return "other-template"
	case FaultHostileHints:
		return "hostile-hints"
	}
	return "unknown"
}

// transport reports whether the kind is injected at the wire level
// (before the job runs) rather than by mutating an honestly computed
// result.
func (k FaultKind) transport() bool {
	switch k {
	case FaultDrop, FaultStall, FaultCorrupt:
		return true
	}
	return false
}

// FaultEvent injects one failure when the worker receives its Job-th job
// (zero-based, counted across reconnects).
type FaultEvent struct {
	Job   int
	Kind  FaultKind
	Stall time.Duration // FaultStall only
	Slow  time.Duration // FaultSlow only
	Lemma int           // FaultFlipLemma only: index into the first proof, modulo its length
	MemMB int64         // FaultOtherTemplate only: the memory budget the worker prepares the run under
}

// FaultPlan is a deterministic fault-injection schedule for a worker.
// Given the same plan (and the same job order), a worker fails the same
// way every run; Seed additionally fixes the reconnect-backoff jitter so
// whole churn scenarios replay byte-for-byte. It replaces the old
// single FailAfterJobs knob.
type FaultPlan struct {
	// Seed drives the jittered reconnect backoff (0 is treated as 1).
	Seed int64
	// Events fire by job index; at most one event fires per job (the
	// first match wins).
	Events []FaultEvent
	// Every, when non-nil, fires on every job that has no indexed
	// event — e.g. a worker that is uniformly slow.
	Every *FaultEvent
	// OnFire, when non-nil, is called with each event as it fires: the
	// worker holds the job the coordinator assigned it and has yet to act
	// on it, the fault included. Tests wait on it where they would
	// otherwise sleep and hope, or hold the worker there.
	OnFire func(FaultEvent)
}

// SlowAt returns a plan that delays each of the given job indices by d
// before solving; with no indices the worker is uniformly slow.
func SlowAt(d time.Duration, jobs ...int) *FaultPlan {
	p := &FaultPlan{}
	if len(jobs) == 0 {
		p.Every = &FaultEvent{Kind: FaultSlow, Slow: d}
		return p
	}
	for _, j := range jobs {
		p.Events = append(p.Events, FaultEvent{Job: j, Kind: FaultSlow, Slow: d})
	}
	return p
}

// DropAt returns a plan that drops the connection upon receiving each of
// the given job indices — the common "crash mid-job" scenario.
func DropAt(jobs ...int) *FaultPlan {
	p := &FaultPlan{}
	for _, j := range jobs {
		p.Events = append(p.Events, FaultEvent{Job: j, Kind: FaultDrop})
	}
	return p
}

// eventAt returns the event scheduled for the given job index, nil-safe,
// after telling OnFire.
func (p *FaultPlan) eventAt(job int) *FaultEvent {
	if p == nil {
		return nil
	}
	f := p.Every
	for i := range p.Events {
		if p.Events[i].Job == job {
			f = &p.Events[i]
			break
		}
	}
	if f != nil && p.OnFire != nil {
		p.OnFire(*f)
	}
	return f
}

// seed returns the jitter seed, nil-safe and never zero.
func (p *FaultPlan) seed() int64 {
	if p == nil || p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// CoordinatorFaultPlan injects primary-side failures, the counterpart
// of the worker's FaultPlan for failover testing.
type CoordinatorFaultPlan struct {
	// KillAfterJobs, when > 0, halts the coordinator abruptly after
	// that many chunk verdicts have been committed: the listener and
	// every worker connection are torn down with no stop messages, no
	// journal close, and — critically — no lease release, exactly the
	// wreckage a SIGKILL leaves. Coordinate returns ErrPrimaryKilled.
	KillAfterJobs int
}

// killAt reports whether the plan kills the primary once n chunk
// verdicts are committed, nil-safe.
func (p *CoordinatorFaultPlan) killAt(n int) bool {
	return p != nil && p.KillAfterJobs > 0 && n >= p.KillAfterJobs
}

// mutateResult applies a Byzantine fault to an honestly computed result:
// the worker lies about the verdict or its evidence. Exercises the
// coordinator's certificate checking.
func mutateResult(f *FaultEvent, m *Message, reply *Message, cert **Certificate) {
	if f == nil || reply.Error != "" {
		return
	}
	// Fabricated models reuse the honest certificate's variable count
	// when one exists, so the lie passes the cheap size check and is
	// caught by actual clause evaluation.
	numVars := 1
	if *cert != nil && (*cert).NumVars > 0 {
		numVars = (*cert).NumVars
	}
	switch f.Kind {
	case FaultFlipVerdict:
		switch reply.Verdict {
		case core.Safe.String():
			reply.Verdict = core.Unsafe.String()
			reply.Winner = m.From
			*cert = &Certificate{NumVars: numVars, Model: packBits(make([]bool, numVars))}
		case core.Unsafe.String():
			reply.Verdict = core.Safe.String()
			reply.Winner = -1
			*cert = &Certificate{NumVars: numVars} // no proofs: nothing to show
		}
	case FaultBogusModel:
		reply.Verdict = core.Unsafe.String()
		reply.Winner = m.From
		bogus := make([]bool, numVars)
		for i := range bogus {
			bogus[i] = i%2 == 0
		}
		*cert = &Certificate{NumVars: numVars, Model: packBits(bogus)}
	case FaultFlipLemma:
		if *cert == nil || len((*cert).Proofs) == 0 {
			return // not a SAFE certificate: no proof to forge
		}
		forged := **cert
		honest := forged.Proofs[0].Proof
		if n := honest.NumLemmas(); n > 0 && len(honest.Lemmas[f.Lemma%n]) > 0 {
			at := f.Lemma % n
			lemmas := slices.Clone(honest.Lemmas)
			lemmas[at] = slices.Clone(lemmas[at])
			lemmas[at][0] ^= 1
			forged.Proofs = slices.Clone(forged.Proofs)
			// The hints stay: the forged lemma goes the way a liar's would,
			// through its hint, then the full test, then out.
			forged.Proofs[0].Proof = &sat.Proof{Lemmas: lemmas, Deletes: honest.Deletes, Hints: honest.Hints}
		} else {
			forged.Prefix = &sat.ProofDigest{SHA256: "forged"}
			if p := (*cert).Prefix; p != nil {
				forged.Prefix.Lemmas = p.Lemmas
			}
		}
		*cert = &forged
	case FaultHostileHints:
		if *cert == nil {
			return
		}
		hostile := **cert
		hostile.Proofs = slices.Clone(hostile.Proofs)
		for i, pp := range hostile.Proofs {
			if pp.Proof != nil {
				hostile.Proofs[i].Proof = hostileHints(pp.Proof, numVars)
			}
		}
		*cert = &hostile
	}
}

// hostileHints returns p with FaultHostileHints' hints in place of its
// own.
func hostileHints(p *sat.Proof, numVars int) *sat.Proof {
	hints := make([]sat.Hint, len(p.Lemmas))
	for i := range hints {
		switch i % 5 {
		case 1:
			hints[i] = bytes.Repeat([]byte{1}, numVars)
		case 2:
			hints[i] = sat.Hint{0}
		case 3:
			hints[i] = binary.AppendUvarint(nil, uint64(numVars)+1)
		case 4:
			if next := (i + 1) % len(hints); next < len(p.Hints) {
				hints[i] = p.Hints[next]
			}
		}
	}
	return &sat.Proof{Lemmas: p.Lemmas, Deletes: p.Deletes, Hints: hints}
}
