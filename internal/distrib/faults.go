package distrib

import (
	"math"
	"math/rand"
	"slices"
	"time"

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

	// FaultFlipVerdict inverts a definite answer: UNSAT becomes SAT
	// with a fabricated all-zero model, SAT becomes UNSAT with no
	// proofs.
	FaultFlipVerdict
	// FaultBogusModel claims SAT with a garbage model regardless of
	// the honest answer.
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
	// lemmas has none to flip: it is filed under a partition outside the
	// cube instead, so the fault never passes for an honest run.
	FaultFlipLemma
	// FaultOtherTemplate has the worker solve the job on an altered copy
	// of the template it was sent, one with a clause of its own added
	// (otherTemplate) — what a worker from another build or with another
	// configuration amounts to: honest proofs of honest verdicts, over a
	// template that is not the coordinator's.
	FaultOtherTemplate
	// FaultHostileHints leaves the verdict and every lemma as they are and
	// replaces the antecedent chain (see sat.Proof) of each lemma, in
	// rotation, by its own reversed, its own cut to the first half, the
	// IDs of the clauses the proof deletes and one no clause has, the next
	// lemma's, and none: what a worker of another build, or one out to
	// waste the coordinator's time, could send. The chain is the proof, so
	// the coordinator refuses the certificate at the first lemma whose
	// chain does not end in a false clause, having walked no more of the
	// chains than the worker shipped.
	FaultHostileHints
)

// faultNames are the kinds' String forms.
var faultNames = [...]string{
	FaultDrop: "drop", FaultStall: "stall", FaultCorrupt: "corrupt", FaultPanic: "panic",
	FaultHalfOpen: "half-open", FaultSlow: "slow", FaultFlipVerdict: "flip-verdict",
	FaultBogusModel: "bogus-model", FaultTruncatedProof: "truncated-proof",
	FaultOversizedProof: "oversized-proof", FaultFlipLemma: "flip-lemma",
	FaultOtherTemplate: "other-template", FaultHostileHints: "hostile-hints",
}

func (k FaultKind) String() string {
	if uint(k) < uint(len(faultNames)) {
		return faultNames[k]
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
}

// FaultPlan is a deterministic fault-injection schedule for a worker.
// Given the same plan (and the same job order), a worker fails the same
// way every run; Seed additionally fixes the reconnect-backoff jitter so
// whole churn scenarios replay byte-for-byte. It replaces the old
// single FailAfterJobs knob.
type FaultPlan struct {
	// Seed drives the jittered reconnect backoff; 0 leaves it to the
	// process's own random source, as for a worker without a plan.
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

// jitter returns the worker's source of reconnect jitter, nil-safe: the
// plan's Seed when it sets one, so a churn scenario replays; otherwise a
// seed of the process's own, so workers dropped together (by a
// coordinator restart, say) do not redial in lockstep.
func (p *FaultPlan) jitter() *rand.Rand {
	seed := rand.Int63()
	if p != nil && p.Seed != 0 {
		seed = p.Seed
	}
	return rand.New(rand.NewSource(seed))
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
		switch sat.ParseStatus(reply.Verdict) {
		case sat.Unsat:
			reply.Verdict = sat.Sat.String()
			reply.Winner = m.From
			*cert = &Certificate{NumVars: numVars, Model: packBits(make([]bool, numVars))}
		case sat.Sat:
			reply.Verdict = sat.Unsat.String()
			reply.Winner = -1
			*cert = &Certificate{NumVars: numVars} // no proofs: nothing to show
		}
	case FaultBogusModel:
		reply.Verdict = sat.Sat.String()
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
		forged.Proofs = slices.Clone(forged.Proofs)
		// The chains stay: the forged lemma goes the way a liar's would,
		// along its chain, then out.
		honest, flipped := forged.Proofs[0].Proof, false
		at := f.Lemma % max(honest.NumLemmas(), 1)
		forged.Proofs[0].Proof = relogged(honest, func(i int, lemma, chain []uint32) []uint32 {
			if i == at && len(lemma) > 0 {
				lemma[0] ^= 1
				flipped = true
			}
			return chain
		})
		if !flipped {
			forged.Proofs[0] = PartitionProof{Partition: -1, Proof: honest}
		}
		*cert = &forged
	case FaultHostileHints:
		if *cert == nil {
			return
		}
		hostile := **cert
		hostile.Proofs = slices.Clone(hostile.Proofs)
		for i, pp := range hostile.Proofs {
			if p := hostileHints(pp.Proof); p != nil {
				hostile.Proofs[i].Proof = p
			}
		}
		*cert = &hostile
	}
}

// relogged is p logged again step by step (sat.FlatLog.Step), lemma
// number i with the chain edit returns, once it has had its way with the
// lemma; nil only for a proof Steps refuses.
func relogged(p sat.Proof, edit func(i int, lemma, chain []uint32) []uint32) sat.Proof {
	log := sat.FlatLog{}
	i := 0
	if p.Steps(func(deleted bool, clause, ids []uint32) error {
		if !deleted {
			ids, i = edit(i, clause, ids), i+1
		}
		log.Step(deleted, clause, ids)
		return nil
	}) != nil {
		return nil
	}
	return sat.Proof(log)
}

// hostileHints returns p with FaultHostileHints' chains in place of its
// own, nil for a proof Steps refuses.
func hostileHints(p sat.Proof) sat.Proof {
	deleted := []uint32{math.MaxUint32}
	var chains [][]uint32
	p.Steps(func(del bool, _, ids []uint32) error {
		if del {
			deleted = append(deleted, ids[0])
		} else {
			chains = append(chains, slices.Clone(ids))
		}
		return nil
	})
	return relogged(p, func(i int, _, own []uint32) []uint32 {
		switch i % 5 {
		case 0:
			slices.Reverse(own)
			return own
		case 1:
			return own[:len(own)/2]
		case 2:
			return deleted
		case 3:
			return chains[(i+1)%len(chains)]
		}
		return nil
	})
}
