// Solver introspection: the performance-observatory time-series built
// on top of the Progress-callback cadence. A Sampler turns the raw
// Stats snapshots the solver already emits every Options.ProgressEvery
// conflicts into a bounded time-series of rates (conflicts, decisions,
// propagations per second), learnt-DB churn, restart timeline and a
// derived per-instance hardness score. The hardness score is the
// signal surface the adaptive-partitioning coordinator (ROADMAP item 1)
// will consume: it orders partitions by how hard they are fighting for
// how little progress.
package sat

import (
	"sync"
	"time"
)

// LBDBounds are the inclusive upper bounds of the learnt-clause LBD
// histogram buckets; a final implicit bucket collects everything above
// the last bound. The bounds are fixed (not configurable) so that
// histograms from different solver instances, workers and processes
// merge bucket-wise without rebinning — Stats.Add, the distrib
// heartbeat path and the parbmc_lbd_bucket export all rely on this.
var LBDBounds = [...]int{1, 2, 3, 4, 6, 8, 12, 16}

// LBDBucketCount is the number of histogram buckets: one per bound
// plus the overflow bucket.
const LBDBucketCount = len(LBDBounds) + 1

// LBDHistogram counts learnt clauses per LBD bucket. The zero value is
// ready to use; it marshals as a plain JSON array so it travels on the
// distrib wire inside Stats unchanged.
type LBDHistogram [LBDBucketCount]int64

// LBDBucket maps an LBD value to its bucket index.
func LBDBucket(lbd int) int {
	for i, b := range LBDBounds {
		if lbd <= b {
			return i
		}
	}
	return LBDBucketCount - 1
}

// Observe records one learnt clause with the given LBD.
func (h *LBDHistogram) Observe(lbd int) { h[LBDBucket(lbd)]++ }

// Merge adds o's counts bucket-wise.
func (h *LBDHistogram) Merge(o LBDHistogram) {
	for i := range h {
		h[i] += o[i]
	}
}

// Total is the number of observations across all buckets.
func (h LBDHistogram) Total() int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

// GlueFraction is the share of learnt clauses with LBD ≤ 2 (the "glue
// clauses" a CDCL solver never deletes); a cheap scalar summary of how
// productive learning is on this instance.
func (h LBDHistogram) GlueFraction() float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	return float64(h[0]+h[1]) / float64(total)
}

// Hardness derives the per-instance hardness score from the change
// between two statistics snapshots dt apart:
//
//	hardness = conflictRate × (1 − progressSlope)
//
// where conflictRate is conflicts per second over the interval and
// progressSlope is the gain of the progress estimate per second,
// clamped to [0,1]. An instance burning conflicts while its progress
// estimate stalls scores high; one cruising towards a verdict scores
// low. The score is dimensionally a conflict rate, so it is comparable
// across partitions of the same run but not across machines.
//
// For fixed dt and progress delta the score is monotonically
// non-decreasing in the conflict delta (locked in by
// TestHardnessMonotoneInConflictRate).
func Hardness(conflictDelta int64, progressDelta float64, dt time.Duration) float64 {
	if dt <= 0 || conflictDelta <= 0 {
		return 0
	}
	secs := dt.Seconds()
	rate := float64(conflictDelta) / secs
	slope := progressDelta / secs
	if slope < 0 {
		slope = 0
	}
	if slope > 1 {
		slope = 1
	}
	return rate * (1 - slope)
}

// Sample is one reading of a search: the cumulative counters at the
// sampling instant plus the rates and hardness derived from the interval
// since the previous sample.
type Sample struct {
	AtMillis int64 `json:"at_ms"` // since the sampler was created

	Conflicts     int64   `json:"conflicts"`
	Decisions     int64   `json:"decisions"`
	Propagations  int64   `json:"propagations"`
	Restarts      int64   `json:"restarts"` // restart timeline: cumulative count per point
	Learnt        int64   `json:"learnt"`
	LearntDeleted int64   `json:"learnt_deleted"`
	LearntDB      int64   `json:"learnt_db"`
	Progress      float64 `json:"progress"`

	ConflictRate    float64 `json:"conflict_rate"`    // conflicts / second over the last interval
	DecisionRate    float64 `json:"decision_rate"`    // decisions / second
	PropagationRate float64 `json:"propagation_rate"` // propagations / second
	Hardness        float64 `json:"hardness"`         // see Hardness
}

// Sampler turns the solver's Progress snapshots into Samples and keeps
// the latest. It is piggybacked on the Progress callback: wire Observe
// as (or from) the Progress func and every ProgressEvery-conflict
// snapshot becomes one Sample. The sampler is safe for one writer (the
// solving goroutine) and any number of readers.
type Sampler struct {
	mu     sync.Mutex
	origin time.Time

	hasPrev bool
	prevAt  time.Time
	prev    Stats

	last Sample
}

// NewSampler creates a sampler whose clock starts now.
func NewSampler() *Sampler {
	return &Sampler{origin: time.Now()}
}

// Observe derives the sample of one statistics snapshot and returns it.
// Nil-safe: a nil sampler ignores the snapshot.
func (sp *Sampler) Observe(st Stats) Sample {
	if sp == nil {
		return Sample{}
	}
	return sp.observeAt(time.Now(), st)
}

func (sp *Sampler) observeAt(now time.Time, st Stats) Sample {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	s := Sample{
		AtMillis:      now.Sub(sp.origin).Milliseconds(),
		Conflicts:     st.Conflicts,
		Decisions:     st.Decisions,
		Propagations:  st.Propagations,
		Restarts:      st.Restarts,
		Learnt:        st.Learnt,
		LearntDeleted: st.LearntDeleted,
		LearntDB:      st.LearntDB,
		Progress:      st.Progress,
	}
	if sp.hasPrev {
		dt := now.Sub(sp.prevAt)
		if secs := dt.Seconds(); secs > 0 {
			s.ConflictRate = float64(st.Conflicts-sp.prev.Conflicts) / secs
			s.DecisionRate = float64(st.Decisions-sp.prev.Decisions) / secs
			s.PropagationRate = float64(st.Propagations-sp.prev.Propagations) / secs
			s.Hardness = Hardness(st.Conflicts-sp.prev.Conflicts, st.Progress-sp.prev.Progress, dt)
		}
	}
	sp.hasPrev = true
	sp.prevAt = now
	sp.prev = st
	sp.last = s
	return s
}

// Last returns the most recent sample, if any. Nil-safe.
func (sp *Sampler) Last() (Sample, bool) {
	if sp == nil {
		return Sample{}, false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.last, sp.hasPrev
}

// HardnessScore returns the hardness of the most recent sample, or 0
// before the second sample (rates need an interval). Nil-safe.
func (sp *Sampler) HardnessScore() float64 {
	s, _ := sp.Last()
	return s.Hardness
}
