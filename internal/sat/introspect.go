// Solver introspection: the learnt-clause LBD histogram that rides in
// Stats beside the search counters the solver already emits every
// Options.ProgressEvery conflicts.

package sat

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
