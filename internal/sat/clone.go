package sat

import "slices"

// Clone returns an independent solver in the state s is in: loaded,
// perhaps simplified (Simplify), perhaps solved before. Solving the
// clone is solving s — same clause set, watch lists in the same order,
// same assignment, activities, phases and random state, so the same
// search to the counter — except that the clone's counters (Stats,
// PeakBytes) start at zero, its proof log is empty, and it has no
// callbacks, decision graph, model or pending interrupt of s's. It is the
// cheap way to many solvers of one formula: a handful of flat copies
// where NewFromFormula sorts, normalises and attaches every clause, and
// after one simplification pass instead of one per solver.
//
// What a search writes to is copied; what only the simplification pass
// writes to, and it is over by now or never due (the map to the
// formula's numbering, the elimination stack), is shared. So s and its
// clones may be solved concurrently with each other — but not s cloned
// while it is being solved.
//
// With proof logging on, the clone logs to a proof of its own: the
// lemmas s has logged so far are the prefix every clone's log continues,
// and since they were derived before the clone assumed anything, the
// prefix's bytes and then the clone's checks wherever the log of a solver
// that had done all of it alone would (see ProofChecker.Extend for
// checking the prefix once). Its clause IDs are s's, and so are the IDs
// of the units fixed at level 0; its lemmas' continue from s's, so the
// two appended are the joined log with nothing renumbered.
func (s *Solver) Clone() *Solver {
	c := &Solver{
		opts:    s.opts,
		numVars: s.numVars,
		ok:      s.ok,

		ids:    s.ids,
		nextID: s.nextID,
		units:  slices.Clone(s.units),
		logged: s.logged,

		arena:   slices.Clone(s.arena),
		clauses: slices.Clone(s.clauses),
		learnts: slices.Clone(s.learnts),
		watches: make([][]watcher, len(s.watches)),

		vals:     slices.Clone(s.vals),
		level:    slices.Clone(s.level),
		reason:   slices.Clone(s.reason),
		polarity: slices.Clone(s.polarity),
		frozen:   slices.Clone(s.frozen),

		simplifyAt: s.simplifyAt,
		simplified: s.simplified,
		// Capped, so that a clone that grows its variable set appends to
		// a copy.
		ext:       slices.Clip(s.ext),
		numElim:   s.numElim,
		elimStack: s.elimStack,

		trail:    slices.Clone(s.trail),
		trailLim: slices.Clone(s.trailLim),
		qhead:    s.qhead,

		activity: slices.Clone(s.activity),
		varInc:   s.varInc,
		claInc:   s.claInc,
		order:    varHeap{heap: slices.Clone(s.order.heap), pos: slices.Clone(s.order.pos)},
		// Clear between conflicts, and nothing reads a level's stamp
		// before the epoch that wrote it.
		seen:     make([]byte, len(s.seen)),
		lbdStamp: make([]uint32, len(s.lbdStamp)),

		rngState: s.rngState,
	}
	// The watch lists, as reserve makes them: carved from one allocation.
	n := 0
	for _, ws := range s.watches {
		n += len(ws)
	}
	backing := make([]watcher, n)
	for l, ws := range s.watches {
		n = copy(backing, ws)
		c.watches[l] = backing[:n:n]
		backing = backing[n:]
	}
	if s.proof != nil {
		c.KeepProof(&FlatLog{})
	}
	return c
}
