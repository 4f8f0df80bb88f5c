package sat

import (
	"slices"

	"repro/internal/cnf"
)

// This file is the simplifier of "MiniSat with simplifier", the solver
// configuration of the paper's prototype (Sect. 3.4): backward
// subsumption, self-subsuming resolution and bounded variable
// elimination with zero clause growth, to a fixpoint, in the manner of
// MiniSat's SimpSolver. It is one engine on the solver's own layout —
// clauses in a []uint32 arena with a 32-bit signature each, occurrence
// lists carved from one allocation, an elimination order in 32-bit heap
// slots, no map anywhere — and it runs inside Solver.Solve: once per
// solver, at decision level 0 between two restarts, when the search has
// already cost about what the pass will (simplifyPropsPerClause). See
// DESIGN.md, "Simplification inside the solver".

const (
	// simplifyPropsPerClause sets when Solve runs the pass: at the first
	// restart boundary where the solver has made this many propagations
	// per original clause. The pass costs about 2 µs per clause, which
	// is what ~27 propagations cost, so by rent-or-buy a search that has
	// come this far has paid for it; 40 also keeps every job that
	// finishes sooner (all of the benchmark's quick_batch and
	// distrib_loopback) on exactly the search it had without the pass.
	// The trigger reads counters only, never a clock.
	simplifyPropsPerClause = 40

	// maxResolventLen keeps variable elimination from producing long
	// clauses (MiniSat's clause_lim).
	maxResolventLen = 20
)

// Flag bits of an eliminator clause header, below the size.
const (
	elimDerived  = 1 << iota // produced by the pass, not loaded from the solver
	elimQueued               // on the subsumption queue
	elimRemoved              // subsumed, satisfied or eliminated
	elimFlagBits = iota
)

// eliminator is the working state of one pass. A clause is
//
//	[signature] [id] [size<<elimFlagBits | flags] lit0 lit1 ... litN-1
//
// in its own arena, addressed like a solver clause by the index of
// lit0, the ID (see Proof) there only if the solver's clauses have IDs:
// hw, the words ahead of lit0, is 3 then and 2 otherwise. A removed
// clause keeps its place and size, and a strengthened
// one leaves a zero word behind for each literal it lost, so the arena
// can be walked from one end to the other (no signature is zero): that
// is how the first round of subsumption, compact and install find the
// clauses. occ lists, per variable as in MiniSat (half the list headers
// of per-literal lists, and the pass's footprint is what a run with
// several cold solvers pays in peak memory), the clauses that contain
// the variable and, until the list is next cleaned, removed ones;
// nocc[l] counts the live clauses that contain literal l exactly. No
// clause holds a literal assigned at level 0 once the units pending on
// the solver's trail (from units on) have been applied.
type eliminator struct {
	s *Solver

	arena  []uint32
	hw     cref     // words ahead of a clause's first literal
	wasted int      // arena words of removed clauses and lost literals
	occ    [][]cref // per variable
	dirty  []bool   // per variable: occ holds removed clauses
	nocc   []int32  // per literal
	elim   []bool   // per variable: eliminated

	// The subsumption queue: clauses to try as subsumers. The clauses
	// load stored come first, read off the arena from seed to seedEnd.
	queue         []cref
	qhead         int
	seed, seedEnd cref
	touched       []bool  // per variable: a clause over it was added
	touchedVars   []int32 // the touched variables, in order

	// The pass asserts units on the solver's trail: those from
	// trailBefore on are its own, those before units are applied.
	trailBefore, units int

	// heap orders the elimination candidates, as indices into the
	// per-variable tables, by occ(x)·occ(¬x): a binary heap, cheapest
	// on top. where[v] is v's position in it plus one, 0 when absent.
	heap  []int32
	where []int32

	stamp    []uint32 // per variable: see mark
	epoch    uint32
	buf, was []lit  // a resolvent; a clause as it was before strengthen cut it
	pos, neg []cref // eliminate's split of an occurrence list

	stopped bool // interrupted: only pending units are applied from here on
}

func (e *eliminator) size(c cref) int { return int(e.arena[c-1] >> elimFlagBits) }

func (e *eliminator) removed(c cref) bool { return e.arena[c-1]&elimRemoved != 0 }

func (e *eliminator) lits(c cref) []lit {
	return e.arena[c : c+e.arena[c-1]>>elimFlagBits]
}

// sig is where c's signature is.
func (e *eliminator) sig(c cref) cref { return c - e.hw }

// id is c's ID, with hw 3.
func (e *eliminator) id(c cref) uint32 { return e.arena[c-2] }

// first, next and end walk the arena: every clause stored, removed or
// not, in order.
func (e *eliminator) first() cref { return e.hw }

func (e *eliminator) end() cref { return cref(len(e.arena)) + e.hw }

func (e *eliminator) next(c cref) cref {
	c += cref(e.size(c))
	for int(c) < len(e.arena) && e.arena[c] == 0 {
		c++
	}
	return c + e.hw
}

func signature(lits []lit) uint32 {
	var sig uint32
	for _, l := range lits {
		sig |= 1 << (l >> 1 & 31)
	}
	return sig
}

// occSlack is the room each occurrence list gets beyond the clauses
// loaded into it, so that the first resolvents find a place.
const occSlack = 2

// eliminatorBytes bounds what a pass over the solver's clauses
// allocates up front: its arena (a word more per clause than the
// solver's, and a sixteenth for resolvents before it has to compact),
// an occurrence per literal, a quarter as much again for the start of
// the elimination stack, and the per-variable tables.
func (s *Solver) eliminatorBytes() int64 {
	words := int64(len(s.arena)) + int64(len(s.clauses))
	perVar := int64(24 + 4*occSlack + 2*4 + 4 + 1 + 1 + 4 + 4 + 1) // occ header and slack, nocc, stamp, dirty, touched, heap slot and position, eliminated
	return 4*words*17/16 + 4*int64(len(s.arena)) + words + int64(s.numVars)*perVar
}

// newEliminator sizes the tables for the solver's original clauses as
// they stand under the level-0 assignment: the arena, and every
// occurrence list carved from one allocation.
func newEliminator(s *Solver) *eliminator {
	e := &eliminator{
		s:       s,
		occ:     make([][]cref, s.numVars),
		dirty:   make([]bool, s.numVars),
		nocc:    make([]int32, len(s.vals)),
		elim:    make([]bool, s.numVars),
		stamp:   make([]uint32, s.numVars),
		touched: make([]bool, s.numVars),
		heap:    make([]int32, 0, s.numVars),
		where:   make([]int32, s.numVars),

		trailBefore: len(s.trail),
		units:       len(s.trail),
		hw:          2 + s.idWords(),
	}
	// The heap's position table stands in as the degree count.
	words, occs := 0, 0
next:
	for _, c := range s.clauses {
		lits := s.lits(c)
		for _, l := range lits {
			if s.vals[l] == lTrue {
				continue next
			}
		}
		words += int(e.hw)
		for _, l := range lits {
			if s.vals[l] == lUndef {
				e.where[vidx(l)]++
				words++
				occs++
			}
		}
	}
	e.arena = make([]uint32, 0, words+words/16)
	backing := make([]cref, occs+occSlack*s.numVars)
	for v, d := range e.where {
		e.occ[v] = backing[: 0 : int(d)+occSlack]
		backing = backing[int(d)+occSlack:]
	}
	clear(e.where)
	return e
}

// load files the solver's clauses as they stand under the level-0
// assignment — satisfied ones are left out, false literals dropped, and
// a clause that lost one logged as the lemma it is now, the clause it was
// as deleted — and every eligible variable on the heap; then it takes
// the solver's own copy of the clauses away. False means a clause is
// empty under the assignment.
func (e *eliminator) load() bool {
	s := e.s
next:
	for _, c := range s.clauses {
		buf := e.buf[:0]
		for _, l := range s.lits(c) {
			switch s.vals[l] {
			case lTrue:
				s.stats.Simplified++
				continue next
			case lUndef:
				buf = append(buf, l)
			}
		}
		e.buf = buf
		id := noID
		if s.ids {
			id = s.id(c)
		}
		if s.proof != nil && len(buf) < s.size(c) {
			id = s.logFrom(buf, s.lits(c), id)
			if len(buf) > 0 {
				s.logDelete(s.lits(c), s.id(c))
			}
		}
		if len(buf) < 2 {
			// Not at a propagation fixpoint; the unit joins the trail.
			s.stats.Simplified++
			if len(buf) == 0 || !e.assertUnit(buf[0], id) {
				return false
			}
			continue
		}
		e.store(buf, 0, id)
	}
	e.seed, e.seedEnd = e.first(), e.end()
	for v := range e.where {
		if e.candidate(v) {
			e.push(int32(v))
		}
	}

	// The solver's own copy of the clauses and its watch lists are dead
	// weight from here to install, which rebuilds both: only the learnt
	// clauses are kept, in a small arena of their own.
	s.peakBytes = max(s.peakBytes, s.LiveBytes()+s.eliminatorBytes())
	words, idw := 0, s.idWords()
	for _, c := range s.learnts {
		words += int(idw) + learntWords + 1 + s.size(c)
	}
	learnt := make([]uint32, 0, words)
	for i, c := range s.learnts {
		start := c - 1 - learntWords - idw
		s.learnts[i] = cref(len(learnt)) + c - start
		learnt = append(learnt, s.arena[start:c+cref(s.size(c))]...)
	}
	s.arena, s.clauses, s.watches = learnt, s.clauses[:0], nil
	return true
}

// candidate reports whether the variable with index v may be
// eliminated: it is unassigned, not frozen by an assumption or a
// caller, and not eliminated already.
func (e *eliminator) candidate(v int) bool {
	s := e.s
	return s.vals[2*v+2] == lUndef && !s.frozen[v] && !e.elim[v]
}

// cheaper orders the heap: by occ(x)·occ(¬x), then by variable.
func (e *eliminator) cheaper(a, b int32) bool {
	ca := int64(e.nocc[2*a+2]) * int64(e.nocc[2*a+3])
	cb := int64(e.nocc[2*b+2]) * int64(e.nocc[2*b+3])
	return ca < cb || ca == cb && a < b
}

// sift moves the heap's i-th entry up or down to where it belongs.
func (e *eliminator) sift(i int) {
	h, v := e.heap, e.heap[i]
	for i > 0 && e.cheaper(v, h[(i-1)/2]) {
		h[i] = h[(i-1)/2]
		e.where[h[i]] = int32(i + 1)
		i = (i - 1) / 2
	}
	for k := 2*i + 1; k < len(h); k = 2*i + 1 {
		if k+1 < len(h) && e.cheaper(h[k+1], h[k]) {
			k++
		}
		if !e.cheaper(h[k], v) {
			break
		}
		h[i] = h[k]
		e.where[h[i]] = int32(i + 1)
		i = k
	}
	h[i] = v
	e.where[v] = int32(i + 1)
}

func (e *eliminator) push(v int32) {
	e.heap = append(e.heap, v)
	e.sift(len(e.heap) - 1)
}

// pop takes the cheapest candidate off the heap.
func (e *eliminator) pop() int {
	v, last := e.heap[0], e.heap[len(e.heap)-1]
	e.heap = e.heap[:len(e.heap)-1]
	e.where[v] = 0
	if len(e.heap) > 0 {
		e.heap[0] = last
		e.sift(0)
	}
	return int(v)
}

// store appends a clause of two or more literals; id is its ID, which
// only an arena with room for IDs keeps.
func (e *eliminator) store(lits []lit, flags uint32, id uint32) cref {
	e.arena = append(e.arena, signature(lits))
	if e.hw == 3 {
		e.arena = append(e.arena, id)
	}
	e.arena = append(e.arena, uint32(len(lits))<<elimFlagBits|flags)
	c := cref(len(e.arena))
	e.arena = append(e.arena, lits...)
	for _, l := range lits {
		e.occ[vidx(l)] = append(e.occ[vidx(l)], c)
		e.nocc[l]++
	}
	return c
}

// queueClause puts c on the subsumption queue unless it is there.
func (e *eliminator) queueClause(c cref) {
	if e.arena[c-1]&elimQueued == 0 {
		e.arena[c-1] |= elimQueued
		e.queue = append(e.queue, c)
	}
}

// compact closes the gaps removed clauses and lost literals have left
// in the arena, in place: each live clause's new address is parked in
// its signature word while the occurrence lists and the queue are
// redirected (and rid of removed clauses), then the clauses slide down
// and get their signatures back. Nothing else may hold a reference.
func (e *eliminator) compact() {
	to := e.first()
	for c := e.first(); c != e.end(); c = e.next(c) {
		if !e.removed(c) {
			e.arena[e.sig(c)] = to
			to += cref(e.size(c)) + e.hw
		}
	}
	redirect := func(list []cref) []cref {
		kept := list[:0]
		for _, c := range list {
			if !e.removed(c) {
				kept = append(kept, e.arena[e.sig(c)])
			}
		}
		return kept
	}
	for v := range e.occ {
		e.occ[v] = redirect(e.occ[v])
		e.dirty[v] = false
	}
	e.queue = append(e.queue[:0], redirect(e.queue[e.qhead:])...)
	e.qhead, e.seed, e.seedEnd = 0, 0, 0
	for c := e.first(); c != e.end(); {
		from, n := c, cref(e.size(c))
		c = e.next(c)
		if !e.removed(from) {
			dst := e.arena[e.sig(from)]
			copy(e.arena[e.sig(dst)+1:], e.arena[e.sig(from)+1:from+n])
			e.arena[e.sig(dst)] = signature(e.arena[dst : dst+n])
		}
	}
	e.arena = e.arena[:to-e.hw]
	e.wasted = 0
}

// assertUnit asserts a unit the pass derived, the clause with the given
// ID; false means it contradicts the level-0 assignment, which is logged
// as the empty clause.
func (e *eliminator) assertUnit(u lit, id uint32) bool {
	s := e.s
	switch s.vals[u] {
	case lTrue:
		return true
	case lFalse:
		if s.proof != nil {
			s.logFrom(nil, []lit{u}, id)
		}
		return false
	}
	s.fix(u, id)
	return true
}

// logLemma appends a clause the pass derived to the proof and returns
// its ID, noID with logging off. Each one is a RUP consequence of the
// clauses the checker still holds that chain names, its two parents
// (those of a resolvent, the subsumer and the clause it strengthens; for
// a literal false at level 0, see logFrom): the pass logs what it
// removes (remove, strengthen) only after what it derived from it, so
// the checker ends up with the simplified clause set, where the lemmas
// learnt afterwards are RUP because the solver learnt them there.
func (e *eliminator) logLemma(lits []lit, parents ...cref) uint32 {
	if e.s.proof == nil {
		return noID
	}
	chain := e.s.chain[:0]
	for _, c := range parents {
		chain = append(chain, e.id(c))
	}
	e.s.chain = chain
	return e.s.logLemma(lits, chain)
}

// derive adds the resolvent of two clauses the pass derived: logged,
// then stored and queued, asserted if it is a unit, or reported as the
// empty clause (false).
func (e *eliminator) derive(lits []lit, pc, nc cref) bool {
	id := e.logLemma(lits, pc, nc)
	switch len(lits) {
	case 0:
		return false
	case 1:
		return e.assertUnit(lits[0], id)
	}
	e.queueClause(e.store(lits, elimDerived, id))
	for _, l := range lits {
		v := int32(vidx(l))
		if !e.touched[v] {
			e.touched[v] = true
			e.touchedVars = append(e.touchedVars, v)
		}
		e.reprice(vidx(l), false)
	}
	return true
}

// reprice puts the variable with index v where it belongs on the heap
// after its occurrence counts changed. One that lost an occurrence is
// worth another try and goes back on; one that gained some only moves.
func (e *eliminator) reprice(v int, insert bool) {
	if at := e.where[v]; at != 0 {
		e.sift(int(at) - 1)
	} else if insert && e.candidate(v) {
		e.push(int32(v))
	}
}

// remove deletes a clause: its occurrences go lazily. A clause cut down
// to a unit went to the trail, and strengthen logged what it was.
func (e *eliminator) remove(c cref) {
	if e.s.proof != nil && e.size(c) > 1 {
		e.s.logDelete(e.lits(c), e.id(c))
	}
	for _, l := range e.lits(c) {
		e.nocc[l]--
		e.dirty[vidx(l)] = true
		e.reprice(vidx(l), true)
	}
	if e.arena[c-1]&elimDerived == 0 {
		e.s.stats.Simplified++
	}
	e.arena[c-1] |= elimRemoved
	e.wasted += int(e.hw) + e.size(c)
}

// clean drops the removed clauses from a variable's occurrence list
// and returns it.
func (e *eliminator) clean(v int) []cref {
	if e.dirty[v] {
		kept := e.occ[v][:0]
		for _, c := range e.occ[v] {
			if !e.removed(c) {
				kept = append(kept, c)
			}
		}
		e.occ[v] = kept
		e.dirty[v] = false
	}
	return e.occ[v]
}

// strengthen removes literal p from clause c — by self-subsuming
// resolution with the clause by, or because p is false at level 0 (by
// is crefUndef) — and logs what is left. A clause cut down to a unit
// moves to the trail. False means the unit contradicts the level-0
// assignment.
func (e *eliminator) strengthen(c cref, p lit, by cref) bool {
	lits := e.lits(c)
	var wasID uint32
	if e.s.proof != nil {
		e.was = append(e.was[:0], lits...) // the clause as the checker holds it
		wasID = e.id(c)
	}
	for k, l := range lits {
		if l == p {
			copy(lits[k:], lits[k+1:])
			break
		}
	}
	lits[len(lits)-1] = 0
	lits = lits[:len(lits)-1]
	e.arena[c-1] -= 1 << elimFlagBits
	e.wasted++
	e.nocc[p]--
	list := e.occ[vidx(p)]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == c {
			list[i] = list[len(list)-1]
			e.occ[vidx(p)] = list[:len(list)-1]
			break
		}
	}
	e.reprice(vidx(p), true)
	id := noID
	if e.s.proof != nil {
		if by == crefUndef {
			id = e.s.logFrom(lits, e.was, wasID)
		} else {
			id = e.logLemma(lits, by, c)
		}
		e.s.logDelete(e.was, wasID)
	}
	if e.hw == 3 {
		e.arena[c-2] = id
	}
	if len(lits) == 1 {
		u := lits[0]
		e.remove(c)
		return e.assertUnit(u, id)
	}
	e.arena[e.sig(c)] = signature(lits)
	e.queueClause(c)
	return true
}

// applyUnits brings the clauses in line with the level-0 literals the
// pass has asserted since it last looked: clauses they satisfy go,
// the others lose the false literal. False means a conflict.
func (e *eliminator) applyUnits() bool {
	s := e.s
	for ; e.units < len(s.trail); e.units++ {
		u := s.trail[e.units]
		list := e.occ[vidx(u)]
		e.occ[vidx(u)] = nil
		for _, c := range list {
			switch {
			case e.removed(c):
			case slices.Contains(e.lits(c), u):
				e.remove(c)
			case !e.strengthen(c, u^1, crefUndef):
				return false
			}
		}
	}
	return true
}

const litError = ^lit(0)

// subsumes compares a clause c with a clause d at least as long. It
// returns litUndef if c ⊆ d, the literal l of c if c with l negated is
// ⊆ d (so d can lose ¬l by self-subsuming resolution), and litError
// otherwise.
func subsumes(c, d []lit) lit {
	flipped := litUndef
next:
	for _, l := range c {
		for _, m := range d {
			if l == m {
				continue next
			}
			if flipped == litUndef && l == m^1 {
				flipped = l
				continue next
			}
		}
		return litError
	}
	return flipped
}

// backwardSubsume empties the subsumption queue: each clause on it
// removes the clauses it subsumes and strengthens those it subsumes
// but for one negated literal, which queues them in turn. Candidates
// come from the occurrence list of the clause's rarest variable. False
// means a conflict.
func (e *eliminator) backwardSubsume() bool {
	s := e.s
	for n := 0; ; n++ {
		if !e.applyUnits() {
			return false
		}
		if n&1023 == 1023 && s.interrupt.Load() {
			e.stopped = true
		}
		var c cref
		switch {
		case e.stopped:
			return true
		case e.qhead < len(e.queue):
			c = e.queue[e.qhead]
			e.qhead++
			e.arena[c-1] &^= elimQueued
		case e.seed != e.seedEnd:
			c = e.seed
			e.seed = e.next(c)
		default:
			e.queue, e.qhead = e.queue[:0], 0
			return true
		}
		if e.removed(c) {
			continue
		}
		lits := e.lits(c)
		best := lits[0]
		for _, l := range lits[1:] {
			if e.nocc[l]+e.nocc[l^1] < e.nocc[best]+e.nocc[best^1] {
				best = l
			}
		}
		sig, v := e.arena[e.sig(c)], vidx(best)
		for j := 0; j < len(e.occ[v]); j++ {
			d := e.occ[v][j]
			if d == c || e.removed(d) || e.size(d) < len(lits) || sig&^e.arena[e.sig(d)] != 0 {
				continue
			}
			switch l := subsumes(lits, e.lits(d)); l {
			case litError:
			case litUndef:
				e.remove(d)
			default:
				if !e.strengthen(d, l^1, c) {
					return false
				}
				if vidx(l) == v {
					j-- // d left this list and another took its place
				}
			}
		}
	}
}

// gatherTouched queues, as subsumers, the clauses over variables that
// gained a clause since the last call: one of them may subsume it.
func (e *eliminator) gatherTouched() {
	for _, v := range e.touchedVars {
		e.touched[v] = false
		for _, c := range e.clean(int(v)) {
			e.queueClause(c)
		}
	}
	e.touchedVars = e.touchedVars[:0]
}

// mark stamps the literals of c for resolve: the epoch, and the
// literal's sign in the low bit.
func (e *eliminator) mark(c cref) {
	e.epoch++
	if e.epoch == 1<<31 { // wrapped: old stamps could collide
		clear(e.stamp)
		e.epoch = 1
	}
	for _, l := range e.lits(c) {
		e.stamp[vidx(l)] = e.epoch<<1 | l&1
	}
}

// resolve builds, in e.buf, the resolvent of the marked clause pc with
// nc on the variable of nx (pc holds nx^1, nc holds nx). It returns
// false for a tautology.
func (e *eliminator) resolve(pc, nc cref, nx lit) bool {
	buf := e.buf[:0]
	for _, l := range e.lits(nc) {
		if l == nx {
			continue
		}
		switch e.stamp[vidx(l)] {
		case e.epoch<<1 | l&1: // in pc too
		case e.epoch<<1 | (l&1 ^ 1):
			e.buf = buf
			return false
		default:
			buf = append(buf, l)
		}
	}
	for _, l := range e.lits(pc) {
		if l != nx^1 {
			buf = append(buf, l)
		}
	}
	e.buf = buf
	return true
}

// split sorts the live occurrences of the variable with index v into
// e.pos and e.neg.
func (e *eliminator) split(v int) (pos, neg []cref) {
	pos, neg = e.pos[:0], e.neg[:0]
	for _, c := range e.clean(v) {
		if slices.Contains(e.lits(c), lit(2*v+2)) {
			pos = append(pos, c)
		} else {
			neg = append(neg, c)
		}
	}
	e.pos, e.neg = pos, neg
	return pos, neg
}

// eliminate tries to eliminate the variable with index v by clause
// distribution: if resolving its positive with its negative
// occurrences gives no more clauses than it removes, and none over
// maxResolventLen literals, the resolvents replace them and the
// smaller side goes on the solver's elimination stack.
// False means a conflict.
func (e *eliminator) eliminate(v int) bool {
	s := e.s
	px, nx := lit(2*v+2), lit(2*v+3)
	pos, neg := e.split(v)
	resolvents, words := 0, 0
	for _, pc := range pos {
		e.mark(pc)
		for _, nc := range neg {
			if !e.resolve(pc, nc, nx) {
				continue
			}
			resolvents++
			words += int(e.hw) + len(e.buf)
			if resolvents > len(pos)+len(neg) || len(e.buf) > maxResolventLen {
				return true
			}
		}
	}
	// Rather than grow, the arena takes back the room of removed
	// clauses, once that is a sixteenth of it.
	if len(e.arena)+words > cap(e.arena) && 16*e.wasted >= len(e.arena) {
		e.compact()
		pos, neg = e.split(v)
	}
	// The stack keeps the smaller side and defaults v to satisfy the
	// other: a model that leaves one of the kept clauses to v flips it.
	kept, first := pos, px
	if len(pos) > len(neg) {
		kept, first = neg, nx
	}
	for _, c := range kept {
		s.elimStack.push(first, e.lits(c))
	}
	s.elimStack.push(first^1, []lit{first ^ 1})
	e.elim[v] = true
	s.stats.ElimVars++

	// The resolvents are derived (and logged) while their parents are
	// still there.
	for _, pc := range pos {
		e.mark(pc)
		for _, nc := range neg {
			if e.resolve(pc, nc, nx) && !e.derive(e.buf, pc, nc) {
				return false
			}
		}
	}
	for _, c := range pos {
		e.remove(c)
	}
	for _, c := range neg {
		e.remove(c)
	}
	e.occ[v] = nil
	return e.backwardSubsume()
}

// run is the pass proper: subsumption and elimination in turn until
// neither has anything left to do, or the solver is interrupted. False
// means the clause set was refuted.
func (e *eliminator) run() bool {
	s := e.s
	for !e.stopped && (e.seed != e.seedEnd || len(e.touchedVars) > 0 || len(e.heap) > 0) {
		e.gatherTouched()
		if !e.backwardSubsume() {
			return false
		}
		for !e.stopped {
			// Polled per variable: a cancelled cube or an expired
			// budget must not wait for the rest of the pass.
			if s.interrupt.Load() {
				e.stopped = true
				break
			}
			if len(e.heap) == 0 {
				break
			}
			if v := e.pop(); e.candidate(v) && !e.eliminate(v) {
				return false
			}
		}
	}
	return true
}

// elimStack records the clauses removed with each eliminated variable,
// oldest first, for extend to give the variables values. It grows a
// chunk at a time: it ends up about as long as the simplified clause
// set, and a slice would have copied itself there several times over.
type elimStack struct {
	chunks [][]uint32
	words  int
}

const elimChunkWords = 1 << 14

// push records one clause, the eliminated variable's own literal first
// and the length last, so that extend can walk the chunk backwards.
func (st *elimStack) push(first lit, lits []lit) {
	if n := len(st.chunks); n == 0 || cap(st.chunks[n-1])-len(st.chunks[n-1]) <= len(lits) {
		st.chunks = append(st.chunks, make([]uint32, 0, max(elimChunkWords, len(lits)+1)))
	}
	last := len(st.chunks) - 1
	chunk := append(st.chunks[last], lits...)
	start := len(chunk) - len(lits)
	at := start + slices.Index(lits, first)
	chunk[start], chunk[at] = first, chunk[start]
	st.chunks[last] = append(chunk, uint32(len(lits)))
	st.words += len(lits) + 1
}

// extend turns a model of the simplified clause set into one of the
// original formula: walking the stack backwards, each recorded clause
// that the model so far leaves unsatisfied is satisfied through its
// eliminated variable. A variable's default comes first in that order,
// and the clauses recorded with it mention only variables that were
// eliminated later or never, whose values are final by then.
func (st *elimStack) extend(model []int8) {
	// The value of l's variable under which l holds.
	holds := func(l lit) int8 { return lTrue - 2*int8(l&1) }
	for k := len(st.chunks) - 1; k >= 0; k-- {
		chunk := st.chunks[k]
		for i := len(chunk); i > 0; {
			n := int(chunk[i-1])
			clause := chunk[i-1-n : i-1]
			i -= n + 1
			if !slices.ContainsFunc(clause[1:], func(l lit) bool { return model[vidx(l)] == holds(l) }) {
				model[vidx(clause[0])] = holds(clause[0])
			}
		}
	}
}

// simplify runs the pass on a solver at decision level 0 with nothing
// left to propagate. It returns false, and clears s.ok, if the clause
// set turned out inconsistent.
func (s *Solver) simplify() bool {
	e := newEliminator(s)
	return e.install(e.load() && e.run())
}

// simplifyOnce is the solver's one pass, for whoever asks first: Solve
// at its trigger, or Simplify. It runs once whether or not there is room
// for it — a pass that does not fit the memory budget now will not fit
// later — and returns false if it refuted the clause set.
func (s *Solver) simplifyOnce() bool {
	if s.simplified || len(s.clauses) == 0 {
		return true
	}
	s.simplified = true
	fits := s.opts.MemBudgetMB == 0 ||
		s.LiveBytes()+s.eliminatorBytes() <= s.opts.MemBudgetMB<<20
	return !fits || s.simplify()
}

// Simplify runs the solver's simplification pass now, at decision level
// 0, instead of leaving it to the first Solve that has searched long
// enough to pay for it: for a solver that is about to be cloned, so that
// one pass serves every clone. Variables later Solve calls (on the
// solver or its clones) will assume over must be frozen first (Freeze).
// Everything Solve says of its own pass holds: once per solver, skipped
// under a memory budget it does not fit, cut short by Interrupt, logged
// to the proof. It returns false if the clause set is inconsistent.
func (s *Solver) Simplify() bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	defer s.snapshotLevels()
	return s.simplifyOnce()
}

// Freeze keeps the variables of the given literals out of the
// simplification pass's reach, as assuming over them does, so that a
// Solve after the pass may still assume over them. A variable the pass
// has already eliminated is out of anyone's reach, and stays so.
func (s *Solver) Freeze(lits ...cnf.Lit) {
	for _, l := range lits {
		s.growTo(int(l.Var()))
		if v := s.varIndex(l.Var()); v >= 0 {
			s.frozen[v] = true
		}
	}
}

// install ends the pass (ok: no conflict so far) and puts its result
// into the solver. The eliminator's arena becomes the solver's: the
// live clauses slide down in place into the solver's layout and the
// learnt clauses follow them, but for those that are satisfied or
// mention an eliminated variable (they follow from the formula, but
// nothing decides an eliminated variable any more). The eliminated
// variables leave the solver (compactVars) and every clause is attached
// afresh.
func (e *eliminator) install(ok bool) bool {
	s := e.s
	// Level-0 assignments need no reason, and the old ones are gone.
	for _, l := range s.trail {
		s.reason[vidx(l)] = crefUndef
	}
	if !ok || !e.applyUnits() {
		s.ok = false
		s.arena, s.learnts = nil, nil
		s.compactVars(e.elim)
		s.watches = make([][]watcher, len(s.vals))
		return false
	}

	// A clause slides down by at least the signature's word: no write
	// overtakes what is still to be read.
	arena := e.arena[:0]
	s.clauses = s.clauses[:0]
	for c, end := e.first(), e.end(); c != end; {
		lits, gone := e.lits(c), e.removed(c)
		var id uint32
		if s.ids {
			id = e.id(c)
		}
		c = e.next(c)
		if !gone {
			if s.ids {
				arena = append(arena, id)
			}
			arena = append(arena, uint32(len(lits))<<1)
			s.clauses = append(s.clauses, cref(len(arena)))
			arena = append(arena, lits...)
		}
	}
	learnts := s.learnts[:0]
next:
	for _, c := range s.learnts {
		for _, l := range s.lits(c) {
			if s.vals[l] == lTrue || e.elim[vidx(l)] {
				if s.proof != nil {
					s.logDelete(s.lits(c), s.id(c))
				}
				continue next
			}
		}
		start := c - 1 - learntWords - s.idWords()
		learnts = append(learnts, cref(len(arena))+c-start)
		arena = append(arena, s.arena[start:c+cref(s.size(c))]...)
	}
	s.arena, s.learnts = arena, learnts
	s.compactVars(e.elim)
	s.rebuildWatches()

	// The units the pass asserted have yet to reach the learnt clauses.
	s.qhead = e.trailBefore
	return s.settle()
}

// compactVars takes the variables the pass eliminated out of the
// solver: those it kept are numbered densely, in their order, and ext
// maps them back to the formula's numbers (before the pass the solver
// numbers as the formula does). Every per-variable table shrinks to
// them, the literals of the listed clauses and of the trail are
// renamed, and the eliminated variables leave the decision heap; the
// watch lists are left to be rebuilt. A monotone map keeps every order
// the search and the proof depend on — the literals within a clause,
// the watch lists rebuilt in clause order, the heap's slots and so its
// ties — so the search after the pass is the one it was before the map,
// variable for variable.
func (s *Solver) compactVars(elim []bool) {
	kept := make([]int32, s.numVars) // new index, or -1
	var ext []uint32
	for v, gone := range elim {
		kept[v] = -1
		if !gone {
			kept[v] = int32(len(ext))
			ext = append(ext, uint32(v+1))
		}
	}
	n := len(ext)
	if n == s.numVars {
		return
	}
	rename := func(l lit) lit { return lit(2*kept[vidx(l)]+2) | l&1 }
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			lits := s.lits(c)
			for k, l := range lits {
				lits[k] = rename(l)
			}
		}
	}
	for k, l := range s.trail {
		s.trail[k] = rename(l)
	}
	s.order.filter(func(v int32) bool { return !elim[v] }, s.activity)
	for k, v := range s.order.heap {
		s.order.heap[k] = kept[v]
	}
	vals := make([]int8, 2*n+2)
	pos := make([]int32, n)
	for v, to := range kept {
		if to >= 0 {
			vals[2*to+2], vals[2*to+3] = s.vals[2*v+2], s.vals[2*v+3]
			pos[to] = s.order.pos[v]
		}
	}
	s.vals, s.order.pos = vals, pos
	s.level = gather(s.level, elim, n)
	s.reason = gather(s.reason, elim, n)
	s.polarity = gather(s.polarity, elim, n)
	s.frozen = gather(s.frozen, elim, n)
	s.activity = gather(s.activity, elim, n)
	if s.ids {
		s.units = gather(s.units, elim, n)
	}
	s.seen = make([]byte, n)                    // clear between conflicts
	s.lbdStamp = slices.Clone(s.lbdStamp[:n+1]) // per decision level, of which there are at most n
	s.numVars, s.numElim, s.ext = n, s.numVars-n, ext
}

// gather returns the entries of a per-variable table whose variables
// elim does not mark, n of them, in order.
func gather[T any](table []T, elim []bool, n int) []T {
	out := make([]T, 0, n)
	for v, x := range table {
		if !elim[v] {
			out = append(out, x)
		}
	}
	return out
}

// rebuildWatches attaches every listed clause to fresh watch lists,
// all carved from one allocation as reserve does at load.
func (s *Solver) rebuildWatches() {
	s.watches = make([][]watcher, len(s.vals))
	degree := make([]int32, len(s.watches))
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			degree[s.arena[c]^1]++
			degree[s.arena[c+1]^1]++
		}
	}
	backing := make([]watcher, 2*(len(s.clauses)+len(s.learnts)))
	for l, d := range degree {
		s.watches[l] = backing[:0:d]
		backing = backing[d:]
	}
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			s.attach(c)
		}
	}
}

// Simplifier runs the solver's simplification pass on a formula up
// front and hands back the simplified formula: the same engine Solve
// runs lazily (see simplify), for callers that want the clause set
// itself. Frozen variables are never eliminated, so their model values
// can be read off a model of the output directly.
type Simplifier struct {
	frozen []cnf.Lit
}

// NewSimplifier returns a Simplifier with nothing frozen.
func NewSimplifier() *Simplifier { return &Simplifier{} }

// FreezeLits protects the variables of the given literals.
func (sp *Simplifier) FreezeLits(lits ...cnf.Lit) {
	sp.frozen = append(sp.frozen, lits...)
}

// Simplify returns an equisatisfiable formula over the same variable
// numbering: the unit clauses of every variable fixed at level 0, then
// the simplified clauses. The status is Unsat if the pass refuted the
// formula (the output is then the empty clause), Sat if only units are
// left, and Unknown otherwise.
func (sp *Simplifier) Simplify(f *cnf.Formula) (*cnf.Formula, Status) {
	s := NewFromFormula(f, Options{})
	s.Freeze(sp.frozen...)
	out := cnf.New()
	out.NumVars = s.NumVars()
	if !s.ok || !s.simplify() {
		out.AddClause()
		return out, Unsat
	}
	var buf []cnf.Lit
	emit := func(lits []lit) {
		buf = buf[:0]
		for _, l := range lits {
			buf = append(buf, s.extLit(l))
		}
		out.AddClause(buf...)
	}
	for i := range s.trail {
		emit(s.trail[i : i+1])
	}
	for _, c := range s.clauses {
		emit(s.lits(c))
	}
	if len(s.clauses) == 0 {
		return out, Sat
	}
	return out, Unknown
}
