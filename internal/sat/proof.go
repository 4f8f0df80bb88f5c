package sat

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
)

// Proof is a clausal (DRUP) refutation, as the one stream of steps a
// logging solver writes as it goes (FlatLog) and a distributed worker
// ships: the learnt clauses in derivation order, each with its
// antecedent chain, and the clauses the solver let go of on the way,
// each where it let go of it. Each lemma is a reverse-unit-propagation
// (RUP) consequence of the original formula plus the preceding lemmas,
// less the clauses deleted before it, and the last one the solver logs
// is the empty clause. Every literal the solver
// fixed at level 0 is a unit clause of the log — of the formula, or a
// lemma — but for the assumptions, which the checker holds as its root.
// Checking a proof certifies an UNSAT verdict independently of the CDCL
// search that produced it — the counterpart of replay-validating SAT
// counterexamples on the interpreter.
//
// The clauses of a proof and of its formula share one space of clause
// IDs: clause i of the formula has ID i, and lemma j of the log — of the
// template's prefix and then the tail, for a clone's — has ID |F|+j,
// where |F| is the formula's clause count, even for a lemma the solver
// logged while it loaded the formula. IDs are how chains and deletions name a
// clause.
//
// A lemma's chain is the IDs of the clauses the solver derived it from,
// in the order unit propagation meets them once the lemma's literals are
// false — each unit in turn, the last one false: first the unit clauses
// of the literals fixed at level 0 that the derivation left out, then its
// clauses. The chain is the lemma's proof: a checker (ProofChecker) walks
// it and looks nowhere else, so a lemma with an empty chain, or with one
// that does not end in a false clause, is rejected, unless the
// assumptions satisfy it. DRAT text has no place for it.
//
// A deletion names a clause the solver dropped — what its simplification
// pass removed or replaced, a learnt clause reduceDB threw away, a clause
// it shortened by a literal false at level 0 — by its ID and its
// literals, where it dropped it, so that the checker holds the clauses
// the solver held and no others. One whose ID names no clause the checker
// holds with exactly its literals, in any order, is ignored. Deletions
// only ever make a proof harder to accept: every clause a checker holds
// follows from the formula, so letting one go cannot make a
// non-consequence derivable, whoever wrote the entry.
//
// The bytes may be anyone's, and one place reads them (Steps), a step at
// a time. nil and zero bytes are both the empty proof, of no step;
// whether there is a proof at all is said by structure (a nil field, a
// missing entry), never by length.
type Proof []byte

// noID stands for no clause: the unit ID of an assumption (see
// Solver.units), the ID of a step that names none.
const noID = ^uint32(0)

// EnableProof turns on proof recording; it must be called before the
// solver holds its first clause (New, EnableProof, AddFormula), or on a
// solver restored from the snapshot of one that logged (Restore). The
// solver keeps its log flat (ProofLog).
func (s *Solver) EnableProof() {
	s.KeepProof(&FlatLog{})
}

// StreamProof turns on proof recording like EnableProof, but hands the
// log out as it grows: whenever a step ends with proofStretch bytes or
// more logged, hand takes them — whole steps, a Proof that Steps reads on
// its own — and the buffer they are in, its spare capacity too. hand
// returns a buffer it was handed before and is done with, or nil, and
// the solver logs on into that one, or into a new one if nil: it never
// writes to a buffer it handed out until hand gives it back. The
// stretches handed out, appended, and then ProofLog are the log
// EnableProof would have kept, to the byte. For a solver whose log is
// megabytes that its holder wants checked beside it (a template's). Its
// clones keep their own logs as any clone does.
func (s *Solver) StreamProof(hand func(Proof) FlatLog) {
	s.KeepProof(&FlatLog{})
	s.hand = hand
}

// proofStretch is the least a streaming solver hands out at a time
// (StreamProof): about a millisecond of a checker's work.
const proofStretch = 64 << 10

// KeepProof ends a StreamProof: from here on the solver logs to log, and
// keeps it, as under EnableProof — for a holder that kept what it was
// handed so far in log and wants the solver's log to be the whole log
// again.
func (s *Solver) KeepProof(log *FlatLog) {
	if !s.ids {
		if !s.CanLog() {
			panic("sat: proof logging switched on after the solver took a clause")
		}
		s.ids, s.units = true, make([]uint32, s.numVars)
		for v := range s.units {
			s.units[v] = noID
		}
	}
	s.proof, s.hand = log, nil
}

// CanLog reports whether proof logging may be switched on: the solver
// holds no clause yet, or it holds their IDs — it logs, or it was
// restored from, or cloned from, one that did.
func (s *Solver) CanLog() bool { return s.ids || s.nextID == 0 }

// logLemma and logDelete record a clause the solver derived, through the
// clauses chain names, and one it no longer holds and the checker does;
// only called with proof logging on. logLemma returns the lemma's ID.
// Both log in the formula's numbering, whatever the pass renumbered: the
// checker holds the formula.
func (s *Solver) logLemma(lits []lit, chain []uint32) uint32 {
	id := s.takeID()
	s.proof.Step(false, s.extLits(lits), chain)
	s.handOver()
	return id
}

func (s *Solver) logDelete(lits []lit, id uint32) {
	s.delID[0] = id
	s.proof.Step(true, s.extLits(lits), s.delID[:])
	s.handOver()
}

// handOver hands the log out once it holds a stretch (StreamProof).
func (s *Solver) handOver() {
	if s.hand != nil && len(*s.proof) >= proofStretch {
		free := s.hand(Proof(*s.proof))
		if free == nil {
			free = make(FlatLog, 0, proofStretch+proofStretch/4)
		}
		*s.proof = free[:0]
	}
}

// logFrom logs lits, the clause id (noID: none) less the literals of
// from that are false at level 0, as a lemma whose chain is their units
// and then id, and returns its ID. Literals of from that are not false
// are cited by nothing: they are the lemma's, or the one the lemma fixes.
func (s *Solver) logFrom(lits, from []lit, id uint32) uint32 {
	chain := s.chain[:0]
	for _, l := range from {
		if u := s.units[vidx(l)]; s.vals[l] == lFalse && u != noID {
			chain = append(chain, u)
		}
	}
	if id != noID {
		chain = append(chain, id)
	}
	s.chain = chain
	return s.logLemma(lits, chain)
}

// logUnits logs each literal the trail fixed at level 0 through a reason
// since the last call as a unit lemma, derived from its reason, and gives
// it the lemma's ID; a literal fixed with none has its ID already (fix).
func (s *Solver) logUnits() {
	for ; s.logged < len(s.trail); s.logged++ {
		l := s.trail[s.logged]
		if r := s.reason[vidx(l)]; r != crefUndef {
			s.units[vidx(l)] = s.logFrom(s.trail[s.logged:s.logged+1], s.lits(r), s.id(r))
		}
	}
}

// ProofLog returns the proof the solver has logged, without a copy and
// capped, so that neither its later steps nor an append to it reach the
// other: nil unless proof logging is on, never nil when it is. A clone's
// template's prefix and then its tail, appended, is its whole proof.
func (s *Solver) ProofLog() Proof {
	if s.proof == nil {
		return nil
	}
	log := *s.proof
	if log == nil {
		return Proof{}
	}
	return Proof(log[:len(log):len(log)])
}

// CheckRUP verifies the proof against the original formula and the
// assumption literals under which UNSAT was reported: that every lemma
// is a RUP consequence, along its chain, of what precedes it, and that
// one of them is the empty clause. It loads the formula for this one
// proof; a caller with several proofs of one formula keeps a
// ProofChecker instead.
func CheckRUP(f *cnf.Formula, assumptions []cnf.Lit, p Proof) error {
	return NewProofChecker(f).Check(assumptions, p)
}

// ProofChecker is a forward RUP checker for the proofs of one formula: it
// loads the formula once, holds every clause as it was written under its
// ID, and returns to that state after every Check. It audits the solver,
// so it shares none of its code. A clause is [size] lit0 lit1 ... in the
// arena, addressed by the index of lit0, a unit as much as any; a
// deleted one keeps its place with delTag in its size word. byID finds a
// clause by its ID (see Proof).
//
// There is no propagation: the assumptions are the whole root, and a
// lemma is put to the RUP test along its chain and nowhere else. With the
// lemma's literals false, each clause the chain names that is unit under
// the assignment so far assigns its open literal, and the first that is
// false refutes the lemma. Every assignment made that way is one unit
// propagation makes too, so a conflict is a conflict whoever wrote the
// chain; a chain that ends first, or names clauses the checker does not
// hold, rejects the lemma, and so does an empty chain, unless the lemma
// is satisfied by the assumptions. A lemma costs its chain's length,
// whoever wrote it. What the solver fixed at level 0 reaches a chain as
// the unit clauses it logged for it (Solver.units), and its refutation as
// an empty lemma: a proof is accepted when a lemma is the empty clause,
// when the base (the formula, with the prefix Extend added) holds the
// empty clause, or when the assumptions contradict each other.
//
// A checker is not safe for concurrent use.
type ProofChecker struct {
	numVars int
	arena   []uint32
	vals    []int8 // per literal
	trail   []lit
	root    int // the assumptions' share of the trail, which a lemma check leaves in place
	// byID is, per clause ID, the clause in the arena (deleted or not),
	// crefUndef for one compacted away.
	byID []cref

	// The base — the formula, with the prefix Extend added to it —
	// where reset returns to.
	baseVars, baseArena, baseIDs int
	// refuted: the base holds the empty clause, so every proof of it
	// checks.
	refuted bool
	// detached are the clauses of the base the proof being checked has
	// deleted: reset puts them back, ExtendDone lets them go for good.
	detached []cref

	// mark stamps with markEpoch, per literal, the clause a deletion
	// names.
	mark      []uint32
	markEpoch uint32

	// A prefix in stretches (Extend): the lemmas so far, its first fault,
	// and whether they have derived the empty clause.
	stepLemmas  int
	stepErr     error
	stepRefuted bool

	addBuf []lit // the clause add or remove is normalising
	stats  ProofCheckerStats
}

const delTag = 1 << 31 // in a clause's size word: deleted

// ProofCheckerStats counts a checker's work since it was built.
type ProofCheckerStats struct {
	Lemmas       int64 // lemmas put to the RUP test
	ChainClauses int64 // chain IDs walked
}

// Add accumulates o into s.
func (s *ProofCheckerStats) Add(o ProofCheckerStats) {
	s.Lemmas += o.Lemmas
	s.ChainClauses += o.ChainClauses
}

// Since returns what a checker whose counters are s has done since they
// were o.
func (s ProofCheckerStats) Since(o ProofCheckerStats) ProofCheckerStats {
	return ProofCheckerStats{s.Lemmas - o.Lemmas, s.ChainClauses - o.ChainClauses}
}

// NewProofChecker loads f. A literal cnf's constructors could not have
// built is the caller's bug and panics.
func NewProofChecker(f *cnf.Formula) *ProofChecker {
	// Literals start at 2 (variable 1).
	c := &ProofChecker{vals: make([]int8, 2), mark: make([]uint32, 2)}
	c.growTo(f.NumVars)
	c.arena = make([]uint32, 1, 1+f.NumClauses()+f.NumLits()) // word 0 is never a clause: no ref is 0
	c.byID = make([]cref, 0, f.NumClauses())
	f.Each(func(cl cnf.Clause) {
		if c.refuted {
			return // the empty clause came first: nothing after it counts
		}
		for _, l := range cl {
			if l < 2 || int(l.Var()) > f.NumVars {
				panic(fmt.Sprintf("sat: invalid literal %d in the formula", int(l)))
			}
		}
		ref := c.add(sortedLits(c.addBuf, cl))
		if ref == crefUndef {
			c.refuted = true
			return
		}
		c.byID = append(c.byID, ref)
	})
	if !c.refuted {
		c.rebaseMarks()
	}
	return c
}

// rebaseMarks records the state reached as the one reset returns to.
func (c *ProofChecker) rebaseMarks() {
	c.baseVars, c.baseArena, c.baseIDs = c.numVars, len(c.arena), len(c.byID)
}

// Stats returns the checker's counters.
func (c *ProofChecker) Stats() ProofCheckerStats { return c.stats }

// Check verifies p, which may be anyone's, as a refutation of the
// formula under the assumptions, a step at a time as Steps hands them
// out, and leaves the checker at its base — the formula, and the prefix
// Extend added — whatever the answer. Every byte is read once, the
// steps past the empty clause or a lemma that is not RUP unchecked, so a
// form Steps refuses is refused wherever the fault. The empty proof
// checks only if the base holds the empty clause or the assumptions
// contradict each other. Beyond the two buffers Steps grows to the
// longest clause and chain, it allocates per step nothing but what a
// lemma adds to the checker's arena.
func (c *ProofChecker) Check(assumptions []cnf.Lit, p Proof) error {
	refuted := c.refuted
	if !refuted {
		defer c.reset()
		var err error
		if refuted, err = c.assume(assumptions); err != nil {
			return err
		}
	}
	lemmas, failed := 0, 0
	var bad cnf.Clause
	err := p.Steps(func(deleted bool, clause, ids []uint32) error {
		if !deleted {
			lemmas++
		}
		if refuted || failed > 0 {
			return nil
		}
		r, ok := c.step(deleted, clause, ids)
		if !ok {
			failed, bad = lemmas, clauseOf(clause)
		}
		refuted = r
		return nil
	})
	switch {
	case err != nil:
		return err
	case failed > 0:
		return fmt.Errorf("sat: lemma %d of %d is not a RUP consequence: %v", failed, lemmas, bad)
	case refuted:
		return nil
	}
	return fmt.Errorf("sat: proof does not derive the empty clause (%d lemmas)", lemmas)
}

// assume puts the assumptions at the root; contradicted reports two of
// them contradicting each other.
func (c *ProofChecker) assume(assumptions []cnf.Lit) (contradicted bool, err error) {
	for _, a := range assumptions {
		if a < 2 || uint64(a) >= 1<<32 {
			return false, fmt.Errorf("sat: invalid assumption literal %d", int(a))
		}
		// Assumptions may, like the solver's, be over variables the
		// formula never mentions.
		c.growTo(int(a.Var()))
		switch c.vals[a] {
		case lFalse:
			return true, nil
		case lUndef:
			c.assign(lit(a))
		}
	}
	c.root = len(c.trail)
	return false, nil
}

// clauseOf is a clause as Steps hands it out, as the formula's.
func clauseOf(words []uint32) cnf.Clause {
	c := make(cnf.Clause, len(words))
	for i, l := range words {
		c[i] = cnf.Lit(l)
	}
	return c
}

// Extend and ExtendDone check a proof under no assumptions that arrives
// in stretches of whole steps, as Solver.StreamProof hands them out or as
// a proof cut between two steps falls apart: every stretch of it through
// Extend, in order, then ExtendDone, which says whether all of it stood.
// If it did, the formula together with it — its lemmas added, its
// deletions gone — is the base that Check starts from and returns to:
// for proofs that share it as a prefix — those of the clones of a solver
// that had logged it when it was cloned (Solver.Clone) — extending by the
// prefix once, then Check(assumptions, rest) for each, accepts exactly
// what Check(assumptions, prefix and rest appended) would, and checks the
// prefix once instead of once per proof. That is sound because the base
// only ever grows by clauses proved from it under no assumption, so they
// hold under any, and shrinks by what no later lemma may then lean on;
// and it accepts no less because a chain that ends false without the
// assumptions ends false with them. The IDs of rest's lemmas continue
// from the prefix's, as they do in the joined log. Extend reads every
// byte, as Check does, and holds the first fault, a form Steps refuses
// or a lemma that is not RUP, for ExtendDone; a proof that did not stand
// leaves the checker where it was and still usable. No Check may come in
// between.
func (c *ProofChecker) Extend(p Proof) {
	err := p.Steps(func(deleted bool, clause, ids []uint32) error {
		if !deleted {
			c.stepLemmas++
		}
		if c.refuted || c.stepErr != nil || c.stepRefuted {
			return nil
		}
		refuted, ok := c.step(deleted, clause, ids)
		if !ok {
			c.stepErr = fmt.Errorf("sat: lemma %d is not a RUP consequence: %v", c.stepLemmas, clauseOf(clause))
		}
		c.stepRefuted = refuted
		return nil
	})
	if c.stepErr == nil {
		c.stepErr = err
	}
}

func (c *ProofChecker) ExtendDone() error {
	err, refuted := c.stepErr, c.stepRefuted
	c.stepErr, c.stepRefuted, c.stepLemmas = nil, false, 0
	switch {
	case c.refuted:
	case err != nil:
		c.reset()
	default:
		c.refuted = refuted
		c.detached = c.detached[:0]
		if !refuted {
			c.compact()
		}
		c.rebaseMarks()
	}
	return err
}

// step takes one step of a proof, the one way every step reaches the
// checker: a deletion drops the clause its ID (ids, alone) names, and a
// lemma is put to the RUP test along its chain (ids) and joins the clause
// set under the next ID. refuted reports the empty clause derived; ok is
// false for a lemma that is not RUP.
func (c *ProofChecker) step(deleted bool, clause []lit, ids []uint32) (refuted, ok bool) {
	if deleted {
		if len(ids) == 1 {
			c.remove(clause, ids[0])
		}
		return false, true
	}
	if !c.implied(clause, ids) {
		return false, false
	}
	ref := c.add(sortedLits(c.addBuf, clause))
	c.byID = append(c.byID, ref)
	return ref == crefUndef, true
}

// growTo makes room for variables up to n.
func (c *ProofChecker) growTo(n int) {
	if add := n - c.numVars; add > 0 {
		c.numVars = n
		c.vals = append(c.vals, make([]int8, 2*add)...)
		c.mark = append(c.mark, make([]uint32, 2*add)...)
	}
}

func (c *ProofChecker) assign(l lit) {
	c.vals[l], c.vals[l^1] = lTrue, lFalse
	c.trail = append(c.trail, l)
}

// undo retracts every assignment past the first n of the trail.
func (c *ProofChecker) undo(n int) {
	for _, l := range c.trail[n:] {
		c.vals[l], c.vals[l^1] = lUndef, lUndef
	}
	c.trail = c.trail[:n]
}

// sortedLits returns the literals of cl in buf, sorted, each once.
func sortedLits[L cnf.Lit | lit](buf []lit, cl []L) []lit {
	buf = buf[:0]
	for _, l := range cl {
		buf = append(buf, lit(l))
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// add stores buf, a clause over known variables that sortedLits made in
// addBuf, and returns its ref: crefUndef for the empty clause, which is
// stored as nothing.
func (c *ProofChecker) add(buf []lit) cref {
	c.addBuf = buf
	if len(buf) == 0 {
		return crefUndef
	}
	c.arena = append(c.arena, uint32(len(buf)))
	ref := cref(len(c.arena))
	c.arena = append(c.arena, buf...)
	if uint64(len(c.arena)) >= delTag {
		panic("sat: proof checker's clause arena exceeds 2^31 words")
	}
	return ref
}

// implied is the RUP test along the chain: with every literal of the
// lemma false, the chain must end in a false clause (walk). A lemma
// satisfied by the assumptions needs none. The root is left as it was.
func (c *ProofChecker) implied(lemma []lit, chain []uint32) bool {
	c.stats.Lemmas++
	defer c.undo(c.root)
	for _, l := range lemma {
		if l < 2 || int(l>>1) > c.numVars {
			// No clause or assumption mentions the variable, so the
			// solver cannot have learnt about it: a malformed proof.
			return false
		}
		switch c.vals[l] {
		case lTrue:
			// Satisfied by an assumption, or by the negation of an
			// earlier literal of a tautology: trivially a consequence.
			return true
		case lUndef:
			c.assign(l ^ 1)
		}
	}
	return c.walk(chain)
}

// walk assigns through each clause of chain that is unit under the
// trail, in order, and reports whether it met one that is false. An ID
// that names no clause the checker holds, or one it deleted, is passed
// over, and so is a clause that is satisfied or has two literals open.
func (c *ProofChecker) walk(chain []uint32) bool {
	arena, vals := c.arena, c.vals
next:
	for i, id := range chain {
		if uint64(id) >= uint64(len(c.byID)) {
			continue
		}
		ref := c.byID[id]
		if ref == crefUndef || arena[ref-1]&delTag != 0 {
			continue
		}
		open := litUndef
		for _, l := range arena[ref : ref+arena[ref-1]] {
			switch vals[l] {
			case lTrue:
				continue next
			case lUndef:
				if open != litUndef {
					continue next
				}
				open = l
			}
		}
		if open == litUndef {
			c.stats.ChainClauses += int64(i + 1)
			return true
		}
		c.assign(open)
	}
	c.stats.ChainClauses += int64(len(chain))
	return false
}

// reset takes the checker back to its base, the formula and the prefix
// Extend added: the trail is undone, the later lemmas leave the arena and
// their IDs with them, and the clauses of the base the proof deleted
// come back.
func (c *ProofChecker) reset() {
	c.undo(0)
	c.root = 0
	c.byID = c.byID[:c.baseIDs]
	if c.numVars > c.baseVars {
		c.numVars = c.baseVars
		c.vals = c.vals[:2*(c.baseVars+1)]
		c.mark = c.mark[:2*(c.baseVars+1)]
	}
	c.arena = c.arena[:c.baseArena]
	for _, ref := range c.detached {
		c.arena[ref-1] &^= delTag
	}
	c.detached = c.detached[:0]
}

// remove drops the clause a deletion names, if its ID names a live one
// with exactly its literals. It stays in the arena until reset brings it
// back or ExtendDone compacts it away.
func (c *ProofChecker) remove(cl []lit, id uint32) {
	for _, l := range cl {
		if l < 2 || int(l>>1) > c.numVars {
			return // over a variable no clause mentions
		}
	}
	buf := sortedLits(c.addBuf, cl)
	c.addBuf = buf
	ref := c.named(id, buf)
	if ref == crefUndef {
		return
	}
	c.arena[ref-1] |= delTag
	if int(ref) < c.baseArena {
		c.detached = append(c.detached, ref)
	}
}

// named returns the live clause id names if its literals are those of
// lits, which are distinct, and crefUndef otherwise.
func (c *ProofChecker) named(id uint32, lits []lit) cref {
	if uint64(id) >= uint64(len(c.byID)) {
		return crefUndef
	}
	ref := c.byID[id]
	if ref == crefUndef || int(c.arena[ref-1]) != len(lits) {
		return crefUndef // deleted too: the tag is in the size word
	}
	c.markEpoch++
	if c.markEpoch == 0 { // wrapped: old stamps could collide
		clear(c.mark)
		c.markEpoch = 1
	}
	for _, l := range lits {
		c.mark[l] = c.markEpoch
	}
	for _, l := range c.arena[ref : ref+c.arena[ref-1]] {
		if c.mark[l] != c.markEpoch {
			return crefUndef
		}
	}
	return ref
}

// compact closes the gaps deleted clauses have left in the arena: a base
// that lost half its clauses is held in half the memory. The IDs of
// deleted clauses name nothing from here on.
func (c *ProofChecker) compact() {
	old, words := c.arena, 1
	for ref := 2; ref < len(old); ref += int(old[ref-1]&^delTag) + 1 {
		if old[ref-1]&delTag == 0 {
			words += int(old[ref-1]) + 1
		}
	}
	if words == len(old) {
		return
	}
	moved := make([]uint32, 1, words)
	for id, ref := range c.byID {
		if ref == crefUndef || old[ref-1]&delTag != 0 {
			c.byID[id] = crefUndef
			continue
		}
		size := old[ref-1]
		moved = append(moved, old[ref-1:ref+size]...)
		c.byID[id] = cref(len(moved)) - size
	}
	c.arena = moved
}
