package sat

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
)

// Proof is a clausal (DRUP) refutation: the sequence of learnt clauses
// in derivation order, and the clauses the solver let go of on the way.
// Each lemma is a reverse-unit-propagation (RUP) consequence of the
// original formula plus the preceding lemmas, less the clauses deleted
// before it, and the sequence ends in a state where unit propagation
// alone derives the empty clause. Checking a proof certifies an UNSAT
// verdict independently of the CDCL search that produced it — the
// counterpart of replay-validating SAT counterexamples on the
// interpreter.
//
// The clauses of a proof and of its formula share one space of clause
// IDs: clause i of the formula has ID i, and lemma j of the log — of the
// joined log, for a clone's tail (JoinProofs) — has ID |F|+j, where |F|
// is the formula's clause count. IDs are how Chains and Deletes name a
// clause.
type Proof struct {
	// Lemmas are the derived clauses, in order. An empty clause may
	// appear implicitly: the proof is complete when propagation of the
	// formula, the assumptions, and the lemmas conflicts.
	Lemmas []cnf.Clause
	// Deletes are the clauses the solver dropped — what its
	// simplification pass removed or replaced, and the learnt clauses
	// reduceDB threw away — in the order it dropped them, so that the
	// checker propagates through the clauses the solver held and no
	// others. They only ever make a proof harder to accept: every clause
	// a checker holds follows from the formula, so letting one go cannot
	// make a non-consequence derivable, whoever wrote the entry.
	Deletes []Deletion `json:",omitempty"`
	// Chains[i] is lemma i's antecedent chain: the IDs of the clauses the
	// solver derived it from, in the order unit propagation meets them
	// once the lemma's literals are false — each unit in turn, the last
	// one false. The chain is the lemma's proof: a checker (ProofChecker)
	// walks it and looks nowhere else, so a lemma without one, or with
	// one that does not end in a false clause, is rejected. DRAT text has
	// no place for it.
	Chains [][]uint32 `json:",omitempty"`
}

// chain returns lemma i's chain, nil if the proof has none for it.
func (p *Proof) chain(i int) []uint32 {
	if i < len(p.Chains) {
		return p.Chains[i]
	}
	return nil
}

// Deletion names one clause to drop once the first At lemmas have been
// added: the clause of the formula or the earlier lemma with this ID,
// which must have exactly these literals, in any order. An entry whose ID
// names no clause the checker holds with exactly its literals — one
// already deleted, a unit, one the solver shortened, literals out of
// range — is ignored: a clause kept is still a consequence of the
// formula. Entries take effect in slice order, so one whose At runs ahead
// holds back those after it, and none waits past the last lemma.
type Deletion struct {
	At     int
	ID     uint32
	Clause cnf.Clause
}

// noID is the ID of a clause that has none: one a solver held before it
// logged, which it can no longer tell apart (see Solver.nameClauses).
const noID = ^uint32(0)

// EnableProof turns on proof recording; must be called before Solve.
// The solver keeps its log flat (FlatProof).
func (s *Solver) EnableProof() {
	s.nameClauses()
	s.KeepProof(&FlatLog{})
}

// StreamProof turns on proof recording like EnableProof, but hands each
// step to step as the solver logs it — a lemma with its chain, or with
// deleted set a clause it dropped with its ID alone, the literals in
// cnf.Lit's encoding and both slices valid for the length of the call —
// instead of keeping it: the log stays empty. For a solver whose log is
// tens of thousands of steps that its holder wants checked and not
// stored (a template's). Its clones keep their own logs as any clone
// does.
func (s *Solver) StreamProof(step func(deleted bool, clause, ids []uint32)) {
	s.nameClauses()
	s.proof, s.proofStep = &FlatLog{}, step
}

// KeepProof ends a StreamProof: from here on the solver logs to log, and
// keeps it, as under EnableProof — for a holder that kept what it was
// handed so far in log and wants the solver's log to be the whole log
// again.
func (s *Solver) KeepProof(log *FlatLog) {
	s.proof, s.proofStep = log, log.Step
}

// logLemma and logDelete record a clause the solver derived, through the
// clauses chain names, and one it no longer holds and the checker does;
// only called with proof logging on. logLemma returns the lemma's ID.
// Both log in the formula's numbering, whatever the pass renumbered: the
// checker holds the formula.
func (s *Solver) logLemma(lits []lit, chain []uint32) uint32 {
	id := s.takeID()
	s.proofStep(false, s.extLits(lits), chain)
	return id
}

func (s *Solver) logDelete(lits []lit, id uint32) {
	s.delID[0] = id
	s.proofStep(true, s.extLits(lits), s.delID[:])
}

// JoinProofs returns the proof that logs prefix and then tail: what a
// solver that had done the work of both would have logged, for a tail
// logged by a clone (Solver.Clone) of the solver that logged prefix.
// Either may be nil.
func JoinProofs(prefix, tail *Proof) *Proof {
	if prefix == nil {
		prefix = &Proof{}
	}
	if tail == nil {
		tail = &Proof{}
	}
	p := &Proof{
		Lemmas:  append(slices.Clip(prefix.Lemmas), tail.Lemmas...),
		Deletes: make([]Deletion, 0, len(prefix.Deletes)+len(tail.Deletes)),
	}
	if len(prefix.Chains)+len(tail.Chains) > 0 {
		p.Chains = make([][]uint32, len(prefix.Lemmas), len(p.Lemmas))
		copy(p.Chains, prefix.Chains)
		p.Chains = append(p.Chains, tail.Chains[:min(len(tail.Chains), len(tail.Lemmas))]...)
	}
	// No entry of the prefix waits past its last lemma, nor here.
	for _, d := range prefix.Deletes {
		d.At = min(d.At, len(prefix.Lemmas))
		p.Deletes = append(p.Deletes, d)
	}
	for _, d := range tail.Deletes {
		d.At = len(prefix.Lemmas) + max(d.At, 0)
		p.Deletes = append(p.Deletes, d)
	}
	if len(p.Deletes) == 0 {
		p.Deletes = nil
	}
	return p
}

// FlatProof returns the recorded proof in its flat form (AppendFlat), nil
// unless proof logging is on: what a tail is checked (CheckFlat) and
// shipped as.
func (s *Solver) FlatProof() []byte {
	if s.proof == nil {
		return nil
	}
	return s.proof.AppendTo(nil)
}

// ProofLog returns the recorded proof (nil unless EnableProof was
// called), taken apart from the flat log the solver keeps.
func (s *Solver) ProofLog() *Proof {
	if s.proof == nil {
		return nil
	}
	p, err := ParseFlat(s.FlatProof())
	if err != nil {
		panic("sat: the solver's own proof log does not parse: " + err.Error())
	}
	return p
}

// CheckRUP verifies the proof against the original formula and the
// assumption literals under which UNSAT was reported. It checks that
// every lemma is a RUP consequence of what precedes it and that the
// accumulated clause set propagates to a conflict, i.e. derives the
// empty clause. It loads the formula for this one proof; a caller with
// several proofs of one formula keeps a ProofChecker instead.
func CheckRUP(f *cnf.Formula, assumptions []cnf.Lit, p *Proof) error {
	return NewProofChecker(f).Check(assumptions, p)
}

// ProofChecker is a forward RUP checker for the proofs of one formula:
// a decision-free unit-propagation engine that loads the formula once
// and returns to that state after every Check. It audits the solver, so
// it shares the solver's clause layout (see cref and watcher) but none
// of its code: add, propagate and reset below are the checker's own. A
// clause is [size] lit0 lit1 ... in the arena, addressed by the index of
// lit0, and is watched through lit0 and lit1; a deleted one keeps its
// place, unwatched, with delTag in its size word. byID finds a clause by
// its ID (see Proof).
//
// A lemma is put to the RUP test along its chain (Proof.Chains) and
// nowhere else: each clause the chain names that is unit under the
// assignment so far assigns its open literal, and the first that is
// false refutes the lemma. Every assignment made that way is one unit
// propagation makes too, so a conflict is a conflict whoever wrote the
// chain; a chain that ends first, or names clauses the checker does not
// hold, rejects the lemma, and so does no chain, unless the lemma is
// satisfied at the root. A lemma costs its chain's length, whoever wrote
// it. The watch lists serve the root alone: the fixpoint of the units
// the formula, the assumptions and the lemmas propagate, which chains
// leave out.
//
// A checker is not safe for concurrent use.
type ProofChecker struct {
	numVars int
	arena   []uint32
	watches [][]watcher // indexed by literal: the clauses watching its complement
	vals    []int8      // per literal
	trail   []lit
	qhead   int
	// root is the length of the trail prefix a lemma check leaves in
	// place: what the formula, the assumptions and the lemmas so far
	// propagate to.
	root int
	// byID is, per clause ID, the clause in the arena (deleted or not),
	// crefUndef for one add stored nothing for: a unit, a tautology, a
	// clause satisfied at the root, one compacted away.
	byID []cref

	// The propagation fixpoint of the formula, and of the lemmas Extend
	// has added to it, where reset returns to.
	baseVars, baseArena, baseTrail, baseIDs int
	// refuted: the formula, with Extend's lemmas, propagates to a
	// conflict under no assumption, so every proof of it checks.
	refuted bool
	// detached are the clauses of the base the proof being checked has
	// deleted: reset puts them back, Extend lets them go for good.
	detached []cref

	// mark stamps with markEpoch, per literal, the clause a Deletion
	// names.
	mark      []uint32
	markEpoch uint32

	// An Extend in steps (ExtendStep): the lemmas so far, the first that
	// did not stand, and whether they have derived the empty clause.
	stepLemmas  int
	stepErr     error
	stepRefuted bool
	stepBuf     cnf.Clause
	chainBuf    []uint32 // a chain CheckFlat read

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

// NewProofChecker loads f and propagates its units to a fixpoint. A
// literal cnf's constructors could not have built is the caller's bug
// and panics.
func NewProofChecker(f *cnf.Formula) *ProofChecker {
	// Literals start at 2 (variable 1).
	c := &ProofChecker{vals: make([]int8, 2), watches: make([][]watcher, 2), mark: make([]uint32, 2)}
	c.growTo(f.NumVars)
	c.arena = make([]uint32, 1, 1+f.NumClauses()+f.NumLits()) // word 0 is never a clause: no ref is 0
	c.trail = make([]lit, 0, f.NumVars)
	c.byID = make([]cref, 0, f.NumClauses())
	for _, cl := range f.Clauses {
		for _, l := range cl {
			if l < 2 || int(l.Var()) > f.NumVars {
				panic(fmt.Sprintf("sat: invalid literal %d in the formula", int(l)))
			}
		}
		ref, ok := c.add(cl)
		if !ok {
			c.refuted = true
			return c
		}
		c.byID = append(c.byID, ref)
	}
	// Every list gets room for the clauses that start out watching its
	// literal, carved from one allocation.
	degree := make([]int32, len(c.watches))
	attached := 0
	for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]) + 1 {
		degree[c.arena[ref]^1]++
		degree[c.arena[ref+1]^1]++
		attached++
	}
	backing := make([]watcher, 2*attached)
	for l, d := range degree {
		c.watches[l] = backing[:0:d]
		backing = backing[d:]
	}
	for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]) + 1 {
		c.attach(uint32(ref))
	}
	c.refuted = !c.extendRoot()
	c.rebaseMarks()
	return c
}

// rebaseMarks records the state reached as the one reset returns to.
func (c *ProofChecker) rebaseMarks() {
	c.baseVars, c.baseArena, c.baseTrail, c.baseIDs = c.numVars, len(c.arena), c.root, len(c.byID)
}

// Stats returns the checker's counters.
func (c *ProofChecker) Stats() ProofCheckerStats { return c.stats }

// Check verifies p (nil: no lemmas) as a refutation of the formula
// under the assumptions and leaves the checker as NewProofChecker built
// it, or the last Extend left it, whatever the answer.
func (c *ProofChecker) Check(assumptions []cnf.Lit, p *Proof) error {
	if p == nil {
		p = &Proof{}
	}
	return c.check(assumptions, len(p.Lemmas), func() (bool, error) { return c.derive(p) })
}

// CheckFlat is Check for a proof in its flat form (AppendFlat), which may
// be anyone's: it checks the form first, as ParseFlat does, and refuses
// what ParseFlat would, and then checks the proof straight off the bytes,
// a step at a time, as Check would the proof ParseFlat returns — holding
// no Proof, and allocating nothing but what the lemmas add to the
// checker's arena.
func (c *ProofChecker) CheckFlat(assumptions []cnf.Lit, flat []byte) error {
	v, err := scanFlat(flat)
	if err != nil {
		return err
	}
	return c.check(assumptions, v.nl, func() (bool, error) { return c.deriveFlat(v) })
}

// check is Check's frame around derive, the proof's lemmas: the
// assumptions, and the empty clause at the end.
func (c *ProofChecker) check(assumptions []cnf.Lit, lemmas int, derive func() (bool, error)) error {
	if c.refuted {
		return nil
	}
	defer c.reset()
	for _, a := range assumptions {
		if a < 2 || uint64(a) >= 1<<32 {
			return fmt.Errorf("sat: invalid assumption literal %d", int(a))
		}
		// Assumptions may, like the solver's, be over variables the
		// formula never mentions.
		c.growTo(int(a.Var()))
		if c.vals[a] == lFalse {
			return nil // the formula plus assumptions is already conflicting
		}
		if c.vals[a] == lUndef {
			c.assign(lit(a))
		}
	}
	if !c.extendRoot() {
		return nil
	}
	if refuted, err := derive(); err != nil || refuted {
		return err
	}
	return fmt.Errorf("sat: proof does not derive the empty clause (%d lemmas)", lemmas)
}

// Extend checks p (nil: no lemmas) under no assumptions and, if every
// lemma holds, makes the formula together with p — p's lemmas added,
// p's deletions gone — the state that Check starts from and returns to:
// for proofs that share p as a prefix — those of the clones of a solver
// that had logged p when it was cloned (Solver.Clone) — Extend(p) once,
// then Check(assumptions, rest) for each, accepts exactly what
// Check(assumptions, JoinProofs(p, rest)) would, checks p once instead
// of once per proof, and propagates each rest through the clauses the
// solver held at the clone and no others. That is sound because the
// base only ever grows by clauses proved from it under no assumption,
// so they hold under any, and shrinks by what no later lemma may then
// lean on; and it accepts no less because a lemma that is RUP without
// the assumptions is RUP with them. The IDs of rest's lemmas continue
// from p's, as they do in the joined log. A rejected lemma leaves the
// checker where it was and still usable.
func (c *ProofChecker) Extend(p *Proof) error {
	if c.refuted || p == nil {
		return nil
	}
	refuted, err := c.derive(p)
	if err != nil {
		c.reset()
		return err
	}
	c.rebase(refuted)
	return nil
}

// rebase makes the state derive has reached the one reset returns to.
func (c *ProofChecker) rebase(refuted bool) {
	c.refuted = refuted
	c.detached = c.detached[:0]
	if !refuted {
		c.compact()
	}
	c.rebaseMarks()
}

// ExtendStep and ExtendDone are Extend for a proof that arrives a step
// at a time, as Solver.StreamProof hands it out, and is not kept: every
// step of it through ExtendStep, in order, then ExtendDone, which says
// whether all of it stood — and leaves the checker as Extend does either
// way. No Check may come in between. ids is a lemma's chain, or the
// deleted clause's ID alone.
func (c *ProofChecker) ExtendStep(deleted bool, clause, ids []uint32) {
	if c.refuted || c.stepErr != nil || c.stepRefuted {
		return
	}
	buf := c.stepBuf[:0]
	for _, l := range clause {
		buf = append(buf, cnf.Lit(l))
	}
	c.stepBuf = buf
	if deleted {
		id := noID
		if len(ids) == 1 {
			id = ids[0]
		}
		c.remove(buf, id)
		return
	}
	c.stepLemmas++
	refuted, ok := c.deriveLemma(buf, ids)
	if !ok {
		c.stepErr = fmt.Errorf("sat: lemma %d is not a RUP consequence: %v", c.stepLemmas, slices.Clone(buf))
	}
	c.stepRefuted = refuted
}

func (c *ProofChecker) ExtendDone() error {
	err, refuted := c.stepErr, c.stepRefuted
	c.stepErr, c.stepRefuted, c.stepLemmas = nil, false, 0
	switch {
	case c.refuted:
	case err != nil:
		c.reset()
	default:
		c.rebase(refuted)
	}
	return err
}

// derive puts the lemmas to the RUP test in order and adds each to the
// clause set, the root extended by what it propagates, after dropping
// the clauses p deletes before it. refuted reports that they derive the
// empty clause; the checker's state is then good for nothing but reset.
func (c *ProofChecker) derive(p *Proof) (refuted bool, err error) {
	dels := p.Deletes
	for i, lemma := range p.Lemmas {
		for ; len(dels) > 0 && dels[0].At <= i; dels = dels[1:] {
			c.remove(dels[0].Clause, dels[0].ID)
		}
		refuted, ok := c.deriveLemma(lemma, p.chain(i))
		if !ok {
			return false, fmt.Errorf("sat: lemma %d of %d is not a RUP consequence: %v",
				i+1, len(p.Lemmas), lemma)
		}
		if refuted {
			return true, nil
		}
	}
	for _, d := range dels {
		c.remove(d.Clause, d.ID)
	}
	return false, nil
}

// deriveFlat is derive for a flat proof scanFlat has checked: the same
// steps in the same order (Proof.steps), read off the bytes into buffers
// the checker reuses.
func (c *ProofChecker) deriveFlat(v flatView) (refuted bool, err error) {
	lemmas, dels, chains := flatReader{data: v.lemmas}, flatReader{data: v.dels}, flatReader{data: v.chains}
	left, at := v.nd, 0 // deletions to take, and the At of the next
	if left > 0 {
		at = int(dels.uvarint())
	}
	remove := func() {
		id := uint32(dels.uvarint())
		c.stepBuf = dels.clause(c.stepBuf[:0])
		c.remove(c.stepBuf, id)
		if left--; left > 0 {
			at = int(dels.uvarint())
		}
	}
	for i := range v.nl {
		for left > 0 && at <= i {
			remove()
		}
		lemma := lemmas.clause(c.stepBuf[:0])
		c.stepBuf = lemma
		var chain []uint32
		if i < v.nc {
			c.chainBuf = chains.chain(c.chainBuf[:0])
			chain = c.chainBuf
		}
		refuted, ok := c.deriveLemma(lemma, chain)
		if !ok {
			return false, fmt.Errorf("sat: lemma %d of %d is not a RUP consequence: %v", i+1, v.nl, lemma)
		}
		if refuted {
			return true, nil
		}
	}
	for left > 0 {
		remove()
	}
	return false, nil
}

// deriveLemma is derive's step for one lemma: the RUP test (ok), then
// the lemma joins the clause set, under the next ID, and the root what
// it propagates.
func (c *ProofChecker) deriveLemma(lemma cnf.Clause, chain []uint32) (refuted, ok bool) {
	if !c.implied(lemma, chain) {
		return false, false
	}
	ref, nonEmpty := c.add(lemma)
	if !nonEmpty {
		return true, true
	}
	c.byID = append(c.byID, ref)
	if ref != crefUndef {
		c.attach(ref)
	}
	return !c.extendRoot(), true
}

// growTo makes room for variables up to n.
func (c *ProofChecker) growTo(n int) {
	if add := n - c.numVars; add > 0 {
		c.numVars = n
		c.vals = append(c.vals, make([]int8, 2*add)...)
		c.watches = append(c.watches, make([][]watcher, 2*add)...)
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
	c.qhead = n
}

// extendRoot propagates what the root gained and keeps the result; it
// returns false on a conflict, which at the root is the empty clause.
func (c *ProofChecker) extendRoot() bool {
	ok := c.propagate()
	c.root = len(c.trail)
	return ok
}

// add files a clause over known variables under the root assignment,
// which holds for as long as the clause is kept: duplicate literals
// collapse, a tautology or a clause with a true literal is dropped, and
// false literals go behind the others — so a clause is never attached
// through a literal that is already false and could not wake it, and is
// still found by the literals it came with (remove). What is not false
// is nothing, the empty clause (add returns false); a unit, which joins
// the root trail unpropagated; or the head of a clause stored in the
// arena, whose ref add returns for the caller to attach.
func (c *ProofChecker) add(cl cnf.Clause) (cref, bool) {
	buf := c.addBuf[:0]
	for _, l := range cl {
		buf = append(buf, lit(l))
	}
	c.addBuf = buf
	slices.Sort(buf)
	buf = slices.Compact(buf)
	n := 0 // literals not false, moved to the front
	prev := litUndef
	for i, l := range buf {
		if l == prev^1 || c.vals[l] == lTrue {
			return crefUndef, true
		}
		prev = l
		if c.vals[l] == lUndef {
			buf[n], buf[i] = l, buf[n]
			n++
		}
	}
	switch n {
	case 0:
		return crefUndef, false
	case 1:
		c.assign(buf[0])
		return crefUndef, true
	}
	c.arena = append(c.arena, uint32(len(buf)))
	ref := cref(len(c.arena))
	c.arena = append(c.arena, buf...)
	if uint64(len(c.arena)) >= binTag {
		panic("sat: proof checker's clause arena exceeds 2^31 words")
	}
	return ref, true
}

func (c *ProofChecker) attach(ref cref) {
	l0, l1 := c.arena[ref], c.arena[ref+1]
	if c.arena[ref-1] == 2 {
		ref |= binTag
	}
	c.watches[l0^1] = append(c.watches[l0^1], watcher{ref, l1})
	c.watches[l1^1] = append(c.watches[l1^1], watcher{ref, l0})
}

// implied is the RUP test along the chain: with every literal of the
// lemma false, the chain must end in a false clause (walk). A lemma
// satisfied at the root needs none. The root is left as it was.
func (c *ProofChecker) implied(lemma cnf.Clause, chain []uint32) bool {
	c.stats.Lemmas++
	defer c.undo(c.root)
	for _, l := range lemma {
		if l < 2 || int(l.Var()) > c.numVars {
			// No clause or assumption mentions the variable, so the
			// solver cannot have learnt about it: a malformed proof.
			return false
		}
		switch c.vals[l] {
		case lTrue:
			// Satisfied at the root, or by the negation of an earlier
			// literal of a tautology: trivially a consequence.
			return true
		case lUndef:
			c.assign(lit(l) ^ 1)
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

// nextMark starts a new stamp for mark.
func (c *ProofChecker) nextMark() uint32 {
	c.markEpoch++
	if c.markEpoch == 0 { // wrapped: old stamps could collide
		clear(c.mark)
		c.markEpoch = 1
	}
	return c.markEpoch
}

// propagate runs unit propagation from qhead; it returns false on a
// conflict, leaving the rest of the queue unvisited.
func (c *ProofChecker) propagate() bool {
	arena, vals := c.arena, c.vals // neither grows during propagation
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		np := p ^ 1
		ws := c.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			unit := w.blocker
			if vals[unit] != lTrue {
				if w.ref&binTag == 0 {
					lits := arena[w.ref : w.ref+arena[w.ref-1]]
					// The false literal goes to position 1.
					if lits[0] == np {
						lits[0], lits[1] = lits[1], np
					}
					unit = lits[0]
					w.blocker = unit
					if vals[unit] != lTrue {
						for k := 2; k < len(lits); k++ {
							if vals[lits[k]] != lFalse {
								lits[1], lits[k] = lits[k], np
								c.watches[lits[1]^1] = append(c.watches[lits[1]^1], w)
								continue nextWatcher
							}
						}
					}
				}
				// Every other literal is false: unit must hold.
				switch vals[unit] {
				case lFalse:
					n += copy(ws[n:], ws[i:])
					c.watches[p] = ws[:n]
					c.qhead = len(c.trail)
					return false
				case lUndef:
					c.assign(unit)
				}
			}
			ws[n] = w
			n++
		}
		c.watches[p] = ws[:n]
	}
	return true
}

// reset takes the checker back to its base, the formula's fixpoint (and
// that of Extend's lemmas, which are part of the formula from then on):
// the trail is cut there, the later lemmas leave the arena, their IDs
// and their watchers the lists, and the clauses of the base the proof
// deleted go back on them. The base's other clauses need no repair. A
// watch only ever moved to a literal that was not false at the time,
// under an assignment extending the fixpoint, so it is not false at the
// fixpoint either; and a watch that never moved is as the fixpoint's own
// propagation left it.
func (c *ProofChecker) reset() {
	c.undo(c.baseTrail)
	c.root = c.baseTrail
	c.byID = c.byID[:c.baseIDs]
	if c.numVars > c.baseVars {
		c.numVars = c.baseVars
		c.vals = c.vals[:2*(c.baseVars+1)]
		c.watches = c.watches[:2*(c.baseVars+1)]
		c.mark = c.mark[:2*(c.baseVars+1)]
	}
	if len(c.arena) != c.baseArena {
		c.arena = c.arena[:c.baseArena]
		for l, ws := range c.watches {
			n := 0
			for _, w := range ws {
				if int(w.ref&^binTag) < c.baseArena {
					ws[n] = w
					n++
				}
			}
			c.watches[l] = ws[:n]
		}
	}
	for _, ref := range c.detached {
		// At the fixpoint a clause of the base is satisfied or has two
		// literals unassigned: those are the ones to watch it through.
		c.arena[ref-1] &^= delTag
		lits := c.arena[ref : ref+c.arena[ref-1]]
		for k := range 2 {
			for j := k + 1; j < len(lits); j++ {
				if c.vals[lits[j]] > c.vals[lits[k]] {
					lits[k], lits[j] = lits[j], lits[k]
				}
			}
		}
		c.attach(ref)
	}
	c.detached = c.detached[:0]
}

// remove drops the clause a Deletion names, if its ID names a live one
// with exactly its literals. Unwatched, it stays in the arena until reset
// brings it back or Extend compacts it away.
func (c *ProofChecker) remove(cl cnf.Clause, id uint32) {
	buf := c.addBuf[:0]
	for _, l := range cl {
		if l < 2 || int(l.Var()) > c.numVars {
			return // over a variable no clause mentions
		}
		buf = append(buf, lit(l))
	}
	c.addBuf = buf
	slices.Sort(buf)
	buf = slices.Compact(buf)
	if len(buf) < 2 {
		return // a unit is on the trail, not in the arena
	}
	ref := c.named(id, buf)
	if ref == crefUndef {
		return
	}
	tagged := ref
	if c.arena[ref-1] == 2 {
		tagged |= binTag
	}
	for _, l := range [2]lit{c.arena[ref], c.arena[ref+1]} {
		ws := c.watches[l^1]
		for i, w := range ws {
			if w.ref == tagged {
				c.watches[l^1] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
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
	epoch := c.nextMark()
	for _, l := range lits {
		c.mark[l] = epoch
	}
	for _, l := range c.arena[ref : ref+c.arena[ref-1]] {
		if c.mark[l] != epoch {
			return crefUndef
		}
	}
	return ref
}

// compact closes the gaps deleted clauses have left in the arena and
// moves the watchers, all of which are of live clauses, to lists carved
// from one allocation of their number: a base that lost half its clauses
// is held in half the memory. The IDs of deleted clauses name nothing
// from here on.
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
	for id, ref := range c.byID {
		if ref != crefUndef && old[ref-1]&delTag != 0 {
			c.byID[id] = crefUndef
		}
	}
	c.arena = make([]uint32, 1, words)
	for ref := 2; ref < len(old); {
		size := int(old[ref-1] &^ delTag)
		if old[ref-1]&delTag == 0 {
			c.arena = append(c.arena, old[ref-1:ref+size]...)
			old[ref] = uint32(len(c.arena) - size) // the clause's new address, for its watchers and its ID
		}
		ref += size + 1
	}
	for id, ref := range c.byID {
		if ref != crefUndef {
			c.byID[id] = old[ref]
		}
	}
	watchers := 0
	for _, ws := range c.watches {
		watchers += len(ws)
	}
	backing := make([]watcher, watchers)
	for l, ws := range c.watches {
		moved := backing[:len(ws):len(ws)]
		backing = backing[len(ws):]
		for i, w := range ws {
			moved[i] = watcher{old[w.ref&^binTag] | w.ref&binTag, w.blocker}
		}
		c.watches[l] = moved
	}
}
