package sat

import (
	"encoding/binary"
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
	// Hints[i], where there is one, is where the solver says lemma i came
	// from: the variables its conflict analysis resolved on or minimised
	// away, which with the lemma's own are the ones a RUP test of it has to
	// assign. A checker tries those first (ProofChecker) and is faster for
	// it, never more lenient: a hint is advice on where to propagate, not
	// part of the proof — not of its DRAT text — and a
	// missing, short or lying one costs time and nothing else.
	Hints []Hint `json:",omitempty"`
}

// Hint is a set of variables in ascending order, each as the uvarint of
// its distance from the one before it, the first from 0.
type Hint []byte

// hint returns lemma i's hint, nil if the proof has none for it.
func (p *Proof) hint(i int) Hint {
	if i < len(p.Hints) {
		return p.Hints[i]
	}
	return nil
}

// Deletion names, by its literals as drat-trim's "d" lines do, one
// clause to drop once the first At lemmas have been added: a clause of
// the formula or an earlier lemma with exactly these literals, in any
// order. An entry that matches nothing the checker holds — no such
// clause, one already deleted, a unit, literals out of range — is
// ignored; entries take effect in slice order, so one whose At runs
// ahead holds back those after it, and none waits past the last lemma.
type Deletion struct {
	At     int
	Clause cnf.Clause
}

// EnableProof turns on proof recording; must be called before Solve.
func (s *Solver) EnableProof() {
	s.proof, s.proofStep = &Proof{}, nil
}

// StreamProof turns on proof recording like EnableProof, but hands each
// step to step as the solver logs it — a lemma, or with deleted set a
// clause it dropped, in cnf.Lit's encoding and valid for the length of
// the call — instead of keeping it: ProofLog stays empty. For a solver
// whose log is tens of thousands of steps that its holder wants hashed
// or checked and not stored (a template's). Its clones keep their own
// logs as any clone does.
func (s *Solver) StreamProof(step func(deleted bool, clause []uint32)) {
	s.proof, s.proofStep = &Proof{}, step
}

// KeepProof ends a StreamProof: from here on the solver logs to p, and
// keeps it, as under EnableProof — for a holder that kept what it was
// handed so far in p and wants ProofLog to be the whole log again.
func (s *Solver) KeepProof(p *Proof) {
	s.proof, s.proofStep = p, nil
}

// keepsProof reports whether the solver logs to a proof it keeps, the
// kind whose lemmas carry hints.
func (s *Solver) keepsProof() bool { return s.proof != nil && s.proofStep == nil }

// logLemma and logDelete record a clause the solver derived — through
// the variables via, which logLemma sorts, if conflict analysis derived
// it — and one it no longer holds and the checker does; only called with
// proof logging on. Both log in the formula's numbering, whatever the
// pass renumbered: the checker holds the formula.
func (s *Solver) logLemma(lits []lit, via []uint32) {
	if s.proofStep != nil {
		s.proofStep(false, s.extLits(lits))
		return
	}
	s.proof.Lemmas = append(s.proof.Lemmas, s.lemma(lits))
	s.proof.Hints = append(s.proof.Hints, s.hint(via))
}

// hint encodes a set of the solver's variables as a Hint over the
// formula's, carved like a lemma from a slab that is replaced when full.
// The map is monotone, so they are in ascending order in either.
func (s *Solver) hint(vars []uint32) Hint {
	if len(vars) == 0 {
		return nil
	}
	slices.Sort(vars)
	if room := binary.MaxVarintLen32 * len(vars); cap(s.hintSlab)-len(s.hintSlab) < room {
		s.hintSlab = make([]byte, 0, max(room, 1<<14))
	}
	start, prev := len(s.hintSlab), uint32(0)
	for _, v := range vars {
		if s.numElim > 0 {
			v = s.ext[v-1]
		}
		s.hintSlab = binary.AppendUvarint(s.hintSlab, uint64(v-prev))
		prev = v
	}
	return s.hintSlab[start:len(s.hintSlab):len(s.hintSlab)]
}

func (s *Solver) logDelete(lits []lit) {
	if s.proofStep != nil {
		s.proofStep(true, s.extLits(lits))
		return
	}
	s.proof.Deletes = append(s.proof.Deletes, Deletion{At: len(s.proof.Lemmas), Clause: s.lemma(lits)})
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
	if len(prefix.Hints)+len(tail.Hints) > 0 {
		p.Hints = make([]Hint, len(prefix.Lemmas), len(p.Lemmas))
		copy(p.Hints, prefix.Hints)
		p.Hints = append(p.Hints, tail.Hints[:min(len(tail.Hints), len(tail.Lemmas))]...)
	}
	// No entry of the prefix waits past its last lemma, nor here.
	for _, d := range prefix.Deletes {
		p.Deletes = append(p.Deletes, Deletion{At: min(d.At, len(prefix.Lemmas)), Clause: d.Clause})
	}
	for _, d := range tail.Deletes {
		p.Deletes = append(p.Deletes, Deletion{At: len(prefix.Lemmas) + max(d.At, 0), Clause: d.Clause})
	}
	if len(p.Deletes) == 0 {
		p.Deletes = nil
	}
	return p
}

// ProofLog returns the recorded proof (nil unless EnableProof was
// called).
func (s *Solver) ProofLog() *Proof { return s.proof }

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
// clause is [size] lit0 lit1 ... in the arena, addressed by the index
// of lit0, and is watched through lit0 and lit1; a deleted one keeps its
// place, unwatched, with delTag in its size word.
//
// A lemma that comes with a hint (Proof.Hints) is first put to a RUP test
// confined to the variables of the hint and its own: propagation assigns
// no other variable, so it visits the watch lists of those alone. Every
// assignment made that way is one the unconfined test makes too, so a
// conflict is a conflict whoever wrote the hint; without one — or with a
// hint that does not parse or names a variable the checker does not
// have — the test goes on from the root over every variable, which is
// the test of a lemma without a hint. Accepted and rejected are the same
// proofs either way.
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

	// The propagation fixpoint of the formula, and of the lemmas Extend
	// has added to it, where reset returns to.
	baseVars, baseArena, baseTrail int
	// refuted: the formula, with Extend's lemmas, propagates to a
	// conflict under no assumption, so every proof of it checks.
	refuted bool
	// detached are the clauses of the base the proof being checked has
	// deleted: reset puts them back, Extend lets them go for good.
	detached []cref

	// index finds a clause by its literals for a Deletion: an open-
	// addressed table of refs (0 free, crefDead a deleted entry's),
	// built over the live clauses by the first Deletion a proof brings
	// and kept up to date until reset. mark stamps with markEpoch, per
	// literal, the clause being looked up, and at a variable's positive
	// literal the variables the propagation under way is confined to.
	index     []cref
	indexUsed int // slots not free
	indexed   bool
	mark      []uint32
	markEpoch uint32

	// An Extend in steps (ExtendStep): the lemmas so far, the first that
	// did not stand, and whether they have derived the empty clause.
	stepLemmas  int
	stepErr     error
	stepRefuted bool
	stepBuf     cnf.Clause

	addBuf []lit // the clause add or remove is normalising
	stats  ProofCheckerStats
}

const (
	delTag        = 1 << 31 // in a clause's size word: deleted
	crefDead cref = 1       // never a clause: word 0 is unused and refs start at 2
)

// ProofCheckerStats counts a checker's work since it was built.
type ProofCheckerStats struct {
	Lemmas       int64 // lemmas put to the RUP test
	Propagations int64 // literals propagated, loading the formula included
	Hinted       int64 // lemmas refuted by propagation confined to their hint
	Fallbacks    int64 // hinted lemmas that took the unconfined test all the same
}

// Add accumulates o into s.
func (s *ProofCheckerStats) Add(o ProofCheckerStats) {
	s.Lemmas += o.Lemmas
	s.Propagations += o.Propagations
	s.Hinted += o.Hinted
	s.Fallbacks += o.Fallbacks
}

// Since returns what a checker whose counters are s has done since they
// were o.
func (s ProofCheckerStats) Since(o ProofCheckerStats) ProofCheckerStats {
	return ProofCheckerStats{s.Lemmas - o.Lemmas, s.Propagations - o.Propagations, s.Hinted - o.Hinted, s.Fallbacks - o.Fallbacks}
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
	for _, cl := range f.Clauses {
		for _, l := range cl {
			if l < 2 || int(l.Var()) > f.NumVars {
				panic(fmt.Sprintf("sat: invalid literal %d in the formula", int(l)))
			}
		}
		if _, ok := c.add(cl); !ok {
			c.refuted = true
			return c
		}
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
	c.baseVars, c.baseArena, c.baseTrail = c.numVars, len(c.arena), c.root
	return c
}

// Stats returns the checker's counters.
func (c *ProofChecker) Stats() ProofCheckerStats { return c.stats }

// Check verifies p (nil: no lemmas) as a refutation of the formula
// under the assumptions and leaves the checker as NewProofChecker built
// it, or the last Extend left it, whatever the answer.
func (c *ProofChecker) Check(assumptions []cnf.Lit, p *Proof) error {
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
	if p == nil {
		p = &Proof{}
	}
	if refuted, err := c.derive(p); err != nil || refuted {
		return err
	}
	return fmt.Errorf("sat: proof does not derive the empty clause (%d lemmas)", len(p.Lemmas))
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
// the assumptions is RUP with them. A rejected lemma leaves the checker
// where it was and still usable.
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
	// The table goes: a checker is kept for as long as its formula's
	// proofs come, and few of them delete.
	c.index, c.indexed = nil, false
	c.baseVars, c.baseArena, c.baseTrail = c.numVars, len(c.arena), c.root
}

// ExtendStep and ExtendDone are Extend for a proof that arrives a step
// at a time, as Solver.StreamProof hands it out, and is not kept: every
// step of it through ExtendStep, in order, then ExtendDone, which says
// whether all of it stood — and leaves the checker as Extend does either
// way. No Check may come in between.
func (c *ProofChecker) ExtendStep(deleted bool, clause []uint32) {
	if c.refuted || c.stepErr != nil || c.stepRefuted {
		return
	}
	buf := c.stepBuf[:0]
	for _, l := range clause {
		buf = append(buf, cnf.Lit(l))
	}
	c.stepBuf = buf
	if deleted {
		c.remove(buf)
		return
	}
	c.stepLemmas++
	refuted, ok := c.deriveLemma(buf, nil)
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
			c.remove(dels[0].Clause)
		}
		refuted, ok := c.deriveLemma(lemma, p.hint(i))
		if !ok {
			return false, fmt.Errorf("sat: lemma %d of %d is not a RUP consequence: %v",
				i+1, len(p.Lemmas), lemma)
		}
		if refuted {
			return true, nil
		}
	}
	for _, d := range dels {
		c.remove(d.Clause)
	}
	return false, nil
}

// deriveLemma is derive's step for one lemma: the RUP test (ok), then
// the lemma joins the clause set and the root what it propagates.
func (c *ProofChecker) deriveLemma(lemma cnf.Clause, hint Hint) (refuted, ok bool) {
	if !c.implied(lemma, hint) {
		return false, false
	}
	ref, nonEmpty := c.add(lemma)
	if !nonEmpty {
		return true, true
	}
	if ref != crefUndef {
		c.attach(ref)
		if c.indexed {
			c.indexInsert(ref)
		}
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
	ok := c.propagate(false)
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

// implied is the RUP test: with every literal of the lemma false,
// propagation must reach a conflict — within the hint, if there is one,
// or else from the root again without it. The root is left as it was.
func (c *ProofChecker) implied(lemma cnf.Clause, hint Hint) bool {
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
	if len(hint) > 0 {
		if c.confine(lemma, hint) && !c.propagate(true) {
			c.stats.Hinted++
			return true
		}
		c.stats.Fallbacks++
		c.qhead = c.root // what the confined run assigned holds; what it skipped is met again
	}
	return !c.propagate(false)
}

// confine marks the variables of a lemma, all known, and of its hint for
// a confined propagation; false if the hint is not one over the
// checker's variables.
func (c *ProofChecker) confine(lemma cnf.Clause, hint Hint) bool {
	epoch := c.nextMark()
	for _, l := range lemma {
		c.mark[l&^1] = epoch
	}
	v := uint64(0)
	for len(hint) > 0 {
		d, n := binary.Uvarint(hint)
		if n <= 0 || d > uint64(c.numVars) {
			return false
		}
		if v += d; v == 0 || v > uint64(c.numVars) {
			return false
		}
		c.mark[2*v] = epoch
		hint = hint[n:]
	}
	return true
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

// propagate runs unit propagation from qhead, confined — assigning only
// variables confine has marked — or not; it returns false on a conflict,
// leaving the rest of the queue unvisited.
func (c *ProofChecker) propagate(confined bool) bool {
	arena, vals := c.arena, c.vals // neither grows during propagation
	mark, epoch := c.mark, c.markEpoch
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead]
		c.qhead++
		c.stats.Propagations++
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
					if !confined || mark[unit&^1] == epoch {
						c.assign(unit)
					}
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
// the trail is cut there, the later lemmas leave the arena and their
// watchers the lists, and the clauses of the base the proof deleted go
// back on them. The base's other clauses need no repair. A watch only
// ever moved to a literal that was not false at the time, under an
// assignment extending the fixpoint, so it is not false at the fixpoint
// either; and a watch that never moved is as the fixpoint's own
// propagation left it.
func (c *ProofChecker) reset() {
	c.undo(c.baseTrail)
	c.root = c.baseTrail
	c.indexed = false
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

// remove drops the clause a Deletion names, if the checker holds one
// with exactly its literals: unwatched, it stays in the arena until
// reset brings it back or Extend compacts it away.
func (c *ProofChecker) remove(cl cnf.Clause) {
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
	if !c.indexed {
		c.buildIndex()
	}
	ref := c.indexTake(buf)
	if ref == crefUndef {
		return
	}
	tagged := ref
	if len(buf) == 2 {
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

// clauseHash does not depend on the order of the literals.
func clauseHash(lits []lit) uint64 {
	var h uint64
	for _, l := range lits {
		x := uint64(l) * 0x9E3779B97F4A7C15
		h += (x ^ x>>29) * 0xBF58476D1CE4E5B9
	}
	return h ^ h>>32
}

// buildIndex files every live clause in a table with room for as many
// again before it is rebuilt.
func (c *ProofChecker) buildIndex() {
	live := 0
	for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]&^delTag) + 1 {
		if c.arena[ref-1]&delTag == 0 {
			live++
		}
	}
	size := 1 << 10
	for size < 4*live {
		size <<= 1
	}
	if size <= cap(c.index) {
		c.index = c.index[:size]
		clear(c.index)
	} else {
		c.index = make([]cref, size)
	}
	c.indexUsed, c.indexed = 0, true
	for ref := 2; ref < len(c.arena); ref += int(c.arena[ref-1]&^delTag) + 1 {
		if c.arena[ref-1]&delTag == 0 {
			c.indexPut(cref(ref))
		}
	}
}

// indexInsert files a clause add has just stored.
func (c *ProofChecker) indexInsert(ref cref) {
	if 2*(c.indexUsed+1) > len(c.index) {
		c.buildIndex() // which finds it in the arena with the rest
		return
	}
	c.indexPut(ref)
}

func (c *ProofChecker) indexPut(ref cref) {
	mask := uint64(len(c.index) - 1)
	slot := clauseHash(c.arena[ref:ref+c.arena[ref-1]]) & mask
	for c.index[slot] > crefDead {
		slot = (slot + 1) & mask
	}
	if c.index[slot] == crefUndef {
		c.indexUsed++
	}
	c.index[slot] = ref
}

// indexTake finds a live clause whose literals are those of lits, which
// are distinct, takes it out of the table and returns it; crefUndef if
// there is none.
func (c *ProofChecker) indexTake(lits []lit) cref {
	epoch := c.nextMark()
	for _, l := range lits {
		c.mark[l] = epoch
	}
	mask := uint64(len(c.index) - 1)
next:
	for slot := clauseHash(lits) & mask; c.index[slot] != crefUndef; slot = (slot + 1) & mask {
		ref := c.index[slot]
		if ref == crefDead || int(c.arena[ref-1]) != len(lits) {
			continue
		}
		// As many literals, all distinct: the same set if each is marked.
		for _, l := range c.arena[ref : ref+c.arena[ref-1]] {
			if c.mark[l] != epoch {
				continue next
			}
		}
		c.index[slot] = crefDead
		return ref
	}
	return crefUndef
}

// compact closes the gaps deleted clauses have left in the arena and
// moves the watchers, all of which are of live clauses, to lists carved
// from one allocation of their number: a base that lost half its clauses
// is held in half the memory.
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
	c.arena = make([]uint32, 1, words)
	for ref := 2; ref < len(old); {
		size := int(old[ref-1] &^ delTag)
		if old[ref-1]&delTag == 0 {
			c.arena = append(c.arena, old[ref-1:ref+size]...)
			old[ref] = uint32(len(c.arena) - size) // the clause's new address, for its watchers
		}
		ref += size + 1
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
