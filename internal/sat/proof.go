package sat

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
)

// Proof is a clausal (DRUP-style) refutation: the sequence of learnt
// clauses in derivation order. Each clause is a reverse-unit-propagation
// (RUP) consequence of the original formula plus the preceding lemmas,
// and the sequence ends in a state where unit propagation alone derives
// the empty clause. Checking a proof certifies an UNSAT verdict
// independently of the CDCL search that produced it — the counterpart
// of replay-validating SAT counterexamples on the interpreter.
type Proof struct {
	// Lemmas are the derived clauses, in order. An empty clause may
	// appear implicitly: the proof is complete when propagation of the
	// formula, the assumptions, and the lemmas conflicts.
	Lemmas []cnf.Clause
}

// EnableProof turns on proof recording; must be called before Solve.
func (s *Solver) EnableProof() {
	s.proof = &Proof{}
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
// of lit0, and is watched through lit0 and lit1.
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

	addBuf []lit // the clause add is normalising
	stats  ProofCheckerStats
}

// ProofCheckerStats counts a checker's work since it was built.
type ProofCheckerStats struct {
	Lemmas       int64 // lemmas put to the RUP test
	Propagations int64 // literals propagated, loading the formula included
}

// NewProofChecker loads f and propagates its units to a fixpoint. A
// literal cnf's constructors could not have built is the caller's bug
// and panics.
func NewProofChecker(f *cnf.Formula) *ProofChecker {
	// Literals start at 2 (variable 1).
	c := &ProofChecker{vals: make([]int8, 2), watches: make([][]watcher, 2)}
	numVars, words := f.NumVars, 0
	for _, cl := range f.Clauses {
		words += 1 + len(cl)
		for _, l := range cl {
			if l < 2 || uint64(l) >= 1<<32 {
				panic(fmt.Sprintf("sat: invalid literal %d in the formula", int(l)))
			}
			numVars = max(numVars, int(l.Var()))
		}
	}
	c.growTo(numVars)
	c.arena = make([]uint32, 1, 1+words) // word 0 is never a clause: no ref is 0
	c.trail = make([]lit, 0, numVars)
	for _, cl := range f.Clauses {
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
	var lemmas []cnf.Clause
	if p != nil {
		lemmas = p.Lemmas
	}
	if refuted, err := c.derive(lemmas); err != nil || refuted {
		return err
	}
	return fmt.Errorf("sat: proof does not derive the empty clause (%d lemmas)", len(lemmas))
}

// Extend checks p (nil: no lemmas) under no assumptions and, if every
// lemma holds, makes the formula together with p the state that Check
// starts from and returns to: for proofs that share p as a prefix —
// those of the clones of a solver that had logged p when it was cloned
// (Solver.Clone) — Extend(p) once, then Check(assumptions, rest) for
// each, accepts exactly what Check(assumptions, p ++ rest) would, and
// checks p once instead of once per proof. That is sound because the
// base only ever grows by clauses proved from it under no assumption,
// so they hold under any; and it accepts no less because a lemma that
// is RUP without the assumptions is RUP with them. A rejected lemma
// leaves the checker where it was and still usable.
func (c *ProofChecker) Extend(p *Proof) error {
	if c.refuted || p == nil {
		return nil
	}
	refuted, err := c.derive(p.Lemmas)
	if err != nil {
		c.reset()
		return err
	}
	c.refuted = refuted
	c.baseVars, c.baseArena, c.baseTrail = c.numVars, len(c.arena), c.root
	return nil
}

// derive puts the lemmas to the RUP test in order and adds each to the
// clause set, the root extended by what it propagates. refuted reports
// that they derive the empty clause; the checker's state is then good
// for nothing but reset.
func (c *ProofChecker) derive(lemmas []cnf.Clause) (refuted bool, err error) {
	for i, lemma := range lemmas {
		if !c.implied(lemma) {
			return false, fmt.Errorf("sat: lemma %d of %d is not a RUP consequence: %v",
				i+1, len(lemmas), lemma)
		}
		ref, ok := c.add(lemma)
		if !ok {
			return true, nil
		}
		if ref != crefUndef {
			c.attach(ref)
		}
		if !c.extendRoot() {
			return true, nil
		}
	}
	return false, nil
}

// growTo makes room for variables up to n.
func (c *ProofChecker) growTo(n int) {
	if add := n - c.numVars; add > 0 {
		c.numVars = n
		c.vals = append(c.vals, make([]int8, 2*add)...)
		c.watches = append(c.watches, make([][]watcher, 2*add)...)
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
// false literals are left out — so a clause is never attached through a
// literal that is already false and could not wake it. What remains is
// the empty clause (add returns false), a unit, which joins the root
// trail unpropagated, or a clause stored in the arena, whose ref add
// returns for the caller to attach.
func (c *ProofChecker) add(cl cnf.Clause) (cref, bool) {
	buf := c.addBuf[:0]
	for _, l := range cl {
		buf = append(buf, lit(l))
	}
	c.addBuf = buf
	slices.Sort(buf)
	n := 0
	prev := litUndef
	for _, l := range buf {
		if l == prev {
			continue
		}
		if l == prev^1 || c.vals[l] == lTrue {
			return crefUndef, true
		}
		prev = l
		if c.vals[l] == lUndef {
			buf[n] = l
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
	c.arena = append(c.arena, uint32(n))
	ref := cref(len(c.arena))
	c.arena = append(c.arena, buf[:n]...)
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
// propagation must reach a conflict. The root is left as it was.
func (c *ProofChecker) implied(lemma cnf.Clause) bool {
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
	return !c.propagate()
}

// propagate runs unit propagation from qhead; it returns false on a
// conflict, leaving the rest of the queue unvisited.
func (c *ProofChecker) propagate() bool {
	arena, vals := c.arena, c.vals // neither grows during propagation
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
// the trail is cut there, the later lemmas leave the arena and their
// watchers the lists. The base's clauses need no repair. A watch only ever moved to a
// literal that was not false at the time, under an assignment extending
// the fixpoint, so it is not false at the fixpoint either; and a watch
// that never moved is as the fixpoint's own propagation left it.
func (c *ProofChecker) reset() {
	c.undo(c.baseTrail)
	c.root = c.baseTrail
	if c.numVars > c.baseVars {
		c.numVars = c.baseVars
		c.vals = c.vals[:2*(c.baseVars+1)]
		c.watches = c.watches[:2*(c.baseVars+1)]
	}
	if len(c.arena) == c.baseArena {
		return
	}
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
