package sat

import (
	"fmt"
	"slices"

	"repro/internal/cnf"
)

// This file keeps the reference FuzzCheckRUP and the oracle tests hold
// ProofChecker to: a chain-blind RUP checker over a [][]cnf.Lit clause
// store reloaded for every proof, which puts each lemma to full unit
// propagation. It never reads a chain, so the comparison is one-sided:
// what the checker accepts along its chains, the reference accepts.
// Deletions go by their literals alone, the slow way:
// the first live clause with exactly the entry's literals goes, the root
// keeps what it propagated. The checker goes by ID and ignores more, so
// the tests give the reference a proof without its deletions, which only
// makes it accept more.

// normalize sorts the clause, removes duplicate literals, and reports
// whether the clause is a tautology (contains l and ¬l).
func normalize(c cnf.Clause) (cnf.Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	slices.Sort(c)
	out := c[:1]
	for _, l := range c[1:] {
		last := out[len(out)-1]
		if l == last {
			continue
		}
		if l == last.Not() {
			return nil, true
		}
		out = append(out, l)
	}
	return out, false
}

// referenceCheckRUP is CheckRUP as it was on the reference engine, fed
// the checker's bytes and passing over their chains.
func referenceCheckRUP(f *cnf.Formula, assumptions []cnf.Lit, proof Proof) error {
	p := draftOf(proof)
	e := newRUPEngine(f, assumptions)
	if e.conflictAtRoot {
		return nil // the formula plus assumptions is already conflicting
	}
	dels := p.Deletes
	for i, lemma := range p.Lemmas {
		for ; len(dels) > 0 && dels[0].At <= i; dels = dels[1:] {
			e.deleteClause(dels[0].Clause)
		}
		if !e.checkLemma(lemma) {
			return fmt.Errorf("sat: lemma %d of %d is not a RUP consequence: %v",
				i+1, len(p.Lemmas), lemma)
		}
		e.addClause(lemma)
		if e.conflictAtRoot {
			return nil // empty clause derived
		}
		if !e.propagateFixpointPersistent() {
			return nil // empty clause derived
		}
	}
	// All lemmas verified; the final state must already be conflicting.
	if e.propagateFixpoint() {
		return nil
	}
	return fmt.Errorf("sat: proof does not derive the empty clause (%d lemmas)", len(p.Lemmas))
}

// rupEngine is a decision-free propagation engine with trail undo,
// used only for proof checking.
type rupEngine struct {
	numVars int
	clauses [][]cnf.Lit
	// byLits lists the live clauses by their literals as addClause
	// normalised them; dead[i] marks a deleted clause, which its watchers
	// drop when they next see it.
	byLits  map[string][]int
	dead    []bool
	watches [][]int // by literal: the clauses watching it
	assigns []int8
	trail   []cnf.Lit
	qhead   int
	// rootTrail marks the persistent prefix (formula units, assumptions,
	// lemma units): the engine never undoes below it.
	rootSize       int
	conflictAtRoot bool
}

func newRUPEngine(f *cnf.Formula, assumptions []cnf.Lit) *rupEngine {
	e := &rupEngine{
		numVars: f.NumVars,
		watches: make([][]int, 2*(f.NumVars+1)),
		byLits:  map[string][]int{},
		assigns: make([]int8, f.NumVars+1),
	}
	f.Each(func(c cnf.Clause) {
		if !e.conflictAtRoot {
			e.addClause(c)
		}
	})
	if e.conflictAtRoot {
		return e
	}
	for _, a := range assumptions {
		e.grow(a)
		if !e.enqueue(a) {
			e.conflictAtRoot = true
			return e
		}
	}
	if !e.propagateFixpointPersistent() {
		e.conflictAtRoot = true
	}
	return e
}

// grow makes room for l's variable: clauses and assumptions may, like
// the solver's, mention variables beyond the formula's NumVars.
func (e *rupEngine) grow(l cnf.Lit) {
	for e.numVars < int(l.Var()) {
		e.numVars++
		e.assigns = append(e.assigns, lUndef)
		e.watches = append(e.watches, nil, nil)
	}
}

func (e *rupEngine) value(l cnf.Lit) int8 {
	v := e.assigns[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

func (e *rupEngine) enqueue(l cnf.Lit) bool {
	switch e.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	if l.Neg() {
		e.assigns[l.Var()] = lFalse
	} else {
		e.assigns[l.Var()] = lTrue
	}
	e.trail = append(e.trail, l)
	return true
}

// addClause registers a clause, normalising it first (duplicate
// literals collapse — essential so the checker's propagation is at
// least as strong as the solver's, which normalises on AddClause);
// tautologies are skipped. The literals not false at the root go first
// and the clause is watched through them, so that one added under a
// root that already falsified a literal still wakes when it becomes
// unit (TestCheckRUPLemmaUnitUnderRoot); a clause with only one such
// literal is a unit, enqueued persistently.
func (e *rupEngine) addClause(c cnf.Clause) {
	nc, taut := normalize(append(cnf.Clause{}, c...))
	if taut {
		return
	}
	c, key := nc, fmt.Sprint(nc)
	open := 0
	for i, l := range c {
		e.grow(l)
		if e.value(l) != lFalse {
			c[open], c[i] = c[i], c[open]
			open++
		}
	}
	switch open {
	case 0:
		e.conflictAtRoot = true
		return
	case 1:
		if !e.enqueue(c[0]) {
			e.conflictAtRoot = true
		}
		e.rootSize = len(e.trail)
		return
	}
	idx := len(e.clauses)
	lits := append([]cnf.Lit{}, c...)
	e.clauses = append(e.clauses, lits)
	e.byLits[key] = append(e.byLits[key], idx)
	e.dead = append(e.dead, false)
	for _, l := range lits[:2] {
		e.watches[l] = append(e.watches[l], idx)
	}
}

// deleteClause marks dead the first live clause with exactly c's
// literals, if there is one. Units were never stored: what they
// propagated stays.
func (e *rupEngine) deleteClause(c cnf.Clause) {
	nc, taut := normalize(append(cnf.Clause{}, c...))
	if taut {
		return
	}
	if live := e.byLits[fmt.Sprint(nc)]; len(live) > 0 {
		e.dead[live[0]] = true
		e.byLits[fmt.Sprint(nc)] = live[1:]
	}
}

// propagate runs unit propagation; returns false on conflict.
func (e *rupEngine) propagate() bool {
	for e.qhead < len(e.trail) {
		p := e.trail[e.qhead]
		e.qhead++
		np := p.Not()
		ws := e.watches[np]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			if e.dead[ci] {
				continue
			}
			lits := e.clauses[ci]
			// Ensure np is at position 1.
			if lits[0] == np {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if e.value(lits[0]) == lTrue {
				kept = append(kept, ci)
				continue
			}
			moved := false
			for k := 2; k < len(lits); k++ {
				if e.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					e.watches[lits[1]] = append(e.watches[lits[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, ci)
			if !e.enqueue(lits[0]) {
				// Conflict: keep remaining watchers and fail.
				kept = append(kept, ws[wi+1:]...)
				e.watches[np] = kept
				e.qhead = len(e.trail)
				return false
			}
		}
		e.watches[np] = kept
	}
	return true
}

// propagateFixpointPersistent propagates and persists the result (used
// during construction and after adding lemma units).
func (e *rupEngine) propagateFixpointPersistent() bool {
	ok := e.propagate()
	e.rootSize = len(e.trail)
	return ok
}

// propagateFixpoint propagates without persisting new assignments.
func (e *rupEngine) propagateFixpoint() bool {
	ok := e.propagate()
	if ok {
		e.undoToRoot()
		return false // no conflict
	}
	e.undoToRoot()
	return true // conflict derived
}

// checkLemma verifies RUP: asserting the negation of every literal of
// the lemma and propagating must yield a conflict.
func (e *rupEngine) checkLemma(lemma cnf.Clause) bool {
	for _, l := range lemma {
		if l.Var() < 1 || int(l.Var()) > e.numVars {
			// No clause or assumption mentions the variable, so the
			// solver cannot have learnt about it: a malformed proof.
			e.undoToRoot()
			return false
		}
		switch e.value(l) {
		case lTrue:
			// The lemma is already satisfied at root level: trivially a
			// consequence (subsumed by the trail).
			e.undoToRoot()
			return true
		case lFalse:
			continue
		default:
			if !e.enqueue(l.Not()) {
				e.undoToRoot()
				return true
			}
		}
	}
	conflict := !e.propagate()
	e.undoToRoot()
	return conflict
}

func (e *rupEngine) undoToRoot() {
	for len(e.trail) > e.rootSize {
		l := e.trail[len(e.trail)-1]
		e.trail = e.trail[:len(e.trail)-1]
		e.assigns[l.Var()] = lUndef
	}
	e.qhead = e.rootSize
	if e.qhead > len(e.trail) {
		e.qhead = len(e.trail)
	}
}
