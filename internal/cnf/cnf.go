// Package cnf provides propositional formulas in conjunctive normal form,
// a Tseitin encoder from and-inverter circuits, and DIMACS serialisation.
//
// Variables are positive integers starting at 1, following the DIMACS
// convention. A literal packs a variable and a polarity: the literal for
// variable v is encoded as 2*v for the positive phase and 2*v+1 for the
// negative phase, so that literals can be used directly as dense slice
// indices (as in MiniSat).
package cnf

import (
	"fmt"
	"slices"
	"strings"
)

// Var identifies a propositional variable. Valid variables are >= 1.
type Var int

// Lit is a literal: a variable together with a polarity, in 32 bits.
// The zero Lit is invalid and can be used as a sentinel.
type Lit int32

// MaxVar is the largest variable a Lit can hold: 2*MaxVar+1 must fit
// it. MkLit, NewVar and ReadDimacs refuse any variable past it.
const MaxVar = 1<<30 - 1

// LitUndef is the invalid literal sentinel.
const LitUndef Lit = 0

// MkLit builds a literal from a variable and a sign.
// neg=false yields the positive literal v, neg=true yields ¬v.
func MkLit(v Var, neg bool) Lit {
	if v <= 0 || v > MaxVar {
		panic(fmt.Sprintf("cnf: invalid variable %d", v))
	}
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return MkLit(v, false) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return MkLit(v, true) }

// Var returns the variable of the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Dimacs returns the signed DIMACS integer for the literal.
func (l Lit) Dimacs() int {
	if l.Neg() {
		return -int(l.Var())
	}
	return int(l.Var())
}

// FromDimacs converts a signed DIMACS integer into a Lit.
func FromDimacs(n int) Lit {
	if n == 0 {
		panic("cnf: zero is not a DIMACS literal")
	}
	if n < 0 {
		return NegLit(Var(-n))
	}
	return PosLit(Var(n))
}

func (l Lit) String() string {
	if l == LitUndef {
		return "<undef>"
	}
	if l.Neg() {
		return fmt.Sprintf("-x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Clause is a disjunction of literals.
type Clause []Lit

func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " ∨ ") + ")"
}

// Formula is a propositional formula in CNF. Its literals live in a
// chunked, pointer-free store — every clause as its length followed by
// its literals, in chunks that are never copied — which every reader
// walks in place (Each). Clauses is a view into the store that
// BuildClauses makes on request, for a reader that indexes clauses.
type Formula struct {
	// NumVars is the highest variable index in use.
	NumVars int
	// Clauses is nil until BuildClauses, and read-only: AddClause is the
	// one way a clause gets in, and it does not extend the view. A Clause
	// taken from it stays valid and unchanged for as long as it is
	// referenced.
	Clauses []Clause

	chunks        [][]Lit
	clauses, lits int
}

// The store's chunks double from minChunk to maxChunk words, so that a
// ten-clause formula costs 1 KiB, a million-clause one some two hundred
// allocations, and the last chunk's unused tail is at most 64 KiB.
const (
	minChunk = 1 << 8
	maxChunk = 1 << 14
)

// New returns an empty formula.
func New() *Formula { return &Formula{} }

// NewVar allocates a fresh variable.
func (f *Formula) NewVar() Var {
	if f.NumVars >= MaxVar {
		panic(fmt.Sprintf("cnf: variable %d does not fit a literal", f.NumVars+1))
	}
	f.NumVars++
	return Var(f.NumVars)
}

// AddClause appends a copy of the clause, growing NumVars if it mentions
// a larger variable.
func (f *Formula) AddClause(lits ...Lit) {
	n := len(f.chunks) - 1
	if n < 0 || cap(f.chunks[n])-len(f.chunks[n]) <= len(lits) {
		size := minChunk
		if n >= 0 {
			size = min(2*cap(f.chunks[n]), maxChunk)
		}
		f.chunks = append(f.chunks, make([]Lit, 0, max(size, 1+len(lits))))
		n++
	}
	f.chunks[n] = append(append(f.chunks[n], Lit(len(lits))), lits...)
	for _, l := range lits {
		f.NumVars = max(f.NumVars, int(l.Var()))
	}
	f.clauses++
	f.lits += len(lits)
}

// AddUnit appends a unit clause.
func (f *Formula) AddUnit(l Lit) { f.AddClause(l) }

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return f.clauses }

// NumLits returns the number of literals over all clauses.
func (f *Formula) NumLits() int { return f.lits }

// Each calls visit with every clause, in order, read in place: a
// Clause it is given is a slice of the store, capped at its end, so an
// append to it copies. A reader that is done early ignores the rest.
// Each is a callback, not a cursor, so that it stays small enough to
// inline with visit: the walk then keeps its place in registers, where
// a cursor struct's fields stay in memory (four times slower).
func (f *Formula) Each(visit func(Clause)) {
	for _, chunk := range f.chunks {
		for i := 0; i < len(chunk); {
			end := i + 1 + int(chunk[i])
			visit(Clause(chunk[i+1 : end : end]))
			i = end
		}
	}
}

// BuildClauses makes Clauses a view of every clause stored, in one
// allocation of the exact size, unless it already is one.
func (f *Formula) BuildClauses() {
	if f.Clauses != nil && len(f.Clauses) == f.clauses {
		return
	}
	f.Clauses = make([]Clause, 0, f.clauses)
	f.Each(func(c Clause) { f.Clauses = append(f.Clauses, c) })
}

// Clone returns a deep copy of the formula, its view not built.
func (f *Formula) Clone() *Formula {
	out := &Formula{NumVars: f.NumVars, clauses: f.clauses, lits: f.lits}
	all := make([]Lit, 0, f.clauses+f.lits)
	for _, c := range f.chunks {
		all = append(all, c...)
	}
	out.chunks = [][]Lit{all}
	return out
}

// Eval evaluates the formula under a complete assignment.
// assignment[v] gives the value of variable v; index 0 is unused.
func (f *Formula) Eval(assignment []bool) bool {
	holds := true
	f.Each(func(c Clause) {
		if holds {
			holds = slices.ContainsFunc(c, func(l Lit) bool { return assignment[l.Var()] != l.Neg() })
		}
	})
	return holds
}

func (f *Formula) String() string {
	var b strings.Builder
	f.Each(func(c Clause) {
		if b.Len() > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(c.String())
	})
	return b.String()
}
