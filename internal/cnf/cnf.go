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
	"sort"
	"strings"
)

// Var identifies a propositional variable. Valid variables are >= 1.
type Var int

// Lit is a literal: a variable together with a polarity.
// The zero Lit is invalid and can be used as a sentinel.
type Lit int

// LitUndef is the invalid literal sentinel.
const LitUndef Lit = 0

// MkLit builds a literal from a variable and a sign.
// neg=false yields the positive literal v, neg=true yields ¬v.
func MkLit(v Var, neg bool) Lit {
	if v <= 0 {
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

// Index returns a dense non-negative index suitable for slice lookup.
func (l Lit) Index() int { return int(l) }

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

// Clone returns a copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Normalize sorts the clause, removes duplicate literals, and reports
// whether the clause is a tautology (contains l and ¬l).
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
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

// Formula is a propositional formula in CNF. Its literals live in a
// chunked, pointer-free store — every clause as its length followed by
// its literals, in chunks that are never copied — and Clauses is a view
// into that store.
type Formula struct {
	// NumVars is the highest variable index in use.
	NumVars int
	// Clauses is the conjunction of clauses, read-only outside this
	// package: AddClause is the one way a clause gets in. A Clause taken
	// from it stays valid and unchanged for as long as it is referenced.
	Clauses []Clause

	chunks        [][]Lit
	clauses, lits int // stored; Clauses may trail them inside this package
}

// The store's chunks double from minChunk to maxChunk words, so that a
// ten-clause formula costs 2 KB and a million-clause one some sixty
// allocations.
const (
	minChunk = 1 << 8
	maxChunk = 1 << 16
)

// New returns an empty formula.
func New() *Formula { return &Formula{} }

// NewVar allocates a fresh variable.
func (f *Formula) NewVar() Var {
	f.NumVars++
	return Var(f.NumVars)
}

// AddClause appends a copy of the clause, growing NumVars if it mentions
// a larger variable.
func (f *Formula) AddClause(lits ...Lit) {
	f.push(lits...)
	c := f.chunks[len(f.chunks)-1]
	f.Clauses = append(f.Clauses, Clause(c[len(c)-len(lits):len(c):len(c)]))
}

// push stores a clause without extending Clauses: whoever pushes owes a
// view before the formula leaves the package.
func (f *Formula) push(lits ...Lit) {
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

// view builds Clauses over the whole store, in one allocation of the
// exact size.
func (f *Formula) view() {
	f.Clauses = make([]Clause, 0, f.clauses)
	for _, c := range f.chunks {
		for i := 0; i < len(c); {
			end := i + 1 + int(c[i])
			f.Clauses = append(f.Clauses, Clause(c[i+1:end:end]))
			i = end
		}
	}
}

// AddUnit appends a unit clause.
func (f *Formula) AddUnit(l Lit) { f.AddClause(l) }

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return f.clauses }

// NumLits returns the number of literals over all clauses.
func (f *Formula) NumLits() int { return f.lits }

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	out := &Formula{NumVars: f.NumVars, clauses: f.clauses, lits: f.lits}
	all := make([]Lit, 0, f.clauses+f.lits)
	for _, c := range f.chunks {
		all = append(all, c...)
	}
	out.chunks = [][]Lit{all}
	out.view()
	return out
}

// Eval evaluates the formula under a complete assignment.
// assignment[v] gives the value of variable v; index 0 is unused.
func (f *Formula) Eval(assignment []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			v := assignment[l.Var()]
			if v != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

func (f *Formula) String() string {
	var b strings.Builder
	for i, c := range f.Clauses {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(c.String())
	}
	return b.String()
}
