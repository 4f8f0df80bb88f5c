package cnf

// Builder incrementally constructs a CNF formula via Tseitin encoding of
// Boolean gates. It provides constant literals, structural hashing of
// gates, and small-gate simplifications, so that identical sub-circuits
// share propositional variables.
type Builder struct {
	f *Formula

	trueLit Lit // literal constrained to be true

	// gates[v] defines variable v: kind GateNone for an input. index is
	// the structural hash over it, open-addressed and at most half full:
	// a slot holds the variable of a gate (0: empty) and is compared
	// through gates.
	gates []gate
	index []uint32
}

// GateKind says what a variable of a Builder stands for.
type GateKind uint8

const (
	GateNone GateKind = iota // an input: Fresh, or the constant
	GateAnd                  // v ↔ x ∧ y
	GateXor                  // v ↔ x ⊕ y, x and y positive
)

type gate struct {
	x, y uint32 // x < y
	kind GateKind
}

// NewBuilder returns a Builder over a fresh formula with a dedicated
// constant-true variable.
func NewBuilder() *Builder {
	b := &Builder{f: New(), gates: make([]gate, 1, 64), index: make([]uint32, 64)}
	b.trueLit = b.Fresh()
	b.f.push(b.trueLit)
	return b
}

// Finish returns the formula, its Clauses built, and ends the building:
// the formula is the caller's alone from here on, and the structural
// hash is let go with it. What remains are the constants and Gate.
func (b *Builder) Finish() *Formula {
	f := b.f
	f.view()
	b.f, b.index = nil, nil
	return f
}

// Gate returns the definition of v: its kind and, unless that is
// GateNone, its two inputs.
func (b *Builder) Gate(v Var) (kind GateKind, x, y Lit) {
	g := b.gates[v]
	return g.kind, Lit(g.x), Lit(g.y)
}

// gate returns the literal of the gate (kind, x, y), x < y, and whether
// this call introduced it — its clauses are then the caller's to add.
func (b *Builder) gate(kind GateKind, x, y Lit) (Lit, bool) {
	want := gate{uint32(x), uint32(y), kind}
	slot := b.find(want)
	if v := b.index[slot]; v != 0 {
		return Lit(v << 1), false
	}
	g := b.Fresh()
	b.gates[g.Var()] = want
	b.index[slot] = uint32(g.Var())
	if 2*len(b.gates) > len(b.index) {
		b.index = make([]uint32, 2*len(b.index))
		for v, g := range b.gates {
			if g.kind != GateNone {
				b.index[b.find(g)] = uint32(v)
			}
		}
	}
	return g, true
}

// find returns the slot of the index that holds want, or the empty one
// where it belongs.
func (b *Builder) find(want gate) uint32 {
	mask := uint32(len(b.index) - 1)
	slot := want.hash() & mask
	for b.index[slot] != 0 && b.gates[b.index[slot]] != want {
		slot = (slot + 1) & mask
	}
	return slot
}

func (g gate) hash() uint32 {
	h := (uint64(g.x)<<32 | uint64(g.y)) * 0x9E3779B97F4A7C15
	return uint32(h>>32) + uint32(g.kind)
}

// True returns the constant-true literal.
func (b *Builder) True() Lit { return b.trueLit }

// False returns the constant-false literal.
func (b *Builder) False() Lit { return b.trueLit.Not() }

// Fresh allocates a fresh unconstrained literal.
func (b *Builder) Fresh() Lit {
	if b.f.NumVars >= 1<<31-1 {
		panic("cnf: the gate table holds literals in 32 bits")
	}
	b.gates = append(b.gates, gate{})
	return PosLit(b.f.NewVar())
}

// IsConst reports whether l is one of the builder's constant literals,
// and its value if so.
func (b *Builder) IsConst(l Lit) (value, ok bool) {
	switch l {
	case b.trueLit:
		return true, true
	case b.trueLit.Not():
		return false, true
	}
	return false, false
}

// Not returns the complement of l.
func (b *Builder) Not(l Lit) Lit { return l.Not() }

// And returns a literal equivalent to x ∧ y.
func (b *Builder) And(x, y Lit) Lit {
	// Constant folding and trivial cases.
	if x == b.False() || y == b.False() || x == y.Not() {
		return b.False()
	}
	if x == b.True() {
		return y
	}
	if y == b.True() || x == y {
		return x
	}
	g, fresh := b.gate(GateAnd, min(x, y), max(x, y))
	if fresh {
		// g ↔ x ∧ y
		b.f.push(g.Not(), x)
		b.f.push(g.Not(), y)
		b.f.push(g, x.Not(), y.Not())
	}
	return g
}

// Or returns a literal equivalent to x ∨ y.
func (b *Builder) Or(x, y Lit) Lit {
	return b.And(x.Not(), y.Not()).Not()
}

// Xor returns a literal equivalent to x ⊕ y.
func (b *Builder) Xor(x, y Lit) Lit {
	if x == b.False() {
		return y
	}
	if y == b.False() {
		return x
	}
	if x == b.True() {
		return y.Not()
	}
	if y == b.True() {
		return x.Not()
	}
	if x == y {
		return b.False()
	}
	if x == y.Not() {
		return b.True()
	}
	// Canonicalise on positive phases: x⊕y == ¬x⊕¬y, ¬(x⊕¬y), ...
	flip := false
	if x.Neg() {
		x = x.Not()
		flip = !flip
	}
	if y.Neg() {
		y = y.Not()
		flip = !flip
	}
	g, fresh := b.gate(GateXor, min(x, y), max(x, y))
	if fresh {
		// g ↔ x ⊕ y
		b.f.push(g.Not(), x, y)
		b.f.push(g.Not(), x.Not(), y.Not())
		b.f.push(g, x, y.Not())
		b.f.push(g, x.Not(), y)
	}
	if flip {
		return g.Not()
	}
	return g
}

// Xnor returns a literal equivalent to x ↔ y.
func (b *Builder) Xnor(x, y Lit) Lit { return b.Xor(x, y).Not() }

// Ite returns a literal equivalent to cond ? t : e.
func (b *Builder) Ite(cond, t, e Lit) Lit {
	if cond == b.True() {
		return t
	}
	if cond == b.False() {
		return e
	}
	if t == e {
		return t
	}
	if t == e.Not() {
		return b.Xnor(cond, t)
	}
	if t == b.True() {
		return b.Or(cond, e)
	}
	if t == b.False() {
		return b.And(cond.Not(), e)
	}
	if e == b.True() {
		return b.Or(cond.Not(), t)
	}
	if e == b.False() {
		return b.And(cond, t)
	}
	return b.Or(b.And(cond, t), b.And(cond.Not(), e))
}

// Implies returns a literal equivalent to x → y.
func (b *Builder) Implies(x, y Lit) Lit { return b.Or(x.Not(), y) }

// AndAll folds And over the literals; an empty list yields true.
func (b *Builder) AndAll(lits ...Lit) Lit {
	out := b.True()
	for _, l := range lits {
		out = b.And(out, l)
	}
	return out
}

// OrAll folds Or over the literals; an empty list yields false.
func (b *Builder) OrAll(lits ...Lit) Lit {
	out := b.False()
	for _, l := range lits {
		out = b.Or(out, l)
	}
	return out
}

// Assert constrains l to be true in the formula.
func (b *Builder) Assert(l Lit) {
	if l == b.True() {
		return
	}
	b.f.push(l)
}
