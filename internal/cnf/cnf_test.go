package cnf

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	for v := Var(1); v <= 100; v++ {
		pos, neg := PosLit(v), NegLit(v)
		if pos.Var() != v || neg.Var() != v {
			t.Fatalf("Var round-trip failed for %d", v)
		}
		if pos.Neg() || !neg.Neg() {
			t.Fatalf("polarity wrong for %d", v)
		}
		if pos.Not() != neg || neg.Not() != pos {
			t.Fatalf("Not wrong for %d", v)
		}
		if pos.Dimacs() != int(v) || neg.Dimacs() != -int(v) {
			t.Fatalf("Dimacs wrong for %d", v)
		}
		if FromDimacs(pos.Dimacs()) != pos || FromDimacs(neg.Dimacs()) != neg {
			t.Fatalf("FromDimacs round-trip failed for %d", v)
		}
	}
}

func TestMkLitPanicsOnInvalidVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for variable 0")
		}
	}()
	MkLit(0, false)
}

func TestLitIndexDense(t *testing.T) {
	seen := map[int]bool{}
	for v := Var(1); v <= 50; v++ {
		for _, l := range []Lit{PosLit(v), NegLit(v)} {
			if seen[int(l)] || int(l) >= 2*int(v)+2 {
				t.Fatalf("literal %v as index %d: taken, or past 2v+1", l, int(l))
			}
			seen[int(l)] = true
		}
	}
}

func TestFormulaEval(t *testing.T) {
	f := New()
	f.AddClause(PosLit(1), PosLit(2))
	f.AddClause(NegLit(1))
	assign := []bool{false, false, true}
	if !f.Eval(assign) {
		t.Fatal("expected satisfied")
	}
	assign = []bool{false, true, false}
	if f.Eval(assign) {
		t.Fatal("expected falsified")
	}
}

func TestDimacsRoundTrip(t *testing.T) {
	f := New()
	f.AddClause(PosLit(1), NegLit(2), PosLit(3))
	f.AddClause(NegLit(1))
	f.AddClause(PosLit(2), PosLit(3))
	var buf bytes.Buffer
	if err := WriteDimacs(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadDimacs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || len(g.Clauses) != len(f.Clauses) {
		t.Fatalf("round-trip mismatch: %d/%d vars, %d/%d clauses",
			g.NumVars, f.NumVars, len(g.Clauses), len(f.Clauses))
	}
	for i := range f.Clauses {
		if len(f.Clauses[i]) != len(g.Clauses[i]) {
			t.Fatalf("clause %d length mismatch", i)
		}
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d literal %d mismatch", i, j)
			}
		}
	}
}

func TestDimacsRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		f := New()
		nv := 1 + rng.Intn(30)
		nc := rng.Intn(60)
		for i := 0; i < nc; i++ {
			var c []Lit
			for j := 0; j <= rng.Intn(5); j++ {
				c = append(c, MkLit(Var(1+rng.Intn(nv)), rng.Intn(2) == 0))
			}
			f.AddClause(c...)
		}
		var buf bytes.Buffer
		if err := WriteDimacs(&buf, f); err != nil {
			t.Fatal(err)
		}
		g, err := ReadDimacs(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Clauses) != len(f.Clauses) {
			t.Fatalf("iter %d: clause count mismatch", iter)
		}
	}
}

func TestDimacsComments(t *testing.T) {
	in := "c a comment\np cnf 3 2\n1 -2 0\nc mid comment\n2 3 0\n"
	f, err := ReadDimacs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("got %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
}

func TestDimacsErrors(t *testing.T) {
	cases := []string{
		"p cnf x 2\n1 0\n",
		"p cnf 3\n",
		"p cnf 3 1\n1 z 0\n",
		"p cnf 3 5\n1 0\n", // wrong clause count
		"p cnf 1 1\n5 0\n", // var beyond declared
	}
	for i, in := range cases {
		if _, err := ReadDimacs(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestDimacsMissingFinalZero(t *testing.T) {
	in := "p cnf 2 1\n1 -2\n"
	f, err := ReadDimacs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 1 || len(f.Clauses[0]) != 2 {
		t.Fatal("final clause without terminator not parsed")
	}
}

// evalGate checks the builder's gates against Go's Boolean operators by
// brute-force enumeration over the inputs.
func TestBuilderGatesExhaustive(t *testing.T) {
	type gate struct {
		name  string
		build func(b *Builder, x, y Lit) Lit
		eval  func(x, y bool) bool
	}
	gates := []gate{
		{"and", func(b *Builder, x, y Lit) Lit { return b.And(x, y) }, func(x, y bool) bool { return x && y }},
		{"or", func(b *Builder, x, y Lit) Lit { return b.Or(x, y) }, func(x, y bool) bool { return x || y }},
		{"xor", func(b *Builder, x, y Lit) Lit { return b.Xor(x, y) }, func(x, y bool) bool { return x != y }},
		{"xnor", func(b *Builder, x, y Lit) Lit { return b.Xnor(x, y) }, func(x, y bool) bool { return x == y }},
		{"implies", func(b *Builder, x, y Lit) Lit { return b.Implies(x, y) }, func(x, y bool) bool { return !x || y }},
	}
	for _, g := range gates {
		for xv := 0; xv < 2; xv++ {
			for yv := 0; yv < 2; yv++ {
				b := NewBuilder()
				x, y := b.Fresh(), b.Fresh()
				out := g.build(b, x, y)
				// Force the inputs and the expected output; the formula
				// must be satisfiable.
				b.Assert(litWithValue(x, xv == 1))
				b.Assert(litWithValue(y, yv == 1))
				want := g.eval(xv == 1, yv == 1)
				b.Assert(litWithValue(out, want))
				if !bruteForceSat(b.Finish()) {
					t.Fatalf("%s(%d,%d): expected %v to be consistent", g.name, xv, yv, want)
				}
				// And the opposite output value must be unsatisfiable.
				b2 := NewBuilder()
				x2, y2 := b2.Fresh(), b2.Fresh()
				out2 := g.build(b2, x2, y2)
				b2.Assert(litWithValue(x2, xv == 1))
				b2.Assert(litWithValue(y2, yv == 1))
				b2.Assert(litWithValue(out2, !want))
				if bruteForceSat(b2.Finish()) {
					t.Fatalf("%s(%d,%d): wrong output value satisfiable", g.name, xv, yv)
				}
			}
		}
	}
}

func TestBuilderIteExhaustive(t *testing.T) {
	for c := 0; c < 2; c++ {
		for tv := 0; tv < 2; tv++ {
			for ev := 0; ev < 2; ev++ {
				b := NewBuilder()
				cc, tt, ee := b.Fresh(), b.Fresh(), b.Fresh()
				out := b.Ite(cc, tt, ee)
				b.Assert(litWithValue(cc, c == 1))
				b.Assert(litWithValue(tt, tv == 1))
				b.Assert(litWithValue(ee, ev == 1))
				want := ev == 1
				if c == 1 {
					want = tv == 1
				}
				b.Assert(litWithValue(out, want))
				if !bruteForceSat(b.Finish()) {
					t.Fatalf("ite(%d,%d,%d) inconsistent", c, tv, ev)
				}
			}
		}
	}
}

func TestBuilderConstantFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Fresh()
	if b.And(b.True(), x) != x {
		t.Fatal("And(true,x) != x")
	}
	if b.And(b.False(), x) != b.False() {
		t.Fatal("And(false,x) != false")
	}
	if b.Or(b.True(), x) != b.True() {
		t.Fatal("Or(true,x) != true")
	}
	if b.Xor(b.False(), x) != x {
		t.Fatal("Xor(false,x) != x")
	}
	if b.Xor(x, x) != b.False() {
		t.Fatal("Xor(x,x) != false")
	}
	if b.Xor(x, x.Not()) != b.True() {
		t.Fatal("Xor(x,!x) != true")
	}
	if b.And(x, x.Not()) != b.False() {
		t.Fatal("And(x,!x) != false")
	}
	if b.Ite(b.True(), x, b.Fresh()) != x {
		t.Fatal("Ite(true,x,y) != x")
	}
	if v, ok := b.IsConst(b.True()); !ok || !v {
		t.Fatal("IsConst(true) wrong")
	}
	if v, ok := b.IsConst(b.False()); !ok || v {
		t.Fatal("IsConst(false) wrong")
	}
	if _, ok := b.IsConst(x); ok {
		t.Fatal("IsConst(x) wrong")
	}
}

func TestBuilderStructuralHashing(t *testing.T) {
	b := NewBuilder()
	x, y := b.Fresh(), b.Fresh()
	if b.And(x, y) != b.And(y, x) {
		t.Fatal("And not hashed symmetrically")
	}
	if b.Xor(x, y) != b.Xor(y, x) {
		t.Fatal("Xor not hashed symmetrically")
	}
	if b.Xor(x.Not(), y) != b.Xor(x, y).Not() {
		t.Fatal("Xor phase canonicalisation broken")
	}
	before := b.Fresh()
	b.And(x, y)
	b.Xor(x, y)
	if b.Fresh().Var() != before.Var()+1 {
		t.Fatal("cache miss on repeated gate")
	}
}

func litWithValue(l Lit, v bool) Lit {
	if v {
		return l
	}
	return l.Not()
}

// bruteForceSat decides satisfiability by enumeration; only usable for
// formulas with few variables.
func bruteForceSat(f *Formula) bool {
	n := f.NumVars
	if n > 22 {
		panic("bruteForceSat: too many variables")
	}
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

// sameClauses requires f to hold exactly the clauses of want, in order,
// with counts to match.
func sameClauses(t *testing.T, f *Formula, want [][]Lit) {
	t.Helper()
	lits := 0
	for _, c := range want {
		lits += len(c)
	}
	if len(f.Clauses) != len(want) || f.NumClauses() != len(want) || f.NumLits() != lits {
		t.Fatalf("%d clauses in view, NumClauses %d, NumLits %d; want %d clauses of %d literals",
			len(f.Clauses), f.NumClauses(), f.NumLits(), len(want), lits)
	}
	for i, c := range want {
		if !reflect.DeepEqual([]Lit(f.Clauses[i]), append([]Lit{}, c...)) {
			t.Fatalf("clause %d is %v, want %v", i, f.Clauses[i], c)
		}
	}
}

// The literals are copied: the caller's slice is its own again once
// AddClause returns.
func TestAddClauseCopiesItsArgument(t *testing.T) {
	f := New()
	lits := []Lit{PosLit(1), NegLit(2)}
	f.AddClause(lits...)
	var before bytes.Buffer
	if err := WriteDimacs(&before, f); err != nil {
		t.Fatal(err)
	}
	lits[0], lits[1] = NegLit(7), NegLit(1)
	sameClauses(t, f, [][]Lit{{PosLit(1), NegLit(2)}})
	if f.NumVars != 2 || !f.Eval([]bool{false, true, true}) || f.Eval([]bool{false, false, true}) {
		t.Fatalf("formula changed with the caller's slice: %v", f)
	}
	var after bytes.Buffer
	if err := WriteDimacs(&after, f); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() || after.String() != "p cnf 2 1\n1 -2 0\n" {
		t.Fatalf("DIMACS changed with the caller's slice:\n%s", after.String())
	}
}

// The store against a plain list of slices, across many chunks: empty
// clauses, a clause longer than a chunk, clauses taken before later ones
// arrive, and a clone that shares nothing with its original.
func TestStoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := New()
	var want [][]Lit
	var early []Clause
	for i := 0; i < 40000; i++ {
		n := rng.Intn(6)
		if i == 1000 {
			n = 3 * minChunk
		}
		c := make([]Lit, n)
		for j := range c {
			c[j] = MkLit(Var(1+rng.Intn(50)), rng.Intn(2) == 0)
		}
		f.AddClause(c...)
		want = append(want, c)
		if i%997 == 0 {
			early = append(early, f.Clauses[i])
		}
	}
	sameClauses(t, f, want)
	for k, c := range early {
		if !reflect.DeepEqual([]Lit(c), append([]Lit{}, want[k*997]...)) {
			t.Fatalf("clause %d taken early changed to %v", k*997, c)
		}
	}
	var buf bytes.Buffer
	if err := WriteDimacs(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadDimacs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameClauses(t, g, want)

	clone := f.Clone()
	sameClauses(t, clone, want)
	clone.AddClause(PosLit(60))
	clone.Clauses[0] = append(clone.Clauses[0], PosLit(61)) // must not reach a neighbour
	if len(want[1]) > 0 {
		clone.Clauses[1][0] = NegLit(62)
	}
	sameClauses(t, f, want)
	if f.NumVars != 50 || clone.NumVars != 60 {
		t.Fatalf("NumVars %d and %d, want 50 and 60", f.NumVars, clone.NumVars)
	}
}

// mapBuilder is the builder this package had before the gate table: a Go
// map per gate kind and a slice per clause. It stays as the oracle that
// Builder must agree with literal for literal and clause for clause.
type mapBuilder struct {
	numVars  int
	clauses  [][]Lit
	and, xor map[[2]Lit]Lit
}

func newMapBuilder() *mapBuilder {
	b := &mapBuilder{and: map[[2]Lit]Lit{}, xor: map[[2]Lit]Lit{}}
	b.add(b.Fresh())
	return b
}

func (b *mapBuilder) add(lits ...Lit) { b.clauses = append(b.clauses, lits) }
func (b *mapBuilder) True() Lit       { return PosLit(1) }
func (b *mapBuilder) False() Lit      { return NegLit(1) }
func (b *mapBuilder) Fresh() Lit      { b.numVars++; return PosLit(Var(b.numVars)) }

func (b *mapBuilder) And(x, y Lit) Lit {
	if x == b.False() || y == b.False() || x == y.Not() {
		return b.False()
	}
	if x == b.True() {
		return y
	}
	if y == b.True() || x == y {
		return x
	}
	key := [2]Lit{min(x, y), max(x, y)}
	if g, ok := b.and[key]; ok {
		return g
	}
	g := b.Fresh()
	b.add(g.Not(), x)
	b.add(g.Not(), y)
	b.add(g, x.Not(), y.Not())
	b.and[key] = g
	return g
}

func (b *mapBuilder) Or(x, y Lit) Lit { return b.And(x.Not(), y.Not()).Not() }

func (b *mapBuilder) Xor(x, y Lit) Lit {
	switch {
	case x == b.False():
		return y
	case y == b.False():
		return x
	case x == b.True():
		return y.Not()
	case y == b.True():
		return x.Not()
	case x == y:
		return b.False()
	case x == y.Not():
		return b.True()
	}
	flip := x.Neg() != y.Neg()
	x, y = PosLit(x.Var()), PosLit(y.Var())
	key := [2]Lit{min(x, y), max(x, y)}
	g, ok := b.xor[key]
	if !ok {
		g = b.Fresh()
		b.add(g.Not(), x, y)
		b.add(g.Not(), x.Not(), y.Not())
		b.add(g, x, y.Not())
		b.add(g, x.Not(), y)
		b.xor[key] = g
	}
	if flip {
		return g.Not()
	}
	return g
}

func (b *mapBuilder) Ite(cond, t, e Lit) Lit {
	switch {
	case cond == b.True():
		return t
	case cond == b.False():
		return e
	case t == e:
		return t
	case t == e.Not():
		return b.Xor(cond, t).Not()
	case t == b.True():
		return b.Or(cond, e)
	case t == b.False():
		return b.And(cond.Not(), e)
	case e == b.True():
		return b.Or(cond.Not(), t)
	case e == b.False():
		return b.And(cond, t)
	}
	return b.Or(b.And(cond, t), b.And(cond.Not(), e))
}

func (b *mapBuilder) Assert(l Lit) {
	if l != b.True() {
		b.add(l)
	}
}

// Property: over any sequence of gate calls — constants, repeats and
// complements among the operands, enough new gates for the table to
// double several times and the clauses to fill several chunks — Builder
// returns what the map-based builder returns at every step, ends with
// the same clauses, and its gate rows are the maps' entries.
func TestBuilderAgreesWithMapBuilder(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, o := NewBuilder(), newMapBuilder()
		pool := []Lit{b.True(), b.False()}
		for len(pool) < 4+int(seed)*8 {
			x, y := b.Fresh(), o.Fresh()
			if x != y {
				t.Fatalf("Fresh: %v, oracle %v", x, y)
			}
			pool = append(pool, x)
		}
		pick := func() Lit {
			l := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		steps := 500 << uint(seed)
		for i := 0; i < steps; i++ {
			x, y, z := pick(), pick(), pick()
			var got, want Lit
			switch op := rng.Intn(9); op {
			case 0, 1:
				got, want = b.And(x, y), o.And(x, y)
			case 2, 3:
				got, want = b.Or(x, y), o.Or(x, y)
			case 4, 5:
				got, want = b.Xor(x, y), o.Xor(x, y)
			case 6, 7:
				got, want = b.Ite(x, y, z), o.Ite(x, y, z)
			default:
				b.Assert(x)
				o.Assert(x)
				continue
			}
			if got != want {
				t.Fatalf("seed %d step %d: %v, oracle %v", seed, i, got, want)
			}
			// A small pool keeps repeats likely; a growing one keeps new
			// gates coming.
			if rng.Intn(3) == 0 {
				pool = append(pool, got)
			} else {
				pool[2+rng.Intn(len(pool)-2)] = got
			}
		}
		for v := Var(1); int(v) <= o.numVars; v++ {
			kind, x, y := b.Gate(v)
			key := [2]Lit{x, y}
			switch {
			case kind == GateAnd && o.and[key] == PosLit(v):
				delete(o.and, key)
			case kind == GateXor && o.xor[key] == PosLit(v):
				delete(o.xor, key)
			case kind != GateNone:
				t.Fatalf("seed %d: Gate(%d) = %d %v %v, not in the oracle", seed, v, kind, x, y)
			}
		}
		if len(o.and)+len(o.xor) != 0 {
			t.Fatalf("seed %d: %d gates of the oracle have no row", seed, len(o.and)+len(o.xor))
		}
		f := b.Finish()
		if f.NumVars != o.numVars {
			t.Fatalf("seed %d: %d variables, oracle %d", seed, f.NumVars, o.numVars)
		}
		sameClauses(t, f, o.clauses)
		if seed == 5 && (f.NumVars < 2000 || len(f.chunks) < 4) {
			t.Fatalf("largest run made %d variables in %d chunks: too small to grow the table", f.NumVars, len(f.chunks))
		}
	}
}
