package bv

import (
	"testing"

	"repro/internal/sat"
)

// proveEquivalent checks x ≡ y by asserting x ≠ y and expecting UNSAT:
// SAT-based verification of the circuit constructors' algebraic laws.
func proveEquivalent(t *testing.T, name string, c *Ctx, x, y Vec) {
	t.Helper()
	c.B.Assert(c.Ne(x, y))
	s := sat.NewFromFormula(c.B.Finish(), sat.Options{})
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != sat.Unsat {
		t.Fatalf("%s: found counterexample to the law", name)
	}
}

func TestAddCommutative(t *testing.T) {
	c := NewCtx()
	a, b := c.Input(6), c.Input(6)
	proveEquivalent(t, "a+b = b+a", c, c.Add(a, b), c.Add(b, a))
}

func TestAddAssociative(t *testing.T) {
	c := NewCtx()
	a, b, d := c.Input(5), c.Input(5), c.Input(5)
	proveEquivalent(t, "(a+b)+d = a+(b+d)", c, c.Add(c.Add(a, b), d), c.Add(a, c.Add(b, d)))
}

func TestMulCommutative(t *testing.T) {
	c := NewCtx()
	a, b := c.Input(5), c.Input(5)
	proveEquivalent(t, "a*b = b*a", c, c.Mul(a, b), c.Mul(b, a))
}

func TestMulDistributesOverAdd(t *testing.T) {
	c := NewCtx()
	a, b, d := c.Input(4), c.Input(4), c.Input(4)
	proveEquivalent(t, "a*(b+d) = a*b+a*d", c,
		c.Mul(a, c.Add(b, d)), c.Add(c.Mul(a, b), c.Mul(a, d)))
}

func TestSubIsAddNeg(t *testing.T) {
	c := NewCtx()
	a, b := c.Input(6), c.Input(6)
	proveEquivalent(t, "a-b = a+(-b)", c, c.Sub(a, b), c.Add(a, c.Neg(b)))
}

func TestNegInvolution(t *testing.T) {
	c := NewCtx()
	a := c.Input(7)
	proveEquivalent(t, "-(-a) = a", c, c.Neg(c.Neg(a)), a)
}

func TestShlIsMulByPowerOfTwo(t *testing.T) {
	c := NewCtx()
	a := c.Input(6)
	proveEquivalent(t, "a<<2 = a*4", c, c.ShlConst(a, 2), c.Mul(a, c.Const(4, 6)))
}

func TestDeMorgan(t *testing.T) {
	c := NewCtx()
	a, b := c.Input(6), c.Input(6)
	proveEquivalent(t, "~(a&b) = ~a|~b", c, c.Not(c.And(a, b)), c.Or(c.Not(a), c.Not(b)))
}

func TestXorSelfCancels(t *testing.T) {
	c := NewCtx()
	a, b := c.Input(6), c.Input(6)
	proveEquivalent(t, "(a^b)^b = a", c, c.Xor(c.Xor(a, b), b), a)
}

func TestComparatorDuality(t *testing.T) {
	// a < b ↔ ¬(b <= a), signed and unsigned.
	c := NewCtx()
	a, b := c.Input(6), c.Input(6)
	lt := c.Slt(a, b)
	ge := c.Sle(b, a)
	c.B.Assert(c.B.Xnor(lt, ge.Not()).Not()) // assert they differ
	s := sat.NewFromFormula(c.B.Finish(), sat.Options{})
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != sat.Unsat {
		t.Fatal("signed comparator duality violated")
	}
}

// store returns a new array equal to array except position index holds
// value: the symbolic array write package vc makes, without its enable
// literal.
func store(c *Ctx, array []Vec, index Vec, value Vec) []Vec {
	out := make([]Vec, len(array))
	for i, elem := range array {
		hit := c.Eq(index, c.Const(int64(i), len(index)))
		out[i] = c.Ite(hit, value, elem)
	}
	return out
}

func TestStoreSelectAxiom(t *testing.T) {
	// select(store(a, i, v), i) = v for in-range symbolic i.
	c := NewCtx()
	arr := []Vec{c.Input(4), c.Input(4), c.Input(4)}
	i := c.Input(4)
	v := c.Input(4)
	c.B.Assert(c.Ult(i, c.Const(3, 4)))
	stored := store(c, arr, i, v)
	got := c.Select(stored, i, c.Const(0, 4))
	proveEquivalent(t, "read-over-write", c, got, v)
}
