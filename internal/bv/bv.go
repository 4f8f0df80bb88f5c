// Package bv provides word-level bit-vector circuits over a cnf.Builder,
// implementing the bit-blasting step of SAT-based BMC (paper Sect. 2.3):
// program variables are exploded into one propositional variable per bit
// and arithmetic is encoded like hardware circuits.
//
// Vectors are little-endian: bit 0 is the least significant bit. This
// matters for the paper's partitioning technique, which constrains the
// least-significant bit of the scheduled-thread identifiers (Sect. 3.3).
package bv

import (
	"fmt"

	"repro/internal/cnf"
)

// Vec is a bit-vector value: a slice of literals, least significant first.
type Vec []cnf.Lit

// Width returns the number of bits.
func (v Vec) Width() int { return len(v) }

// LSB returns the least-significant bit literal.
func (v Vec) LSB() cnf.Lit { return v[0] }

// Ctx builds bit-vector circuits over a Tseitin CNF builder.
type Ctx struct {
	B *cnf.Builder
}

// NewCtx returns a context over a fresh builder.
func NewCtx() *Ctx { return &Ctx{B: cnf.NewBuilder()} }

// Const builds a constant vector of the given width from the low bits of
// value (two's complement for negatives).
func (c *Ctx) Const(value int64, width int) Vec {
	v := make(Vec, width)
	for i := 0; i < width; i++ {
		if value&(1<<uint(i)) != 0 {
			v[i] = c.B.True()
		} else {
			v[i] = c.B.False()
		}
	}
	return v
}

// Input allocates a fresh unconstrained vector (a non-deterministic word).
func (c *Ctx) Input(width int) Vec {
	v := make(Vec, width)
	for i := range v {
		v[i] = c.B.Fresh()
	}
	return v
}

// Bool lifts a single literal to a width-1 vector.
func (c *Ctx) Bool(l cnf.Lit) Vec { return Vec{l} }

func (c *Ctx) checkSameWidth(op string, x, y Vec) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("bv: %s width mismatch %d vs %d", op, len(x), len(y)))
	}
}

// Not returns the bitwise complement.
func (c *Ctx) Not(x Vec) Vec {
	out := make(Vec, len(x))
	for i, b := range x {
		out[i] = b.Not()
	}
	return out
}

// And returns the bitwise conjunction.
func (c *Ctx) And(x, y Vec) Vec {
	c.checkSameWidth("and", x, y)
	out := make(Vec, len(x))
	for i := range x {
		out[i] = c.B.And(x[i], y[i])
	}
	return out
}

// Or returns the bitwise disjunction.
func (c *Ctx) Or(x, y Vec) Vec {
	c.checkSameWidth("or", x, y)
	out := make(Vec, len(x))
	for i := range x {
		out[i] = c.B.Or(x[i], y[i])
	}
	return out
}

// Xor returns the bitwise exclusive or.
func (c *Ctx) Xor(x, y Vec) Vec {
	c.checkSameWidth("xor", x, y)
	out := make(Vec, len(x))
	for i := range x {
		out[i] = c.B.Xor(x[i], y[i])
	}
	return out
}

// Add returns x + y (wrapping).
func (c *Ctx) Add(x, y Vec) Vec {
	c.checkSameWidth("add", x, y)
	out := make(Vec, len(x))
	carry := c.B.False()
	for i := range x {
		s := c.B.Xor(x[i], y[i])
		out[i] = c.B.Xor(s, carry)
		carry = c.B.Or(c.B.And(x[i], y[i]), c.B.And(s, carry))
	}
	return out
}

// Sub returns x - y (wrapping), via x + ¬y + 1.
func (c *Ctx) Sub(x, y Vec) Vec {
	c.checkSameWidth("sub", x, y)
	out := make(Vec, len(x))
	carry := c.B.True()
	ny := c.Not(y)
	for i := range x {
		s := c.B.Xor(x[i], ny[i])
		out[i] = c.B.Xor(s, carry)
		carry = c.B.Or(c.B.And(x[i], ny[i]), c.B.And(s, carry))
	}
	return out
}

// Neg returns two's-complement negation.
func (c *Ctx) Neg(x Vec) Vec {
	zero := c.Const(0, len(x))
	return c.Sub(zero, x)
}

// Mul returns x * y (wrapping), shift-and-add.
func (c *Ctx) Mul(x, y Vec) Vec {
	c.checkSameWidth("mul", x, y)
	w := len(x)
	acc := c.Const(0, w)
	for i := 0; i < w; i++ {
		// partial = (y[i] ? x << i : 0)
		partial := make(Vec, w)
		for j := 0; j < w; j++ {
			if j < i {
				partial[j] = c.B.False()
			} else {
				partial[j] = c.B.And(x[j-i], y[i])
			}
		}
		acc = c.Add(acc, partial)
	}
	return acc
}

// ShlConst returns x << k (filling with zeros).
func (c *Ctx) ShlConst(x Vec, k int) Vec {
	w := len(x)
	out := make(Vec, w)
	for i := 0; i < w; i++ {
		if i < k {
			out[i] = c.B.False()
		} else {
			out[i] = x[i-k]
		}
	}
	return out
}

// LshrConst returns x >> k (logical).
func (c *Ctx) LshrConst(x Vec, k int) Vec {
	w := len(x)
	out := make(Vec, w)
	for i := 0; i < w; i++ {
		if i+k < w {
			out[i] = x[i+k]
		} else {
			out[i] = c.B.False()
		}
	}
	return out
}

// Eq returns a literal for x = y.
func (c *Ctx) Eq(x, y Vec) cnf.Lit {
	c.checkSameWidth("eq", x, y)
	out := c.B.True()
	for i := range x {
		out = c.B.And(out, c.B.Xnor(x[i], y[i]))
	}
	return out
}

// Ne returns a literal for x ≠ y.
func (c *Ctx) Ne(x, y Vec) cnf.Lit { return c.Eq(x, y).Not() }

// Ult returns a literal for unsigned x < y.
func (c *Ctx) Ult(x, y Vec) cnf.Lit {
	c.checkSameWidth("ult", x, y)
	lt := c.B.False()
	for i := 0; i < len(x); i++ {
		bitLt := c.B.And(x[i].Not(), y[i])
		bitEq := c.B.Xnor(x[i], y[i])
		lt = c.B.Or(bitLt, c.B.And(bitEq, lt))
	}
	return lt
}

// Ule returns a literal for unsigned x ≤ y.
func (c *Ctx) Ule(x, y Vec) cnf.Lit { return c.Ult(y, x).Not() }

// Slt returns a literal for signed (two's complement) x < y.
func (c *Ctx) Slt(x, y Vec) cnf.Lit {
	c.checkSameWidth("slt", x, y)
	w := len(x)
	if w == 1 {
		// Signed 1-bit: -1 < 0, i.e. x=1 ∧ y=0.
		return c.B.And(x[0], y[0].Not())
	}
	sx, sy := x[w-1], y[w-1]
	// Different signs: x < y iff x negative.
	diff := c.B.And(sx, sy.Not())
	// Same sign: compare remaining bits unsigned.
	sameSignLt := c.Ult(x[:w-1], y[:w-1])
	same := c.B.Xnor(sx, sy)
	return c.B.Or(diff, c.B.And(same, sameSignLt))
}

// Sle returns a literal for signed x ≤ y.
func (c *Ctx) Sle(x, y Vec) cnf.Lit { return c.Slt(y, x).Not() }

// Ite returns cond ? x : y bitwise.
func (c *Ctx) Ite(cond cnf.Lit, x, y Vec) Vec {
	c.checkSameWidth("ite", x, y)
	out := make(Vec, len(x))
	for i := range x {
		out[i] = c.B.Ite(cond, x[i], y[i])
	}
	return out
}

// IsZero returns a literal for x = 0.
func (c *Ctx) IsZero(x Vec) cnf.Lit {
	any := c.B.False()
	for _, b := range x {
		any = c.B.Or(any, b)
	}
	return any.Not()
}

// NonZero returns a literal for x ≠ 0 (the C truth value of x).
func (c *Ctx) NonZero(x Vec) cnf.Lit { return c.IsZero(x).Not() }

// Extend returns x zero- or sign-extended to width w (or truncated).
func (c *Ctx) Extend(x Vec, w int, signed bool) Vec {
	if len(x) == w {
		return x
	}
	if len(x) > w {
		out := make(Vec, w)
		copy(out, x[:w])
		return out
	}
	out := make(Vec, w)
	copy(out, x)
	fill := c.B.False()
	if signed {
		fill = x[len(x)-1]
	}
	for i := len(x); i < w; i++ {
		out[i] = fill
	}
	return out
}

// Select returns array[index] where array is a slice of equal-width
// vectors and index is a bit-vector; out-of-range indices select def.
// Encoded as a chain of multiplexers (symbolic array read).
func (c *Ctx) Select(array []Vec, index Vec, def Vec) Vec {
	out := def
	for i, elem := range array {
		hit := c.Eq(index, c.Const(int64(i), len(index)))
		out = c.Ite(hit, elem, out)
	}
	return out
}

// EvalVec decodes the unsigned value of a vector under a model
// (model[v-1] = value of variable v); constants are resolved through
// the builder.
func (c *Ctx) EvalVec(v Vec, model []bool) uint64 {
	var out uint64
	for i, b := range v {
		val := c.EvalLit(b, model)
		if val {
			out |= 1 << uint(i)
		}
	}
	return out
}

// EvalSigned decodes the signed (two's complement) value of a vector.
func (c *Ctx) EvalSigned(v Vec, model []bool) int64 {
	u := c.EvalVec(v, model)
	w := uint(len(v))
	if w < 64 && u&(1<<(w-1)) != 0 {
		return int64(u) - int64(1)<<w
	}
	return int64(u)
}

// EvalLit decodes a literal under a model.
func (c *Ctx) EvalLit(l cnf.Lit, model []bool) bool {
	if val, ok := c.B.IsConst(l); ok {
		return val
	}
	v := model[l.Var()-1]
	if l.Neg() {
		return !v
	}
	return v
}
