package bv

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// solveWith constrains the inputs via equality assertions, solves, and
// returns the model. The formula must be satisfiable.
func solveWith(t *testing.T, c *Ctx) []bool {
	t.Helper()
	s := sat.NewFromFormula(c.B.Finish(), sat.Options{})
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != sat.Sat {
		t.Fatal("constraint system unexpectedly UNSAT")
	}
	return s.Model()
}

func mask(w int) uint64 { return (1 << uint(w)) - 1 }

// TestArithmeticOnConstants exercises constant folding: every operation on
// constant vectors must yield the correct constant without solving.
func TestArithmeticOnConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		w := 1 + rng.Intn(12)
		a := rng.Uint64() & mask(w)
		b := rng.Uint64() & mask(w)
		c := NewCtx()
		x, y := c.Const(int64(a), w), c.Const(int64(b), w)
		model := []bool{} // constants need no model
		checks := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"add", c.EvalVec(c.Add(x, y), model), (a + b) & mask(w)},
			{"sub", c.EvalVec(c.Sub(x, y), model), (a - b) & mask(w)},
			{"mul", c.EvalVec(c.Mul(x, y), model), (a * b) & mask(w)},
			{"and", c.EvalVec(c.And(x, y), model), a & b},
			{"or", c.EvalVec(c.Or(x, y), model), a | b},
			{"xor", c.EvalVec(c.Xor(x, y), model), a ^ b},
			{"not", c.EvalVec(c.Not(x), model), ^a & mask(w)},
			{"neg", c.EvalVec(c.Neg(x), model), (-a) & mask(w)},
		}
		for _, ch := range checks {
			if ch.got != ch.want {
				t.Fatalf("iter %d w=%d a=%d b=%d: %s got %d want %d",
					iter, w, a, b, ch.name, ch.got, ch.want)
			}
		}
		boolChecks := []struct {
			name string
			got  bool
			want bool
		}{
			{"eq", c.EvalLit(c.Eq(x, y), model), a == b},
			{"ne", c.EvalLit(c.Ne(x, y), model), a != b},
			{"ult", c.EvalLit(c.Ult(x, y), model), a < b},
			{"ule", c.EvalLit(c.Ule(x, y), model), a <= b},
			{"iszero", c.EvalLit(c.IsZero(x), model), a == 0},
		}
		for _, ch := range boolChecks {
			if ch.got != ch.want {
				t.Fatalf("iter %d w=%d a=%d b=%d: %s got %v want %v",
					iter, w, a, b, ch.name, ch.got, ch.want)
			}
		}
		sa := int64(a)
		sb := int64(b)
		if w < 64 {
			if a&(1<<uint(w-1)) != 0 {
				sa -= 1 << uint(w)
			}
			if b&(1<<uint(w-1)) != 0 {
				sb -= 1 << uint(w)
			}
		}
		if got := c.EvalLit(c.Slt(x, y), model); got != (sa < sb) {
			t.Fatalf("iter %d w=%d a=%d(%d) b=%d(%d): slt got %v", iter, w, a, sa, b, sb, got)
		}
		if got := c.EvalLit(c.Sle(x, y), model); got != (sa <= sb) {
			t.Fatalf("iter %d: sle wrong", iter)
		}
		if got := c.EvalSigned(x, model); got != sa {
			t.Fatalf("iter %d: EvalSigned got %d want %d", iter, got, sa)
		}
	}
}

// TestArithmeticSymbolic drives the same operations through the SAT solver
// with unconstrained inputs forced to random values by unit assertions,
// exercising the Tseitin clauses rather than constant folding.
func TestArithmeticSymbolic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		w := 1 + rng.Intn(8)
		a := rng.Uint64() & mask(w)
		b := rng.Uint64() & mask(w)
		c := NewCtx()
		x, y := c.Input(w), c.Input(w)
		add := c.Add(x, y)
		sub := c.Sub(x, y)
		mul := c.Mul(x, y)
		ult := c.Ult(x, y)
		eq := c.Eq(x, y)
		c.B.Assert(c.Eq(x, c.Const(int64(a), w)))
		c.B.Assert(c.Eq(y, c.Const(int64(b), w)))
		model := solveWith(t, c)
		if got := c.EvalVec(add, model); got != (a+b)&mask(w) {
			t.Fatalf("iter %d: add got %d want %d", iter, got, (a+b)&mask(w))
		}
		if got := c.EvalVec(sub, model); got != (a-b)&mask(w) {
			t.Fatalf("iter %d: sub wrong", iter)
		}
		if got := c.EvalVec(mul, model); got != (a*b)&mask(w) {
			t.Fatalf("iter %d: mul wrong", iter)
		}
		if got := c.EvalLit(ult, model); got != (a < b) {
			t.Fatalf("iter %d: ult wrong", iter)
		}
		if got := c.EvalLit(eq, model); got != (a == b) {
			t.Fatalf("iter %d: eq wrong", iter)
		}
	}
}

func TestShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		w := 1 + rng.Intn(12)
		a := rng.Uint64() & mask(w)
		k := rng.Intn(w + 2)
		c := NewCtx()
		x := c.Const(int64(a), w)
		if got := c.EvalVec(c.ShlConst(x, k), nil); got != (a<<uint(k))&mask(w) {
			t.Fatalf("shl w=%d a=%d k=%d: got %d", w, a, k, got)
		}
		if got := c.EvalVec(c.LshrConst(x, k), nil); got != a>>uint(k) {
			t.Fatalf("lshr w=%d a=%d k=%d: got %d", w, a, k, got)
		}
	}
}

func TestIteVec(t *testing.T) {
	c := NewCtx()
	x := c.Const(5, 4)
	y := c.Const(9, 4)
	if got := c.EvalVec(c.Ite(c.B.True(), x, y), nil); got != 5 {
		t.Fatalf("ite true: %d", got)
	}
	if got := c.EvalVec(c.Ite(c.B.False(), x, y), nil); got != 9 {
		t.Fatalf("ite false: %d", got)
	}
}

func TestExtend(t *testing.T) {
	c := NewCtx()
	x := c.Const(0b1010, 4)
	if got := c.EvalVec(c.Extend(x, 8, false), nil); got != 0b1010 {
		t.Fatalf("zext: %d", got)
	}
	if got := c.EvalVec(c.Extend(x, 8, true), nil); got != 0b11111010 {
		t.Fatalf("sext: %d", got)
	}
	if got := c.EvalVec(c.Extend(x, 2, false), nil); got != 0b10 {
		t.Fatalf("trunc: %d", got)
	}
	if got := c.EvalVec(c.Extend(x, 4, true), nil); got != 0b1010 {
		t.Fatalf("same width: %d", got)
	}
}

func TestSelectStore(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		w := 4
		n := 1 + rng.Intn(6)
		vals := make([]uint64, n)
		c := NewCtx()
		arr := make([]Vec, n)
		for i := range arr {
			vals[i] = rng.Uint64() & mask(w)
			arr[i] = c.Const(int64(vals[i]), w)
		}
		idx := rng.Intn(n)
		idxVec := c.Const(int64(idx), 4)
		def := c.Const(15, w)
		if got := c.EvalVec(c.Select(arr, idxVec, def), nil); got != vals[idx] {
			t.Fatalf("select: got %d want %d", got, vals[idx])
		}
		// Out-of-range select yields default.
		oob := c.Const(int64(n), 4)
		if got := c.EvalVec(c.Select(arr, oob, def), nil); got != 15 {
			t.Fatalf("oob select: got %d", got)
		}
		// Store then select round-trips.
		newVal := rng.Uint64() & mask(w)
		arr2 := c.Store(arr, idxVec, c.Const(int64(newVal), w))
		if got := c.EvalVec(c.Select(arr2, idxVec, def), nil); got != newVal {
			t.Fatalf("store/select: got %d want %d", got, newVal)
		}
		// Other positions unchanged.
		for i := range arr {
			if i == idx {
				continue
			}
			iv := c.Const(int64(i), 4)
			if got := c.EvalVec(c.Select(arr2, iv, def), nil); got != vals[i] {
				t.Fatalf("store disturbed position %d", i)
			}
		}
	}
}

func TestSymbolicSelect(t *testing.T) {
	// A symbolic index constrained by the solver: find i such that a[i]=7.
	c := NewCtx()
	arr := []Vec{c.Const(3, 4), c.Const(7, 4), c.Const(5, 4)}
	idx := c.Input(4)
	sel := c.Select(arr, idx, c.Const(0, 4))
	c.B.Assert(c.Eq(sel, c.Const(7, 4)))
	c.B.Assert(c.Ult(idx, c.Const(3, 4)))
	model := solveWith(t, c)
	if got := c.EvalVec(idx, model); got != 1 {
		t.Fatalf("solver found index %d, want 1", got)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCtx()
	c.Add(c.Const(0, 4), c.Const(0, 5))
}

func TestVecAccessors(t *testing.T) {
	c := NewCtx()
	v := c.Const(1, 3)
	if v.Width() != 3 {
		t.Fatal("width")
	}
	if v.LSB() != c.B.True() {
		t.Fatal("lsb of 1 should be true")
	}
	b := c.Bool(c.B.True())
	if b.Width() != 1 {
		t.Fatal("bool width")
	}
}

func TestNonZero(t *testing.T) {
	c := NewCtx()
	if !c.EvalLit(c.NonZero(c.Const(4, 4)), nil) {
		t.Fatal("NonZero(4) false")
	}
	if c.EvalLit(c.NonZero(c.Const(0, 4)), nil) {
		t.Fatal("NonZero(0) true")
	}
}
