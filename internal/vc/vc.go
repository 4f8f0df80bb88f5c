// Package vc generates the propositional verification condition for a
// flattened bounded multi-threaded program, combining the paper's two
// encoding stages: the sequentialization scheduler (Sect. 2.2 and the
// context-bounded variant of Fig. 5, Sect. 3.3) and SAT-based BMC
// bit-blasting (Sect. 2.3).
//
// The encoder simulates the scheduler symbolically. For every execution
// context c it introduces non-deterministic words tid[c] (the scheduled
// thread, pinned to the main thread for c = 0) and cs[c] (the context
// switch point), constrains pc[tid[c]] ≤ cs[c] ≤ size[tid[c]] and
// act[tid[c]], executes every block b of every thread t under the enable
// condition tid[c]=t ∧ pc[t] ≤ b < cs[c], and finally updates pc[tid[c]]
// to cs[c]. The resulting formula is satisfiable iff an assertion
// violation is reachable within the bounds.
//
// The propositional variables carrying the least-significant bits of the
// tid[c] words are exported: they are the variables the paper's
// partitioning constrains (Sect. 3.3, "Changes to the Bounded Model
// Checker").
package vc

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/cnf"
	"repro/internal/flatten"
	"repro/prog"
)

// Mode selects the sequentialization scheduler.
type Mode int

const (
	// ContextBounded is the paper's scheduler of Fig. 5: both the thread
	// scheduled at each context and the switch point are symbolic.
	ContextBounded Mode = iota
	// RoundRobin is the original lazy sequentialization scheduler
	// (Sect. 2.2): threads run in a fixed cyclic order; only the switch
	// points are symbolic. Used as an ablation baseline.
	RoundRobin
)

// Options configures the encoder.
type Options struct {
	// Width is the integer bit width (default 8).
	Width int
	// Contexts is the number of execution contexts (ContextBounded mode).
	Contexts int
	// Rounds is the number of round-robin rounds (RoundRobin mode); the
	// number of contexts is then Rounds * #threads.
	Rounds int
	// Mode selects the scheduler.
	Mode Mode
	// ZeroLocals initialises locals to zero instead of non-deterministic
	// values; used by differential tests against the concrete
	// interpreter. The paper's semantics (uninitialised locals) is the
	// default.
	ZeroLocals bool
}

func (o *Options) setDefaults() error {
	if o.Width == 0 {
		o.Width = 8
	}
	switch o.Mode {
	case ContextBounded:
		if o.Contexts < 1 {
			return fmt.Errorf("vc: context bound must be >= 1")
		}
	case RoundRobin:
		if o.Rounds < 1 {
			return fmt.Errorf("vc: round bound must be >= 1")
		}
	default:
		return fmt.Errorf("vc: unknown mode %d", o.Mode)
	}
	return nil
}

// NondetKey identifies one non-deterministic assignment instance.
type NondetKey struct {
	Thread, Block, Step int
}

// Encoded is the generated verification condition plus the metadata
// needed for partitioning and counterexample decoding.
type Encoded struct {
	// Program is the encoded flattened program.
	Program *flatten.Program
	// Opts echoes the encoding options.
	Opts Options
	// Ctx is the bit-vector circuit context the formula was built in:
	// what is left of it evaluates words under a model (Ctx.B is
	// finished).
	Ctx *bv.Ctx
	// Contexts is the number of encoded execution contexts.
	Contexts int

	// TidVecs[c] is the scheduled-thread word of context c (constant for
	// c = 0 and in round-robin mode).
	TidVecs []bv.Vec
	// CsVecs[c] is the context-switch point word of context c.
	CsVecs []bv.Vec
	// TidLSBs[c] is the propositional literal of the least-significant
	// bit of tid[c], or cnf.LitUndef when tid[c] is constant. These are
	// the partitioning variables of Sect. 3.3.
	TidLSBs []cnf.Lit

	// Nondet maps each non-deterministic assignment to its input word.
	Nondet map[NondetKey]bv.Vec
	// InitScalars maps each scalar local to its initial-value word
	// (only populated when locals are non-deterministic).
	InitScalars map[string]bv.Vec
	// InitArrays likewise for array locals, one word per element.
	InitArrays map[string][]bv.Vec

	formula *cnf.Formula
}

// Formula returns the CNF formula, nil after DropFormula.
func (e *Encoded) Formula() *cnf.Formula { return e.formula }

// DropFormula lets the formula go, for a caller whose solver has loaded
// it and who keeps e only to decode models.
func (e *Encoded) DropFormula() { e.formula = nil }

// env is the symbolic state during encoding.
type env struct {
	scalars map[string]bv.Vec
	arrays  map[string][]bv.Vec
	types   map[string]prog.Type
}

// Encode builds the verification condition.
func Encode(p *flatten.Program, opts Options) (*Encoded, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	w := opts.Width
	nthreads := len(p.Threads)
	if nthreads == 0 {
		return nil, fmt.Errorf("vc: program has no threads")
	}
	maxSize := p.MaxThreadSize()
	if maxSize >= 1<<uint(w) {
		return nil, fmt.Errorf("vc: thread size %d exceeds %d-bit width", maxSize, w)
	}
	if nthreads >= 1<<uint(w) {
		return nil, fmt.Errorf("vc: thread count %d exceeds %d-bit width", nthreads, w)
	}

	c := bv.NewCtx()
	enc := &encoder{
		p:    p,
		opts: opts,
		c:    c,
		out: &Encoded{
			Program:     p,
			Opts:        opts,
			Ctx:         c,
			Nondet:      map[NondetKey]bv.Vec{},
			InitScalars: map[string]bv.Vec{},
			InitArrays:  map[string][]bv.Vec{},
		},
		env: &env{
			scalars: map[string]bv.Vec{},
			arrays:  map[string][]bv.Vec{},
			types:   map[string]prog.Type{},
		},
		feasible: c.B.True(),
		violated: c.B.False(),
	}
	enc.initState()
	if err := enc.run(); err != nil {
		return nil, err
	}
	// The formula is satisfiable iff some assertion violation is
	// reachable along a feasible prefix.
	c.B.Assert(enc.violated)
	enc.out.formula = c.B.Finish()
	return enc.out, nil
}

type encoder struct {
	p    *flatten.Program
	opts Options
	c    *bv.Ctx
	out  *Encoded
	env  *env

	pcs []bv.Vec  // per thread
	act []cnf.Lit // per thread

	feasible cnf.Lit // conjunction of assumes along the prefix
	violated cnf.Lit // disjunction of reached violations
}

func (e *encoder) width() int { return e.opts.Width }

// vecWidth returns the bit width for a declared type.
func (e *encoder) vecWidth(t prog.Type) int {
	if t.Kind == prog.KindBool {
		return 1
	}
	return e.width()
}

func (e *encoder) initState() {
	declare := func(d prog.Decl, local bool) {
		e.env.types[d.Name] = d.Type
		ew := e.vecWidth(d.Type)
		if d.Type.IsArray() {
			elems := make([]bv.Vec, d.Type.ArrayLen)
			for i := range elems {
				if local && !e.opts.ZeroLocals {
					elems[i] = e.c.Input(ew)
				} else {
					elems[i] = e.c.Const(0, ew)
				}
			}
			e.env.arrays[d.Name] = elems
			if local && !e.opts.ZeroLocals {
				e.out.InitArrays[d.Name] = append([]bv.Vec(nil), elems...)
			}
			return
		}
		if local && !e.opts.ZeroLocals {
			v := e.c.Input(ew)
			e.env.scalars[d.Name] = v
			e.out.InitScalars[d.Name] = v
		} else {
			e.env.scalars[d.Name] = e.c.Const(0, ew)
		}
	}
	for _, g := range e.p.Globals {
		declare(g, false)
	}
	for _, t := range e.p.Threads {
		for _, l := range t.Locals {
			declare(l, true)
		}
	}
	e.pcs = make([]bv.Vec, len(e.p.Threads))
	e.act = make([]cnf.Lit, len(e.p.Threads))
	for t := range e.p.Threads {
		e.pcs[t] = e.c.Const(0, e.width())
		if t == 0 {
			e.act[t] = e.c.B.True()
		} else {
			e.act[t] = e.c.B.False()
		}
	}
}

// assume conjoins a condition onto the feasibility prefix.
func (e *encoder) assume(cond cnf.Lit) {
	e.feasible = e.c.B.And(e.feasible, cond)
}

func (e *encoder) run() error {
	contexts := e.opts.Contexts
	if e.opts.Mode == RoundRobin {
		contexts = e.opts.Rounds * len(e.p.Threads)
	}
	e.out.Contexts = contexts

	w := e.width()
	b := e.c.B
	for c := 0; c < contexts; c++ {
		// Scheduled thread.
		var tid bv.Vec
		switch {
		case c == 0:
			// The first context always runs the main thread (Sect. 3.2:
			// partitioning starts at the second context).
			tid = e.c.Const(0, w)
			e.out.TidLSBs = append(e.out.TidLSBs, cnf.LitUndef)
		case e.opts.Mode == RoundRobin:
			tid = e.c.Const(int64(c%len(e.p.Threads)), w)
			e.out.TidLSBs = append(e.out.TidLSBs, cnf.LitUndef)
		default:
			tid = e.c.Input(w)
			e.out.TidLSBs = append(e.out.TidLSBs, tid.LSB())
		}
		cs := e.c.Input(w)
		e.out.TidVecs = append(e.out.TidVecs, tid)
		e.out.CsVecs = append(e.out.CsVecs, cs)

		// Scheduler constraints (Fig. 5): the scheduled thread must have
		// been created, and pc[tid] <= cs <= size[tid].
		actSel := b.False()
		pcSel := e.c.Const(0, w)
		sizeSel := e.c.Const(0, w)
		hits := make([]cnf.Lit, len(e.p.Threads))
		for t := range e.p.Threads {
			hits[t] = e.c.Eq(tid, e.c.Const(int64(t), w))
			actSel = b.Or(actSel, b.And(hits[t], e.act[t]))
			pcSel = e.c.Ite(hits[t], e.pcs[t], pcSel)
			sizeSel = e.c.Ite(hits[t], e.c.Const(int64(len(e.p.Threads[t].Blocks)), w), sizeSel)
		}
		e.assume(actSel)
		e.assume(e.c.Ule(pcSel, cs))
		e.assume(e.c.Ule(cs, sizeSel))

		// Execute every block of every thread under its enabling
		// condition.
		for t, th := range e.p.Threads {
			if len(th.Blocks) == 0 {
				continue
			}
			base := b.And(hits[t], e.act[t])
			if v, ok := b.IsConst(base); ok && !v {
				continue // thread cannot be scheduled in this context
			}
			pcT := e.pcs[t]
			for bi := range th.Blocks {
				bConst := e.c.Const(int64(bi), w)
				en := b.And(base,
					b.And(e.c.Ule(pcT, bConst), e.c.Ult(bConst, cs)))
				if v, ok := b.IsConst(en); ok && !v {
					continue
				}
				for si, step := range th.Blocks[bi] {
					if err := e.step(t, bi, si, step, en); err != nil {
						return err
					}
				}
			}
			// pc[t] := cs if this thread ran.
			e.pcs[t] = e.c.Ite(hits[t], cs, e.pcs[t])
		}
	}
	return nil
}

// step encodes one guarded atomic operation under the enable literal en.
func (e *encoder) step(t, bi, si int, step flatten.Step, en cnf.Lit) error {
	b := e.c.B
	for _, g := range step.Guards {
		gv, ok := e.env.scalars[g.Name]
		if !ok {
			return fmt.Errorf("vc: unknown guard %q", g.Name)
		}
		lit := gv.LSB()
		if g.Neg {
			lit = lit.Not()
		}
		en = b.And(en, lit)
	}
	if v, ok := b.IsConst(en); ok && !v {
		return nil
	}
	switch op := step.Op.(type) {
	case *flatten.AssignOp:
		var val bv.Vec
		lw := e.vecWidth(e.lvalueType(op.LHS))
		if _, ok := op.RHS.(*prog.Nondet); ok {
			// One shared input per static non-deterministic assignment:
			// the step executes in at most one context per trace (the
			// thread's pc is monotone), so the same free word serves
			// every context's encoding of this block, and the trace
			// decoder can read its value unambiguously.
			key := NondetKey{Thread: t, Block: bi, Step: si}
			var ok bool
			if val, ok = e.out.Nondet[key]; !ok {
				val = e.c.Input(lw)
				e.out.Nondet[key] = val
			}
		} else {
			var err error
			val, err = e.eval(op.RHS)
			if err != nil {
				return err
			}
		}
		return e.assign(op.LHS, val, en)
	case *flatten.AssumeOp:
		cond, err := e.evalBool(op.Cond)
		if err != nil {
			return err
		}
		e.assume(b.Implies(en, cond))
		return nil
	case *flatten.AssertOp:
		cond, err := e.evalBool(op.Cond)
		if err != nil {
			return err
		}
		// A violation counts only along a feasible prefix (matching the
		// interpreter, where execution stops at the first failure).
		viol := b.And(e.feasible, b.And(en, cond.Not()))
		e.violated = b.Or(e.violated, viol)
		return nil
	case *flatten.LockOp:
		m := e.env.scalars[op.Mutex]
		free := e.c.IsZero(m)
		e.assume(b.Implies(en, free))
		held := e.c.Const(int64(t)+1, m.Width())
		e.env.scalars[op.Mutex] = e.c.Ite(en, held, m)
		return nil
	case *flatten.UnlockOp:
		m := e.env.scalars[op.Mutex]
		e.env.scalars[op.Mutex] = e.c.Ite(en, e.c.Const(0, m.Width()), m)
		return nil
	case *flatten.CreateOp:
		for _, a := range op.Args {
			src, err := e.eval(a.Src)
			if err != nil {
				return err
			}
			dst := e.env.scalars[a.Dest]
			src = e.coerce(src, dst.Width())
			e.env.scalars[a.Dest] = e.c.Ite(en, src, dst)
		}
		e.act[op.Target] = b.Or(e.act[op.Target], en)
		return e.assign(op.Tid, e.c.Const(int64(op.Target), e.width()), en)
	case *flatten.JoinOp:
		tidV, err := e.eval(op.Tid)
		if err != nil {
			return err
		}
		term := b.False()
		for tt, th := range e.p.Threads {
			hit := e.c.Eq(tidV, e.c.Const(int64(tt), e.width()))
			done := e.c.Eq(e.pcs[tt], e.c.Const(int64(len(th.Blocks)), e.width()))
			term = b.Or(term, b.And(hit, done))
		}
		e.assume(b.Implies(en, term))
		return nil
	}
	return fmt.Errorf("vc: unknown op %T", step.Op)
}

func (e *encoder) lvalueType(lv prog.LValue) prog.Type {
	t := e.env.types[lv.BaseName()]
	if _, ok := lv.(*prog.IndexRef); ok {
		return prog.Type{Kind: t.Kind}
	}
	return t
}

// assign writes val into the l-value under the enable literal.
func (e *encoder) assign(lv prog.LValue, val bv.Vec, en cnf.Lit) error {
	switch x := lv.(type) {
	case *prog.VarRef:
		old, ok := e.env.scalars[x.Name]
		if !ok {
			return fmt.Errorf("vc: unknown variable %q", x.Name)
		}
		val = e.coerce(val, old.Width())
		e.env.scalars[x.Name] = e.c.Ite(en, val, old)
		return nil
	case *prog.IndexRef:
		arr, ok := e.env.arrays[x.Name]
		if !ok {
			return fmt.Errorf("vc: unknown array %q", x.Name)
		}
		idx, err := e.eval(x.Index)
		if err != nil {
			return err
		}
		for i := range arr {
			hit := e.c.B.And(en, e.c.Eq(idx, e.c.Const(int64(i), idx.Width())))
			arr[i] = e.c.Ite(hit, e.coerce(val, arr[i].Width()), arr[i])
		}
		return nil
	}
	return fmt.Errorf("vc: unknown l-value %T", lv)
}

// coerce adjusts a vector to the expected width (bools are 1 bit).
func (e *encoder) coerce(v bv.Vec, w int) bv.Vec {
	return e.c.Extend(v, w, false)
}

// evalBool evaluates a Boolean expression to a literal.
func (e *encoder) evalBool(x prog.Expr) (cnf.Lit, error) {
	v, err := e.eval(x)
	if err != nil {
		return cnf.LitUndef, err
	}
	if v.Width() == 1 {
		return v.LSB(), nil
	}
	return e.c.NonZero(v), nil
}

// eval evaluates an expression to a bit vector (Booleans are 1-bit).
func (e *encoder) eval(x prog.Expr) (bv.Vec, error) {
	w := e.width()
	b := e.c.B
	switch ex := x.(type) {
	case *prog.IntLit:
		return e.c.Const(ex.Value, w), nil
	case *prog.BoolLit:
		if ex.Value {
			return e.c.Bool(b.True()), nil
		}
		return e.c.Bool(b.False()), nil
	case *prog.VarRef:
		v, ok := e.env.scalars[ex.Name]
		if !ok {
			return nil, fmt.Errorf("vc: unknown variable %q", ex.Name)
		}
		return v, nil
	case *prog.IndexRef:
		arr, ok := e.env.arrays[ex.Name]
		if !ok {
			return nil, fmt.Errorf("vc: unknown array %q", ex.Name)
		}
		idx, err := e.eval(ex.Index)
		if err != nil {
			return nil, err
		}
		ew := e.vecWidth(prog.Type{Kind: e.env.types[ex.Name].Kind})
		return e.c.Select(arr, idx, e.c.Const(0, ew)), nil
	case *prog.UnaryExpr:
		v, err := e.eval(ex.X)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case prog.OpNeg:
			return e.c.Neg(v), nil
		case prog.OpNot:
			lit, err := e.evalBool(ex.X)
			if err != nil {
				return nil, err
			}
			return e.c.Bool(lit.Not()), nil
		case prog.OpBitNot:
			return e.c.Not(v), nil
		}
		return nil, fmt.Errorf("vc: unknown unary op %v", ex.Op)
	case *prog.BinaryExpr:
		switch ex.Op {
		case prog.OpLAnd, prog.OpLOr:
			xl, err := e.evalBool(ex.X)
			if err != nil {
				return nil, err
			}
			yl, err := e.evalBool(ex.Y)
			if err != nil {
				return nil, err
			}
			if ex.Op == prog.OpLAnd {
				return e.c.Bool(b.And(xl, yl)), nil
			}
			return e.c.Bool(b.Or(xl, yl)), nil
		}
		xv, err := e.eval(ex.X)
		if err != nil {
			return nil, err
		}
		yv, err := e.eval(ex.Y)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case prog.OpAdd:
			return e.c.Add(xv, yv), nil
		case prog.OpSub:
			return e.c.Sub(xv, yv), nil
		case prog.OpMul:
			return e.c.Mul(xv, yv), nil
		case prog.OpDiv, prog.OpMod:
			lit, ok := ex.Y.(*prog.IntLit)
			if !ok || lit.Value <= 0 || lit.Value&(lit.Value-1) != 0 {
				return nil, fmt.Errorf("vc: division only by constant powers of two")
			}
			k := 0
			for v := lit.Value; v > 1; v >>= 1 {
				k++
			}
			if ex.Op == prog.OpDiv {
				return e.c.LshrConst(xv, k), nil
			}
			return e.c.And(xv, e.c.Const(lit.Value-1, xv.Width())), nil
		case prog.OpAnd:
			return e.c.And(xv, yv), nil
		case prog.OpOr:
			return e.c.Or(xv, yv), nil
		case prog.OpXor:
			return e.c.Xor(xv, yv), nil
		case prog.OpShl, prog.OpShr:
			return e.shift(xv, yv, ex.Op == prog.OpShl), nil
		case prog.OpLt:
			return e.c.Bool(e.c.Slt(xv, yv)), nil
		case prog.OpLe:
			return e.c.Bool(e.c.Sle(xv, yv)), nil
		case prog.OpGt:
			return e.c.Bool(e.c.Slt(yv, xv)), nil
		case prog.OpGe:
			return e.c.Bool(e.c.Sle(yv, xv)), nil
		case prog.OpEq:
			xv, yv = e.matchWidths(xv, yv)
			return e.c.Bool(e.c.Eq(xv, yv)), nil
		case prog.OpNe:
			xv, yv = e.matchWidths(xv, yv)
			return e.c.Bool(e.c.Ne(xv, yv)), nil
		}
		return nil, fmt.Errorf("vc: unknown binary op %v", ex.Op)
	case *prog.Nondet:
		return nil, fmt.Errorf("vc: free-standing non-deterministic value")
	}
	return nil, fmt.Errorf("vc: unknown expression %T", x)
}

func (e *encoder) matchWidths(x, y bv.Vec) (bv.Vec, bv.Vec) {
	if x.Width() == y.Width() {
		return x, y
	}
	w := x.Width()
	if y.Width() > w {
		w = y.Width()
	}
	return e.c.Extend(x, w, false), e.c.Extend(y, w, false)
}

// shift encodes a variable shift as a multiplexer chain over the W
// possible amounts; amounts >= W yield zero, matching the interpreter's
// wrap semantics.
func (e *encoder) shift(x, y bv.Vec, left bool) bv.Vec {
	res := e.c.Const(0, x.Width())
	for k := 0; k < x.Width(); k++ {
		var shifted bv.Vec
		if left {
			shifted = e.c.ShlConst(x, k)
		} else {
			shifted = e.c.LshrConst(x, k)
		}
		hit := e.c.Eq(y, e.c.Const(int64(k), y.Width()))
		res = e.c.Ite(hit, shifted, res)
	}
	return res
}
