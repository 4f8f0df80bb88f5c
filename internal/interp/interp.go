// Package interp executes flattened bounded programs concretely. It
// implements the execution model of Sect. 2.1 of the paper at the same
// granularity as the symbolic encoder: context switches at block (visible
// statement) boundaries, blocking join/lock as infeasibility, assume as
// trace pruning, assert as violation detection.
//
// The package provides deterministic schedule replay (used to validate
// counterexamples produced by the bounded model checker) and an
// exhaustive context-bounded explorer (used as ground truth in
// differential tests).
package interp

import (
	"fmt"

	"repro/internal/flatten"
	"repro/prog"
)

// Options configures execution.
type Options struct {
	// Width is the integer bit width (default 8).
	Width int
}

func (o *Options) setDefaults() {
	if o.Width == 0 {
		o.Width = 8
	}
}

// Violation describes a failed assertion.
type Violation struct {
	Thread int
	Block  int
	Src    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("assertion violated in thread %d, block %d: %s", v.Thread, v.Block, v.Src)
}

// ErrInfeasible reports that the executed interleaving is infeasible
// (a failed assume, a blocking join/lock, or a schedule constraint
// violation); it prunes the trace rather than signalling a bug.
var ErrInfeasible = fmt.Errorf("interp: infeasible interleaving")

// State is a concrete program configuration ⟨sh, en, th_1..th_n⟩
// (Sect. 2.1), flattened: one namespace for shared and local variables,
// per-thread program counters (block indices) and activation flags.
type State struct {
	p    *flatten.Program
	opts Options

	vals   map[string]int64
	arrays map[string][]int64
	types  map[string]prog.Type

	pc  []int
	act []bool
}

// NewState builds the initial configuration: shared variables zeroed,
// locals zeroed (callers may overwrite via SetVar to model the paper's
// non-deterministic locals), only the main thread active.
func NewState(p *flatten.Program, opts Options) *State {
	opts.setDefaults()
	s := &State{
		p:      p,
		opts:   opts,
		vals:   map[string]int64{},
		arrays: map[string][]int64{},
		types:  map[string]prog.Type{},
		pc:     make([]int, len(p.Threads)),
		act:    make([]bool, len(p.Threads)),
	}
	declare := func(d prog.Decl) {
		s.types[d.Name] = d.Type
		if d.Type.IsArray() {
			s.arrays[d.Name] = make([]int64, d.Type.ArrayLen)
		} else {
			s.vals[d.Name] = 0
		}
	}
	for _, g := range p.Globals {
		declare(g)
	}
	for _, t := range p.Threads {
		for _, l := range t.Locals {
			declare(l)
		}
	}
	if len(s.act) > 0 {
		s.act[0] = true
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{
		p:      s.p,
		opts:   s.opts,
		vals:   make(map[string]int64, len(s.vals)),
		arrays: make(map[string][]int64, len(s.arrays)),
		types:  s.types,
		pc:     append([]int(nil), s.pc...),
		act:    append([]bool(nil), s.act...),
	}
	for k, v := range s.vals {
		c.vals[k] = v
	}
	for k, v := range s.arrays {
		c.arrays[k] = append([]int64(nil), v...)
	}
	return c
}

// SetVar overwrites a scalar variable (initial-value injection for
// counterexample replay).
func (s *State) SetVar(name string, v int64) {
	s.vals[name] = s.wrap(v)
}

// SetArrayElem overwrites one array element.
func (s *State) SetArrayElem(name string, idx int, v int64) {
	if a, ok := s.arrays[name]; ok && idx >= 0 && idx < len(a) {
		a[idx] = s.wrap(v)
	}
}

// PC returns the program counter (executed block count) of a thread.
func (s *State) PC(t int) int { return s.pc[t] }

// Active reports whether a thread has been created.
func (s *State) Active(t int) bool { return s.act[t] }

// Terminated reports whether a thread has executed all its blocks.
func (s *State) Terminated(t int) bool {
	return s.pc[t] >= len(s.p.Threads[t].Blocks)
}

// AllTerminated reports whether every active thread has terminated and
// no inactive thread can still be created (conservatively: all threads
// active are done).
func (s *State) AllTerminated() bool {
	for t := range s.p.Threads {
		if s.act[t] && !s.Terminated(t) {
			return false
		}
	}
	return true
}

// wrap truncates to the configured width, sign-extending (two's
// complement).
func (s *State) wrap(v int64) int64 {
	w := uint(s.opts.Width)
	if w >= 64 {
		return v
	}
	v &= (1 << w) - 1
	if v&(1<<(w-1)) != 0 {
		v -= 1 << w
	}
	return v
}

// unsigned returns the W-bit unsigned representation.
func (s *State) unsigned(v int64) int64 {
	w := uint(s.opts.Width)
	if w >= 64 {
		return v
	}
	return v & ((1 << w) - 1)
}

// NondetFn supplies the value of a non-deterministic assignment; the
// position identifies the step so counterexample replay can inject the
// model's choice. For bools any non-zero value is true.
type NondetFn func(thread, block, step int) int64

// ZeroNondet resolves every non-deterministic value to zero.
func ZeroNondet(_, _, _ int) int64 { return 0 }

// ExecContext simulates one execution context (paper Fig. 5): thread t
// runs blocks pc[t]..cs-1, then pc[t] := cs. It returns a *Violation if
// an assertion failed, ErrInfeasible if the context is not feasible
// (inactive thread, cs out of range, failed assume, blocked join/lock),
// and nil otherwise.
func (s *State) ExecContext(t, cs int, nondet NondetFn) error {
	if t < 0 || t >= len(s.p.Threads) {
		return ErrInfeasible
	}
	if !s.act[t] {
		return ErrInfeasible
	}
	size := len(s.p.Threads[t].Blocks)
	if cs < s.pc[t] || cs > size {
		return ErrInfeasible
	}
	for b := s.pc[t]; b < cs; b++ {
		if err := s.execBlock(t, b, nondet); err != nil {
			return err
		}
		s.pc[t] = b + 1
	}
	s.pc[t] = cs
	return nil
}

func (s *State) execBlock(t, b int, nondet NondetFn) error {
	blk := s.p.Threads[t].Blocks[b]
	for i, step := range blk {
		if !s.guardsHold(step.Guards) {
			continue
		}
		if err := s.execOp(t, b, i, step.Op, nondet); err != nil {
			return err
		}
	}
	return nil
}

func (s *State) guardsHold(gs []flatten.Guard) bool {
	for _, g := range gs {
		v := s.vals[g.Name] != 0
		if v == g.Neg {
			return false
		}
	}
	return true
}

func (s *State) execOp(t, b, i int, op flatten.Op, nondet NondetFn) error {
	switch o := op.(type) {
	case *flatten.AssignOp:
		var v int64
		if _, ok := o.RHS.(*prog.Nondet); ok {
			v = s.wrap(nondet(t, b, i))
			if s.types[o.LHS.BaseName()].Kind == prog.KindBool {
				// Boolean non-determinism is a single bit.
				v = boolToInt(v != 0)
			}
		} else {
			v = s.eval(o.RHS)
		}
		s.assign(o.LHS, v)
		return nil
	case *flatten.AssumeOp:
		if s.eval(o.Cond) == 0 {
			return ErrInfeasible
		}
		return nil
	case *flatten.AssertOp:
		if s.eval(o.Cond) == 0 {
			return &Violation{Thread: t, Block: b, Src: o.Src}
		}
		return nil
	case *flatten.LockOp:
		if s.vals[o.Mutex] != 0 {
			return ErrInfeasible // blocking acquire: interleaving infeasible
		}
		s.vals[o.Mutex] = s.wrap(int64(t) + 1)
		return nil
	case *flatten.UnlockOp:
		s.vals[o.Mutex] = 0
		return nil
	case *flatten.CreateOp:
		for _, a := range o.Args {
			s.vals[a.Dest] = s.eval(a.Src)
		}
		s.act[o.Target] = true
		s.assign(o.Tid, s.wrap(int64(o.Target)))
		return nil
	case *flatten.JoinOp:
		tid := s.eval(o.Tid)
		if tid < 0 || tid >= int64(len(s.p.Threads)) {
			return ErrInfeasible
		}
		if !s.Terminated(int(tid)) {
			return ErrInfeasible
		}
		return nil
	}
	panic(fmt.Sprintf("interp: unknown op %T", op))
}

func (s *State) assign(lv prog.LValue, v int64) {
	switch x := lv.(type) {
	case *prog.VarRef:
		s.vals[x.Name] = v
	case *prog.IndexRef:
		idx := s.unsigned(s.eval(x.Index))
		a := s.arrays[x.Name]
		if idx >= 0 && idx < int64(len(a)) {
			a[idx] = v
		}
		// Out-of-bounds writes are dropped, matching the encoder's
		// symbolic Store semantics.
	default:
		panic(fmt.Sprintf("interp: unknown l-value %T", lv))
	}
}

// eval evaluates an expression; Booleans are 0/1.
func (s *State) eval(e prog.Expr) int64 {
	switch x := e.(type) {
	case *prog.IntLit:
		return s.wrap(x.Value)
	case *prog.BoolLit:
		if x.Value {
			return 1
		}
		return 0
	case *prog.VarRef:
		return s.vals[x.Name]
	case *prog.IndexRef:
		idx := s.unsigned(s.eval(x.Index))
		a := s.arrays[x.Name]
		if idx >= 0 && idx < int64(len(a)) {
			return a[idx]
		}
		return 0 // out-of-bounds reads yield the default value
	case *prog.UnaryExpr:
		v := s.eval(x.X)
		switch x.Op {
		case prog.OpNeg:
			return s.wrap(-v)
		case prog.OpNot:
			if v == 0 {
				return 1
			}
			return 0
		case prog.OpBitNot:
			return s.wrap(^v)
		}
	case *prog.BinaryExpr:
		a := s.eval(x.X)
		// Short-circuit operators first.
		switch x.Op {
		case prog.OpLAnd:
			if a == 0 {
				return 0
			}
			return boolToInt(s.eval(x.Y) != 0)
		case prog.OpLOr:
			if a != 0 {
				return 1
			}
			return boolToInt(s.eval(x.Y) != 0)
		}
		b := s.eval(x.Y)
		switch x.Op {
		case prog.OpAdd:
			return s.wrap(a + b)
		case prog.OpSub:
			return s.wrap(a - b)
		case prog.OpMul:
			return s.wrap(a * b)
		case prog.OpDiv:
			// Power-of-two divisor (checked); unsigned semantics.
			return s.wrap(s.unsigned(a) / s.unsigned(b))
		case prog.OpMod:
			return s.wrap(s.unsigned(a) % s.unsigned(b))
		case prog.OpAnd:
			return s.wrap(a & b)
		case prog.OpOr:
			return s.wrap(a | b)
		case prog.OpXor:
			return s.wrap(a ^ b)
		case prog.OpShl:
			return s.wrap(a << uint(s.unsigned(b)))
		case prog.OpShr:
			// Logical shift on the W-bit unsigned representation.
			return s.wrap(s.unsigned(a) >> uint(s.unsigned(b)))
		case prog.OpLt:
			return boolToInt(a < b)
		case prog.OpLe:
			return boolToInt(a <= b)
		case prog.OpGt:
			return boolToInt(a > b)
		case prog.OpGe:
			return boolToInt(a >= b)
		case prog.OpEq:
			return boolToInt(a == b)
		case prog.OpNe:
			return boolToInt(a != b)
		}
	case *prog.Nondet:
		panic("interp: free-standing non-deterministic value")
	}
	panic(fmt.Sprintf("interp: unknown expression %T", e))
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ContextChoice is one scheduler decision: thread and context-switch
// point (the paper's tid[c] and cs[c]).
type ContextChoice struct {
	Thread int
	Cs     int
}

// Replay executes a complete schedule from the initial state (possibly
// adjusted via SetVar). It returns the violation if one is reached, nil
// if the schedule runs to completion safely, or ErrInfeasible.
func (s *State) Replay(schedule []ContextChoice, nondet NondetFn) error {
	for _, c := range schedule {
		if err := s.ExecContext(c.Thread, c.Cs, nondet); err != nil {
			return err
		}
	}
	return nil
}
