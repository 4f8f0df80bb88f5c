package prog

import (
	"fmt"
)

// Check validates a program: name resolution, typing, and the structural
// restrictions of the language (mutexes are global, division only by
// constant powers of two, non-determinism only as an assignment source,
// a main procedure without parameters, and so on).
func Check(p *Program) error {
	c := &checker{prog: p, globals: map[string]Type{}, procs: map[string]*Proc{}}
	for _, g := range p.Globals {
		if _, dup := c.globals[g.Name]; dup {
			return fmt.Errorf("prog: duplicate global %q", g.Name)
		}
		if g.Type.Kind == KindVoid {
			return fmt.Errorf("prog: global %q has void type", g.Name)
		}
		c.globals[g.Name] = g.Type
	}
	for _, pr := range p.Procs {
		if _, dup := c.procs[pr.Name]; dup {
			return fmt.Errorf("prog: duplicate procedure %q", pr.Name)
		}
		c.procs[pr.Name] = pr
	}
	main := p.Main()
	if main == nil {
		return fmt.Errorf("prog: no main procedure")
	}
	if len(main.Params) != 0 {
		return fmt.Errorf("prog: main must not take parameters")
	}
	if main.Ret.Kind != KindVoid {
		return fmt.Errorf("prog: main must return void")
	}
	for _, pr := range p.Procs {
		if err := c.checkProc(pr); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	prog    *Program
	globals map[string]Type
	procs   map[string]*Proc

	proc   *Proc
	locals map[string]Type
}

func (c *checker) checkProc(pr *Proc) error {
	c.proc = pr
	c.locals = map[string]Type{}
	for _, d := range append(append([]Decl{}, pr.Params...), pr.Locals...) {
		if _, dup := c.locals[d.Name]; dup {
			return fmt.Errorf("prog: %s: duplicate local %q", pr.Name, d.Name)
		}
		if _, shadow := c.globals[d.Name]; shadow {
			return fmt.Errorf("prog: %s: local %q shadows a global", pr.Name, d.Name)
		}
		if d.Type.Kind == KindVoid {
			return fmt.Errorf("prog: %s: local %q has void type", pr.Name, d.Name)
		}
		if d.Type.Kind == KindMutex {
			return fmt.Errorf("prog: %s: mutex %q must be global (mutexes are shared)", pr.Name, d.Name)
		}
		c.locals[d.Name] = d.Type
	}
	for _, p := range pr.Params {
		if p.Type.IsArray() {
			return fmt.Errorf("prog: %s: array parameter %q not supported", pr.Name, p.Name)
		}
	}
	return c.checkStmts(pr.Body)
}

func (c *checker) lookup(name string) (Type, bool) {
	if t, ok := c.locals[name]; ok {
		return t, true
	}
	t, ok := c.globals[name]
	return t, ok
}

func (c *checker) checkStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *AssumeStmt:
		return c.want(st.Cond, Bool, "assume condition")
	case *AssertStmt:
		return c.want(st.Cond, Bool, "assert condition")
	case *AssignStmt:
		return c.checkAssign(st)
	case *CallStmt:
		return c.checkCall(st)
	case *ReturnStmt:
		return c.checkReturn(st)
	case *IfStmt:
		if err := c.want(st.Cond, Bool, "if condition"); err != nil {
			return err
		}
		if err := c.checkStmts(st.Then); err != nil {
			return err
		}
		return c.checkStmts(st.Else)
	case *WhileStmt:
		if err := c.want(st.Cond, Bool, "while condition"); err != nil {
			return err
		}
		return c.checkStmts(st.Body)
	case *CreateStmt:
		return c.checkCreate(st)
	case *JoinStmt:
		return c.want(st.Tid, Int, "join argument")
	case interface{ mutexName() string }:
		if t, ok := c.globals[st.mutexName()]; !ok || t.Kind != KindMutex {
			return fmt.Errorf("prog: %s: %q is not a global mutex", c.proc.Name, st.mutexName())
		}
		return nil
	case *AtomicStmt:
		return c.checkStmts(st.Body)
	case *BlockStmt:
		return c.checkStmts(st.Body)
	}
	return fmt.Errorf("prog: %s: unknown statement %T", c.proc.Name, s)
}

func (c *checker) checkAssign(st *AssignStmt) error {
	lt, err := c.typeLValue(st.LHS)
	if err != nil {
		return err
	}
	if _, ok := st.RHS.(*Nondet); ok {
		return nil // x = * is allowed for any scalar type
	}
	rt, err := c.typeExpr(st.RHS)
	if err != nil {
		return err
	}
	if lt != rt {
		return fmt.Errorf("prog: %s: cannot assign %s to %s in %q", c.proc.Name, rt, lt, st)
	}
	return nil
}

func (c *checker) checkReturn(st *ReturnStmt) error {
	where := c.proc.Name
	if c.proc.Ret.Kind == KindVoid {
		if st.Value != nil {
			return fmt.Errorf("prog: %s: return with a value in a void procedure", where)
		}
		return nil
	}
	if st.Value == nil {
		return fmt.Errorf("prog: %s: return without a value", where)
	}
	vt, err := c.typeExpr(st.Value)
	if err != nil {
		return err
	}
	if vt != c.proc.Ret {
		return fmt.Errorf("prog: %s: return type %s, want %s", where, vt, c.proc.Ret)
	}
	return nil
}

func (c *checker) checkCall(st *CallStmt) error {
	callee, err := c.checkCallee(st.Proc, st.Args, false)
	if err != nil || st.Result == nil {
		return err
	}
	where := c.proc.Name
	if callee.Ret.Kind == KindVoid {
		return fmt.Errorf("prog: %s: %q returns void, cannot assign its result", where, st.Proc)
	}
	lt, err := c.typeLValue(st.Result)
	if err != nil {
		return err
	}
	if lt != callee.Ret {
		return fmt.Errorf("prog: %s: result of %q is %s, cannot assign to %s", where, st.Proc, callee.Ret, lt)
	}
	return nil
}

func (c *checker) checkCreate(st *CreateStmt) error {
	if _, err := c.checkCallee(st.Proc, st.Args, true); err != nil {
		return err
	}
	lt, err := c.typeLValue(st.Tid)
	if err != nil {
		return err
	}
	if lt != Int {
		return fmt.Errorf("prog: %s: thread identifier must be int, got %s", c.proc.Name, lt)
	}
	return nil
}

// checkCallee checks what a call (or, with spawn, a create) names and
// passes: a procedure other than main, void if it runs as a thread,
// taking args.
func (c *checker) checkCallee(name string, args []Expr, spawn bool) (*Proc, error) {
	where, verb, done := c.proc.Name, "call to", "called"
	if spawn {
		verb, done = "create of", "spawned"
	}
	callee, ok := c.procs[name]
	if !ok {
		return nil, fmt.Errorf("prog: %s: %s undefined procedure %q", where, verb, name)
	}
	if callee.Name == "main" {
		return nil, fmt.Errorf("prog: %s: main cannot be %s", where, done)
	}
	if spawn && callee.Ret.Kind != KindVoid {
		return nil, fmt.Errorf("prog: %s: thread procedure %q must return void", where, name)
	}
	if len(args) != len(callee.Params) {
		return nil, fmt.Errorf("prog: %s: %s %q with %d args, want %d", where, verb, name, len(args), len(callee.Params))
	}
	for i, a := range args {
		at, err := c.typeExpr(a)
		if err != nil {
			return nil, err
		}
		if at != callee.Params[i].Type {
			return nil, fmt.Errorf("prog: %s: %s %q: arg %d is %s, want %s", where, verb, name, i, at, callee.Params[i].Type)
		}
	}
	return callee, nil
}

// want checks that e has type t (bool or int).
func (c *checker) want(e Expr, t Type, what string) error {
	et, err := c.typeExpr(e)
	if err != nil {
		return err
	}
	if et != t {
		return fmt.Errorf("prog: %s: %s must be %s, got %s", c.proc.Name, what, t, et)
	}
	return nil
}

func (c *checker) typeLValue(lv LValue) (Type, error) {
	switch v := lv.(type) {
	case *VarRef:
		t, ok := c.lookup(v.Name)
		if !ok {
			return Void, fmt.Errorf("prog: %s: undefined variable %q", c.proc.Name, v.Name)
		}
		if t.IsArray() {
			return Void, fmt.Errorf("prog: %s: array %q cannot be used as a scalar", c.proc.Name, v.Name)
		}
		if t.Kind == KindMutex {
			return Void, fmt.Errorf("prog: %s: mutex %q cannot be assigned", c.proc.Name, v.Name)
		}
		return t, nil
	case *IndexRef:
		t, ok := c.lookup(v.Name)
		if !ok {
			return Void, fmt.Errorf("prog: %s: undefined variable %q", c.proc.Name, v.Name)
		}
		if !t.IsArray() {
			return Void, fmt.Errorf("prog: %s: %q is not an array", c.proc.Name, v.Name)
		}
		if err := c.want(v.Index, Int, "array index"); err != nil {
			return Void, err
		}
		return Type{Kind: t.Kind}, nil
	}
	return Void, fmt.Errorf("prog: %s: invalid l-value %T", c.proc.Name, lv)
}

func (c *checker) typeExpr(e Expr) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return Int, nil
	case *BoolLit:
		return Bool, nil
	case *Nondet:
		return Void, fmt.Errorf("prog: %s: '*' may only appear as the source of an assignment", c.proc.Name)
	case *VarRef, *IndexRef:
		return c.typeLValue(x.(LValue))
	case *UnaryExpr:
		xt, err := c.typeExpr(x.X)
		if err != nil {
			return Void, err
		}
		switch x.Op {
		case OpNeg, OpBitNot:
			if xt != Int {
				return Void, fmt.Errorf("prog: %s: operator %s needs int, got %s", c.proc.Name, x.Op, xt)
			}
			return Int, nil
		case OpNot:
			if xt != Bool {
				return Void, fmt.Errorf("prog: %s: operator ! needs bool, got %s", c.proc.Name, xt)
			}
			return Bool, nil
		}
		return Void, fmt.Errorf("prog: %s: unknown unary operator", c.proc.Name)
	case *BinaryExpr:
		xt, err := c.typeExpr(x.X)
		if err != nil {
			return Void, err
		}
		yt, err := c.typeExpr(x.Y)
		if err != nil {
			return Void, err
		}
		switch x.Op {
		case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr:
			if xt != Int || yt != Int {
				return Void, fmt.Errorf("prog: %s: operator %s needs int operands, got %s and %s",
					c.proc.Name, x.Op, xt, yt)
			}
			return Int, nil
		case OpDiv, OpMod:
			if xt != Int || yt != Int {
				return Void, fmt.Errorf("prog: %s: operator %s needs int operands", c.proc.Name, x.Op)
			}
			lit, ok := x.Y.(*IntLit)
			if !ok || lit.Value <= 0 || lit.Value&(lit.Value-1) != 0 {
				return Void, fmt.Errorf("prog: %s: operator %s only supports constant power-of-two divisors",
					c.proc.Name, x.Op)
			}
			return Int, nil
		case OpLt, OpLe, OpGt, OpGe:
			if xt != Int || yt != Int {
				return Void, fmt.Errorf("prog: %s: operator %s needs int operands, got %s and %s",
					c.proc.Name, x.Op, xt, yt)
			}
			return Bool, nil
		case OpEq, OpNe:
			if xt != yt || (xt != Int && xt != Bool) {
				return Void, fmt.Errorf("prog: %s: operator %s needs matching int or bool operands, got %s and %s",
					c.proc.Name, x.Op, xt, yt)
			}
			return Bool, nil
		case OpLAnd, OpLOr:
			if xt != Bool || yt != Bool {
				return Void, fmt.Errorf("prog: %s: operator %s needs bool operands, got %s and %s",
					c.proc.Name, x.Op, xt, yt)
			}
			return Bool, nil
		}
		return Void, fmt.Errorf("prog: %s: unknown binary operator", c.proc.Name)
	}
	return Void, fmt.Errorf("prog: %s: unknown expression %T", c.proc.Name, e)
}
