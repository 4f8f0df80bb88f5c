// Package unfold implements the program-unfolding pass of the paper
// (Sect. 2.2): all loops are unwound up to the bound u, all procedure
// calls are inlined (recursion up to u), and thread creations are
// statically numbered, yielding a bounded program P_u that preserves all
// feasible behaviours of the input program up to u iterations of any
// cycle, with a statically known set of thread instances.
package unfold

import (
	"fmt"

	"repro/prog"
)

// Thread is one statically numbered thread instance of the bounded
// program. Its body is loop-free and call-free: only assignments,
// assume/assert, if-statements, create/join/lock/unlock and atomic blocks
// remain. All locals are renamed to be unique across the whole program.
type Thread struct {
	// ID is the static thread index; 0 is the main thread.
	ID int
	// Proc is the name of the source procedure.
	Proc string
	// Params are the renamed parameter declarations, in order; thread
	// arguments are delivered by the creator writing into these.
	Params []prog.Decl
	// Locals are all renamed local declarations (including Params).
	Locals []prog.Decl
	// Body is the unfolded statement list.
	Body []prog.Stmt
}

// Program is the bounded program P_u.
type Program struct {
	// Globals are the shared variables; mutexes are lowered to int
	// scalars (0 = free, t+1 = held by thread t).
	Globals []prog.Decl
	// Threads are the static thread instances; Threads[0] is main.
	Threads []*Thread
	// CreateTarget maps each CreateStmt occurrence in any body to the
	// static index of the thread instance it spawns.
	CreateTarget map[*prog.CreateStmt]int
	// Unwind is the loop/recursion bound used.
	Unwind int
}

// Options configures unfolding.
type Options struct {
	// Unwind is the loop unwinding and recursion bound (>= 1).
	Unwind int
	// MaxThreads bounds the number of static thread instances
	// (default 64).
	MaxThreads int
}

// Unfold applies the unfolding pass to a checked program.
func Unfold(p *prog.Program, opts Options) (*Program, error) {
	if opts.Unwind < 1 {
		return nil, fmt.Errorf("unfold: unwind bound must be >= 1, got %d", opts.Unwind)
	}
	if opts.MaxThreads == 0 {
		opts.MaxThreads = 64
	}
	u := &unfolder{
		src:  p,
		opts: opts,
		out: &Program{
			CreateTarget: map[*prog.CreateStmt]int{},
			Unwind:       opts.Unwind,
		},
	}
	for _, g := range p.Globals {
		t := g.Type
		if t.Kind == prog.KindMutex {
			t = prog.Int
		}
		u.out.Globals = append(u.out.Globals, prog.Decl{Name: g.Name, Type: t})
	}
	// Unfold main (thread 0); creates encountered enqueue further threads.
	if _, err := u.addThread("main"); err != nil {
		return nil, err
	}
	for i := 0; i < len(u.pending); i++ {
		pend := u.pending[i]
		th := u.out.Threads[pend.id]
		pr := u.src.Proc(pend.proc)
		if pr == nil {
			return nil, fmt.Errorf("unfold: missing procedure %q", pend.proc)
		}
		if err := u.unfoldThread(th, pr); err != nil {
			return nil, err
		}
	}
	return u.out, nil
}

type pendingThread struct {
	id   int
	proc string
}

type unfolder struct {
	src     *prog.Program
	opts    Options
	out     *Program
	pending []pendingThread
	fresh   int // counter for unique names
}

// addThread allocates a static thread index for a new instance of proc.
func (u *unfolder) addThread(proc string) (int, error) {
	id := len(u.out.Threads)
	if id >= u.opts.MaxThreads {
		return 0, fmt.Errorf("unfold: more than %d static thread instances", u.opts.MaxThreads)
	}
	u.out.Threads = append(u.out.Threads, &Thread{ID: id, Proc: proc})
	u.pending = append(u.pending, pendingThread{id: id, proc: proc})
	return id, nil
}

// scope is one lexical frame: declared locals map to their flat names,
// inlined parameters map to replacement expressions.
type scope struct {
	names  map[string]string
	substs map[string]prog.Expr
}

// threadCtx carries the renaming state while unfolding one thread's body.
type threadCtx struct {
	threadID int
	locals   []prog.Decl
	scopes   []scope
	// inlineCount counts, per procedure, the activations currently open
	// along the unfolding path; recursion is cut at the unwind bound.
	inlineCount map[string]int
}

func (tc *threadCtx) pushScope() {
	tc.scopes = append(tc.scopes, scope{names: map[string]string{}, substs: map[string]prog.Expr{}})
}

func (tc *threadCtx) popScope() { tc.scopes = tc.scopes[:len(tc.scopes)-1] }

// lookup resolves a source name: either to a flat variable name, to a
// substitution expression, or to itself (a global).
func (tc *threadCtx) lookup(name string) (flat string, sub prog.Expr) {
	for i := len(tc.scopes) - 1; i >= 0; i-- {
		if f, ok := tc.scopes[i].names[name]; ok {
			return f, nil
		}
		if e, ok := tc.scopes[i].substs[name]; ok {
			return "", e
		}
	}
	return name, nil
}

func (u *unfolder) unfoldThread(th *Thread, pr *prog.Proc) error {
	tc := &threadCtx{threadID: th.ID}
	tc.pushScope()
	for _, d := range pr.Params {
		th.Params = append(th.Params, u.declare(tc, d))
	}
	for _, d := range pr.Locals {
		u.declare(tc, d)
	}
	var body []prog.Stmt
	var rc *retCtx
	if hasReturn(pr.Body) {
		// Returns in a thread body end the thread's remaining work.
		done := u.declareFresh(tc, "done", prog.Bool)
		rc = &retCtx{doneVar: done.Name}
		body = append(body, &prog.AssignStmt{
			LHS: &prog.VarRef{Name: done.Name},
			RHS: &prog.BoolLit{Value: false},
		})
	}
	rest, err := u.stmts(tc, pr.Body, rc)
	if err != nil {
		return err
	}
	th.Body = append(body, rest...)
	th.Locals = tc.locals
	return nil
}

// hasReturn reports whether a return statement occurs anywhere in stmts.
func hasReturn(stmts []prog.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case *prog.ReturnStmt:
			return true
		case *prog.IfStmt:
			if hasReturn(st.Then) || hasReturn(st.Else) {
				return true
			}
		case *prog.WhileStmt:
			if hasReturn(st.Body) {
				return true
			}
		case *prog.AtomicStmt:
			if hasReturn(st.Body) {
				return true
			}
		case *prog.BlockStmt:
			if hasReturn(st.Body) {
				return true
			}
		}
	}
	return false
}

// declare renames a declaration into the thread-unique namespace and
// registers it in the current scope.
func (u *unfolder) declare(tc *threadCtx, d prog.Decl) prog.Decl {
	u.fresh++
	flat := fmt.Sprintf("%s@%d.%d", d.Name, tc.threadID, u.fresh)
	tc.scopes[len(tc.scopes)-1].names[d.Name] = flat
	nd := prog.Decl{Name: flat, Type: d.Type}
	tc.locals = append(tc.locals, nd)
	return nd
}

// declareFresh introduces a compiler temporary (not visible to source
// name lookup).
func (u *unfolder) declareFresh(tc *threadCtx, hint string, t prog.Type) prog.Decl {
	u.fresh++
	nd := prog.Decl{Name: fmt.Sprintf("%s$%d@%d", hint, u.fresh, tc.threadID), Type: t}
	tc.locals = append(tc.locals, nd)
	return nd
}

// retCtx tracks early-return lowering for one inline frame. Guarding by
// the done flag only starts after the first return statement has been
// lowered (before that point no return can have executed), so bodies
// without early returns carry no overhead.
type retCtx struct {
	doneVar string // bool: set once a return executed
	retVar  string // destination of the return value ("" if none)
	active  bool   // a return has been seen; subsequent stmts need guarding
}

func (u *unfolder) stmts(tc *threadCtx, in []prog.Stmt, ret *retCtx) ([]prog.Stmt, error) {
	var out []prog.Stmt
	for _, s := range in {
		ns, err := u.stmt(tc, s, ret)
		if err != nil {
			return nil, err
		}
		out = append(out, ns...)
	}
	return out, nil
}

// guardByDone wraps statements so they execute only if no return has
// happened yet in the current inline frame.
func guardByDone(ret *retCtx, stmts []prog.Stmt) []prog.Stmt {
	if ret == nil || !ret.active || len(stmts) == 0 {
		return stmts
	}
	return []prog.Stmt{&prog.IfStmt{
		Cond: &prog.UnaryExpr{Op: prog.OpNot, X: &prog.VarRef{Name: ret.doneVar}},
		Then: stmts,
	}}
}

func (u *unfolder) stmt(tc *threadCtx, s prog.Stmt, ret *retCtx) ([]prog.Stmt, error) {
	switch st := s.(type) {
	case *prog.AssumeStmt:
		return guardByDone(ret, []prog.Stmt{&prog.AssumeStmt{Cond: u.expr(tc, st.Cond)}}), nil
	case *prog.AssertStmt:
		return guardByDone(ret, []prog.Stmt{&prog.AssertStmt{Cond: u.expr(tc, st.Cond)}}), nil
	case *prog.AssignStmt:
		return guardByDone(ret, []prog.Stmt{&prog.AssignStmt{
			LHS: u.lvalue(tc, st.LHS),
			RHS: u.expr(tc, st.RHS),
		}}), nil
	case *prog.ReturnStmt:
		if ret == nil {
			return nil, fmt.Errorf("unfold: unexpected return")
		}
		var out []prog.Stmt
		if st.Value != nil && ret.retVar != "" {
			out = append(out, &prog.AssignStmt{
				LHS: &prog.VarRef{Name: ret.retVar},
				RHS: u.expr(tc, st.Value),
			})
		}
		out = append(out, &prog.AssignStmt{
			LHS: &prog.VarRef{Name: ret.doneVar},
			RHS: &prog.BoolLit{Value: true},
		})
		out = guardByDone(ret, out)
		ret.active = true
		return out, nil
	case *prog.IfStmt:
		then, err := u.stmts(tc, st.Then, ret)
		if err != nil {
			return nil, err
		}
		els, err := u.stmts(tc, st.Else, ret)
		if err != nil {
			return nil, err
		}
		return guardByDone(ret, []prog.Stmt{&prog.IfStmt{
			Cond: u.expr(tc, st.Cond),
			Then: then,
			Else: els,
		}}), nil
	case *prog.WhileStmt:
		unrolled, err := u.unrollWhile(tc, st, ret, u.opts.Unwind)
		if err != nil {
			return nil, err
		}
		return guardByDone(ret, unrolled), nil
	case *prog.CallStmt:
		inlined, err := u.inlineCall(tc, st)
		if err != nil {
			return nil, err
		}
		return guardByDone(ret, inlined), nil
	case *prog.CreateStmt:
		id, err := u.addThread(st.Proc)
		if err != nil {
			return nil, err
		}
		nc := &prog.CreateStmt{
			Tid:  u.lvalue(tc, st.Tid),
			Proc: st.Proc,
			Args: make([]prog.Expr, len(st.Args)),
		}
		for i, a := range st.Args {
			nc.Args[i] = u.expr(tc, a)
		}
		u.out.CreateTarget[nc] = id
		return guardByDone(ret, []prog.Stmt{nc}), nil
	case *prog.JoinStmt:
		return guardByDone(ret, []prog.Stmt{&prog.JoinStmt{Tid: u.expr(tc, st.Tid)}}), nil
	case *prog.LockStmt:
		return guardByDone(ret, []prog.Stmt{&prog.LockStmt{Mutex: st.Mutex}}), nil
	case *prog.UnlockStmt:
		return guardByDone(ret, []prog.Stmt{&prog.UnlockStmt{Mutex: st.Mutex}}), nil
	case *prog.InitStmt:
		// Mutexes are zero-initialised; init is a no-op.
		return nil, nil
	case *prog.DestroyStmt:
		return nil, nil
	case *prog.AtomicStmt:
		body, err := u.stmts(tc, st.Body, ret)
		if err != nil {
			return nil, err
		}
		return guardByDone(ret, []prog.Stmt{&prog.AtomicStmt{Body: body}}), nil
	case *prog.BlockStmt:
		body, err := u.stmts(tc, st.Body, ret)
		if err != nil {
			return nil, err
		}
		return guardByDone(ret, body), nil
	}
	return nil, fmt.Errorf("unfold: unknown statement %T", s)
}

// unrollWhile rewrites while(c) B into nested conditionals:
//
//	if (c) { B; if (c) { B; ... assume(!c); } }
//
// with an unwinding assumption cutting executions that would iterate
// beyond the bound (paper Sect. 2.2/2.3).
func (u *unfolder) unrollWhile(tc *threadCtx, st *prog.WhileStmt, ret *retCtx, n int) ([]prog.Stmt, error) {
	cond := u.expr(tc, st.Cond)
	if n == 0 {
		return []prog.Stmt{&prog.AssumeStmt{
			Cond: &prog.UnaryExpr{Op: prog.OpNot, X: cond},
		}}, nil
	}
	body, err := u.stmts(tc, st.Body, ret)
	if err != nil {
		return nil, err
	}
	rest, err := u.unrollWhile(tc, st, ret, n-1)
	if err != nil {
		return nil, err
	}
	// Returns inside the body must also skip the loop continuation.
	inner := append(body, guardByDone(ret, rest)...)
	return []prog.Stmt{&prog.IfStmt{Cond: cond, Then: inner}}, nil
}

// inlineCall substitutes the callee body at the call site. Parameters
// whose argument is an l-value are passed by reference (substitution,
// matching the paper's implicit call-by-reference); other arguments are
// copied into fresh locals (by-value).
func (u *unfolder) inlineCall(tc *threadCtx, st *prog.CallStmt) ([]prog.Stmt, error) {
	if tc.inlineCount == nil {
		tc.inlineCount = map[string]int{}
	}
	if tc.inlineCount[st.Proc] >= u.opts.Unwind {
		// Recursive activations beyond the bound: cut these executions,
		// mirroring the loop unwinding assumption. Non-recursive chains
		// are unaffected because the count is per procedure along the
		// current unfolding path.
		return []prog.Stmt{&prog.AssumeStmt{Cond: &prog.BoolLit{Value: false}}}, nil
	}
	tc.inlineCount[st.Proc]++
	defer func() { tc.inlineCount[st.Proc]-- }()
	callee := u.src.Proc(st.Proc)
	if callee == nil {
		return nil, fmt.Errorf("unfold: call to unknown procedure %q", st.Proc)
	}

	var out []prog.Stmt
	subst := map[string]prog.Expr{}
	for i, p := range callee.Params {
		arg := u.expr(tc, st.Args[i]) // resolved in caller scope
		if lv, ok := arg.(prog.LValue); ok {
			subst[p.Name] = lv
			continue
		}
		// By-value: copy into a fresh local.
		tmp := u.declareFresh(tc, p.Name, p.Type)
		out = append(out, &prog.AssignStmt{LHS: &prog.VarRef{Name: tmp.Name}, RHS: arg})
		subst[p.Name] = &prog.VarRef{Name: tmp.Name}
	}

	tc.pushScope()
	top := &tc.scopes[len(tc.scopes)-1]
	for name, e := range subst {
		top.substs[name] = e
	}
	for _, d := range callee.Locals {
		u.declare(tc, d)
	}

	var rc *retCtx
	if hasReturn(callee.Body) {
		done := u.declareFresh(tc, "done", prog.Bool)
		out = append(out, &prog.AssignStmt{LHS: &prog.VarRef{Name: done.Name}, RHS: &prog.BoolLit{Value: false}})
		rc = &retCtx{doneVar: done.Name}
		if st.Result != nil {
			retTmp := u.declareFresh(tc, "ret", callee.Ret)
			rc.retVar = retTmp.Name
		}
	}

	body, err := u.stmts(tc, callee.Body, rc)
	if err != nil {
		return nil, err
	}
	out = append(out, body...)

	tc.popScope()

	if st.Result != nil && rc != nil && rc.retVar != "" {
		out = append(out, &prog.AssignStmt{
			LHS: u.lvalue(tc, st.Result),
			RHS: &prog.VarRef{Name: rc.retVar},
		})
	}
	return out, nil
}

// expr rewrites an expression into the flat namespace: locals to their
// flat names, inlined parameters to the caller's expressions.
func (u *unfolder) expr(tc *threadCtx, e prog.Expr) prog.Expr {
	return prog.MapRefs(e, func(lv prog.LValue) prog.Expr {
		flat, sub := tc.lookup(lv.BaseName())
		if ir, ok := lv.(*prog.IndexRef); ok {
			if sub != nil {
				// Array parameters are rejected by the checker.
				panic("unfold: indexed substituted parameter")
			}
			return &prog.IndexRef{Name: flat, Index: ir.Index}
		}
		if sub != nil {
			return sub
		}
		return &prog.VarRef{Name: flat}
	})
}

func (u *unfolder) lvalue(tc *threadCtx, lv prog.LValue) prog.LValue {
	nlv, ok := u.expr(tc, lv).(prog.LValue)
	if !ok {
		panic("unfold: assignment through a non-lvalue parameter")
	}
	return nlv
}
