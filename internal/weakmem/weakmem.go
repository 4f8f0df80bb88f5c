// Package weakmem implements weak-memory analysis by program
// transformation, the approach the paper points to in Sect. 5/6 (Alglave
// et al. [4]; Tomasco et al. [52]): reasoning about a program under a
// weak consistency model soundly reduces to reasoning about a
// transformed program under sequential consistency, and because the
// transformation does not touch the scheduler it is modular with respect
// to the trace-space partitioning.
//
// The transformation models PSO (partial store order) with per-thread,
// per-variable store buffers of depth one:
//
//   - a store to a shared scalar goes into a thread-local buffer
//     (invisible to other threads) instead of memory;
//   - a load of a shared scalar forwards from the thread's own buffer
//     when it holds a pending store, otherwise reads memory;
//   - before every access to shared state the thread may
//     non-deterministically flush any subset of its pending stores
//     (per-variable independence is exactly PSO's reordering freedom);
//   - a second store to an already-buffered variable forces a flush
//     first, preserving per-location program order (the depth bound is
//     the usual bounded under-approximation of the buffer);
//   - lock/unlock, create/join, and atomic blocks act as full fences,
//     and every thread flushes its buffers before terminating.
//
// TSO differs from PSO only by enforcing FIFO order between stores to
// different locations; the per-variable buffers deliberately drop that
// constraint, so the classic message-passing litmus test fails here
// while it would pass under TSO (see the package tests).
package weakmem

import (
	"fmt"

	"repro/prog"
)

// Transform returns a new program whose SC behaviours are the PSO
// behaviours of p. Only scalar globals are buffered; arrays and mutexes
// retain their SC semantics (as in the cited encodings, synchronisation
// objects are fenced anyway). Each procedure must be used by at most one
// thread (the transformation gives every procedure one private buffer
// set); the checker's rules otherwise apply unchanged.
func Transform(p *prog.Program) (*prog.Program, error) {
	globals := scalarGlobals(p)
	return transform(p, globals, pso{globals}, "-pso", "transformed")
}

// scalarGlobals are the globals a store buffer holds.
func scalarGlobals(p *prog.Program) []prog.Decl {
	var out []prog.Decl
	for _, g := range p.Globals {
		if g.Type.Kind != prog.KindMutex && !g.Type.IsArray() {
			out = append(out, g)
		}
	}
	return out
}

// model is one store-buffer model: everything Transform and TransformTSO
// do differently. The walk over procedures and statements (transformer)
// is the same for both; prog.MapRefs walks the expressions. Buffered
// globals are named by their index in the list the model was built with.
type model interface {
	// prefix starts the name of every fresh local.
	prefix() string
	// buffers declares one procedure's buffer locals and returns the
	// statements that empty them (locals start non-deterministic).
	buffers() ([]prog.Decl, []prog.Stmt)
	// load leaves in tmp what the thread reads from global i: its own
	// youngest pending store to it, otherwise memory.
	load(i int, tmp string) []prog.Stmt
	// store buffers a store of rhs (already read-rewritten) to global i.
	store(i int, rhs prog.Expr) []prog.Stmt
	// maybeFlush is the flush point before a shared access: the pending
	// stores the model lets drain there, each under t.flushChoice.
	maybeFlush(t *transformer, np *prog.Proc) []prog.Stmt
	// fence drains every pending store.
	fence(t *transformer, np *prog.Proc) []prog.Stmt
}

func transform(p *prog.Program, buffered []prog.Decl, m model, suffix, what string) (*prog.Program, error) {
	t := &transformer{m: m, buffered: buffered}
	out := &prog.Program{
		Name:    p.Name + suffix,
		Globals: append([]prog.Decl{}, p.Globals...),
	}
	for _, pr := range p.Procs {
		out.Procs = append(out.Procs, t.proc(pr))
	}
	if err := prog.Check(out); err != nil {
		return nil, fmt.Errorf("weakmem: %s program invalid: %w", what, err)
	}
	return out, nil
}

type transformer struct {
	m        model
	buffered []prog.Decl
	fresh    int
}

func (t *transformer) index(name string) (int, bool) {
	for i, g := range t.buffered {
		if g.Name == name {
			return i, true
		}
	}
	return 0, false
}

// freshLocal declares a new local of np.
func (t *transformer) freshLocal(np *prog.Proc, hint string, typ prog.Type) string {
	t.fresh++
	name := fmt.Sprintf("%s%s%d", t.m.prefix(), hint, t.fresh)
	np.Locals = append(np.Locals, prog.Decl{Name: name, Type: typ})
	return name
}

// flushChoice lets one pending store drain or stay: drain runs when a
// fresh non-deterministic choice is set and pending holds.
func (t *transformer) flushChoice(np *prog.Proc, pending string, drain []prog.Stmt) []prog.Stmt {
	choice := t.freshLocal(np, "fl", prog.Bool)
	return []prog.Stmt{
		&prog.AssignStmt{LHS: &prog.VarRef{Name: choice}, RHS: &prog.Nondet{}},
		&prog.IfStmt{
			Cond: &prog.BinaryExpr{Op: prog.OpLAnd,
				X: &prog.VarRef{Name: choice},
				Y: &prog.VarRef{Name: pending}},
			Then: drain,
		},
	}
}

// proc transforms one procedure body.
func (t *transformer) proc(pr *prog.Proc) *prog.Proc {
	np := &prog.Proc{
		Name:   pr.Name,
		Params: append([]prog.Decl{}, pr.Params...),
		Ret:    pr.Ret,
		Locals: append([]prog.Decl{}, pr.Locals...),
	}
	locals, init := t.m.buffers()
	np.Locals = append(np.Locals, locals...)
	body := t.stmts(np, pr.Body)
	// Terminating threads drain their buffers (their stores must become
	// visible before join-ordered code runs).
	np.Body = append(init, append(body, t.m.fence(t, np)...)...)
	return np
}

func (t *transformer) stmts(np *prog.Proc, in []prog.Stmt) []prog.Stmt {
	var out []prog.Stmt
	for _, s := range in {
		out = append(out, t.stmt(np, s)...)
	}
	return out
}

// rewriteReads replaces every read of a buffered global in e with a
// fresh local that is loaded beforehand with store-forwarding semantics.
// The returned prelude performs the loads.
func (t *transformer) rewriteReads(np *prog.Proc, e prog.Expr) ([]prog.Stmt, prog.Expr) {
	var prelude []prog.Stmt
	loaded := map[int]string{} // buffered global -> temp holding its value
	ne := prog.MapRefs(e, func(lv prog.LValue) prog.Expr {
		i, ok := t.index(lv.BaseName())
		if !ok {
			return lv
		}
		tmp, seen := loaded[i]
		if !seen {
			tmp = t.freshLocal(np, "ld", prog.Type{Kind: t.buffered[i].Type.Kind})
			loaded[i] = tmp
			prelude = append(prelude, t.m.load(i, tmp)...)
		}
		return &prog.VarRef{Name: tmp}
	})
	return prelude, ne
}

// args rewrites the reads of a call's or create's arguments.
func (t *transformer) args(np *prog.Proc, in []prog.Expr) ([]prog.Stmt, []prog.Expr) {
	var out []prog.Stmt
	args := make([]prog.Expr, len(in))
	for i, a := range in {
		var prelude []prog.Stmt
		prelude, args[i] = t.rewriteReads(np, a)
		out = append(out, prelude...)
	}
	return out, args
}

func (t *transformer) stmt(np *prog.Proc, s prog.Stmt) []prog.Stmt {
	switch st := s.(type) {
	case *prog.AssignStmt:
		var out []prog.Stmt
		// Arrays are never buffered: only a scalar LHS is a store.
		i, buffered := t.index(st.LHS.BaseName())
		if buffered || t.touches(st.RHS) {
			out = append(out, t.m.maybeFlush(t, np)...)
		}
		prelude, rhs := t.rewriteReads(np, st.RHS)
		out = append(out, prelude...)
		if buffered {
			return append(out, t.m.store(i, rhs)...)
		}
		lhs := st.LHS
		if ir, ok := st.LHS.(*prog.IndexRef); ok {
			ip, idx := t.rewriteReads(np, ir.Index)
			out = append(out, ip...)
			lhs = &prog.IndexRef{Name: ir.Name, Index: idx}
		}
		return append(out, &prog.AssignStmt{LHS: lhs, RHS: rhs})
	case *prog.AssumeStmt:
		out, c := t.cond(np, st.Cond)
		return append(out, &prog.AssumeStmt{Cond: c})
	case *prog.AssertStmt:
		out, c := t.cond(np, st.Cond)
		return append(out, &prog.AssertStmt{Cond: c})
	case *prog.IfStmt:
		out, c := t.cond(np, st.Cond)
		then := t.stmts(np, st.Then)
		return append(out, &prog.IfStmt{Cond: c, Then: then, Else: t.stmts(np, st.Else)})
	case *prog.WhileStmt:
		// Hoist the condition into a temp re-evaluated at the end of each
		// iteration, so buffered reads happen at well-defined points.
		condVar := t.freshLocal(np, "wc", prog.Bool)
		eval := func() []prog.Stmt {
			out, c := t.cond(np, st.Cond)
			return append(out, &prog.AssignStmt{LHS: &prog.VarRef{Name: condVar}, RHS: c})
		}
		head := eval()
		body := t.stmts(np, st.Body)
		return append(head, &prog.WhileStmt{
			Cond: &prog.VarRef{Name: condVar},
			Body: append(body, eval()...),
		})
	case *prog.CallStmt:
		// Calls are inlined later; arguments may read buffered globals.
		out, args := t.args(np, st.Args)
		return append(out, &prog.CallStmt{Proc: st.Proc, Args: args, Result: st.Result})
	case *prog.CreateStmt:
		// Thread creation is a release fence.
		out := t.m.fence(t, np)
		prelude, args := t.args(np, st.Args)
		out = append(out, prelude...)
		return append(out, &prog.CreateStmt{Tid: st.Tid, Proc: st.Proc, Args: args})
	case *prog.JoinStmt:
		// Join is an acquire fence (and the joined thread drained its
		// buffers before terminating).
		prelude, tid := t.rewriteReads(np, st.Tid)
		out := append(t.m.fence(t, np), prelude...)
		return append(out, &prog.JoinStmt{Tid: tid})
	case *prog.LockStmt, *prog.UnlockStmt:
		return append(t.m.fence(t, np), st)
	case *prog.AtomicStmt:
		// Atomic blocks are fenced and execute with SC semantics inside.
		return []prog.Stmt{&prog.AtomicStmt{Body: append(t.m.fence(t, np), st.Body...)}}
	case *prog.ReturnStmt:
		// Drain before leaving the procedure.
		out := t.m.fence(t, np)
		if st.Value == nil {
			return append(out, st)
		}
		prelude, v := t.rewriteReads(np, st.Value)
		out = append(out, prelude...)
		return append(out, &prog.ReturnStmt{Value: v})
	case *prog.BlockStmt:
		return []prog.Stmt{&prog.BlockStmt{Body: t.stmts(np, st.Body)}}
	}
	// Init and destroy pass through, and so does a nil statement, for the
	// output's prog.Check to refuse.
	return []prog.Stmt{s}
}

// cond is the read side of a statement that tests e: a flush point if e
// touches a buffered global, then the loads. It returns the rewritten e.
func (t *transformer) cond(np *prog.Proc, e prog.Expr) ([]prog.Stmt, prog.Expr) {
	var out []prog.Stmt
	if t.touches(e) {
		out = t.m.maybeFlush(t, np)
	}
	prelude, c := t.rewriteReads(np, e)
	return append(out, prelude...), c
}

// touches reports whether e reads a buffered global.
func (t *transformer) touches(e prog.Expr) bool {
	return prog.Mentions(e, func(name string) bool {
		_, ok := t.index(name)
		return ok
	})
}

// pso is the PSO model: one buffer of depth one per thread and global,
// wmbuf_g holding the pending value and wmdirty_g whether there is one.
type pso struct{ globals []prog.Decl }

func bufName(g string) string   { return "wmbuf_" + g }
func dirtyName(g string) string { return "wmdirty_" + g }

func (pso) prefix() string { return "wm" }

func (m pso) buffers() (locals []prog.Decl, init []prog.Stmt) {
	for _, g := range m.globals {
		locals = append(locals,
			prog.Decl{Name: bufName(g.Name), Type: prog.Type{Kind: g.Type.Kind}},
			prog.Decl{Name: dirtyName(g.Name), Type: prog.Bool},
		)
		init = append(init, &prog.AssignStmt{
			LHS: &prog.VarRef{Name: dirtyName(g.Name)},
			RHS: &prog.BoolLit{Value: false},
		})
	}
	return locals, init
}

// load: tmp = dirty ? buf : memory (store forwarding).
func (m pso) load(i int, tmp string) []prog.Stmt {
	g := m.globals[i].Name
	return []prog.Stmt{&prog.IfStmt{
		Cond: &prog.VarRef{Name: dirtyName(g)},
		Then: []prog.Stmt{&prog.AssignStmt{LHS: &prog.VarRef{Name: tmp}, RHS: &prog.VarRef{Name: bufName(g)}}},
		Else: []prog.Stmt{&prog.AssignStmt{LHS: &prog.VarRef{Name: tmp}, RHS: &prog.VarRef{Name: g}}},
	}}
}

// store: forced per-location flush, then buffer the value.
func (m pso) store(i int, rhs prog.Expr) []prog.Stmt {
	g := m.globals[i].Name
	return []prog.Stmt{
		m.drainIfDirty(g),
		&prog.AssignStmt{LHS: &prog.VarRef{Name: bufName(g)}, RHS: rhs},
		&prog.AssignStmt{LHS: &prog.VarRef{Name: dirtyName(g)}, RHS: &prog.BoolLit{Value: true}},
	}
}

// maybeFlush: each pending store may independently drain to memory (PSO
// freedom).
func (m pso) maybeFlush(t *transformer, np *prog.Proc) []prog.Stmt {
	var out []prog.Stmt
	for _, g := range m.globals {
		out = append(out, t.flushChoice(np, dirtyName(g.Name), m.drain(g.Name))...)
	}
	return out
}

// fence: a non-deterministic flush round precedes the deterministic
// drain so the stores can become visible in any order (PSO does not
// order stores to different locations), with context switches possible
// between the individual drains.
func (m pso) fence(t *transformer, np *prog.Proc) []prog.Stmt {
	out := m.maybeFlush(t, np)
	for _, g := range m.globals {
		out = append(out, m.drainIfDirty(g.Name))
	}
	return out
}

func (m pso) drainIfDirty(g string) prog.Stmt {
	return &prog.IfStmt{Cond: &prog.VarRef{Name: dirtyName(g)}, Then: m.drain(g)}
}

// drain writes the buffered value to memory and clears the dirty bit.
func (pso) drain(g string) []prog.Stmt {
	return []prog.Stmt{
		&prog.AssignStmt{LHS: &prog.VarRef{Name: g}, RHS: &prog.VarRef{Name: bufName(g)}},
		&prog.AssignStmt{LHS: &prog.VarRef{Name: dirtyName(g)}, RHS: &prog.BoolLit{Value: false}},
	}
}
