package weakmem

import (
	"fmt"

	"repro/prog"
)

// TransformTSO returns a program whose SC behaviours are the TSO (total
// store order) behaviours of p, modelled with a per-thread FIFO store
// buffer of bounded depth: stores append to the queue, loads forward
// from the youngest matching entry, and the buffer drains strictly from
// the head, so stores to different locations become visible in program
// order — the constraint PSO drops. Flushing remains non-deterministic
// (any prefix of the queue may drain before each shared access), fences
// (lock/unlock, create/join, atomic blocks, thread exit) drain the whole
// queue, and a store into a full queue forces the head out first (the
// usual bounded under-approximation of the hardware buffer).
//
// The queue stores variable indices and values uniformly, so TSO
// transformation requires every buffered global to be an int scalar
// (mutexes and arrays keep SC semantics as in TransformPSO; Boolean
// globals are rejected). Depth is the buffer capacity (default 2, enough
// to exhibit every two-store litmus idiom).
func TransformTSO(p *prog.Program, depth int) (*prog.Program, error) {
	if depth <= 0 {
		depth = 2
	}
	globals := scalarGlobals(p)
	for _, g := range globals {
		if g.Type.Kind != prog.KindInt {
			return nil, fmt.Errorf("weakmem: TSO transformation requires int globals, %q is %s", g.Name, g.Type)
		}
	}
	return transform(p, globals, tso{globals, depth}, "-tso", "TSO-transformed")
}

// tso is the TSO model: one FIFO queue of depth entries per thread, slot
// k holding the index of the stored global (wmqvar), the value (wmqval)
// and whether the slot is occupied (wmqok); slot 1 is the head.
type tso struct {
	globals []prog.Decl
	depth   int
}

func qVar(k int) string   { return fmt.Sprintf("wmqvar%d", k) }
func qVal(k int) string   { return fmt.Sprintf("wmqval%d", k) }
func qValid(k int) string { return fmt.Sprintf("wmqok%d", k) }

func (tso) prefix() string { return "wmt" }

func (m tso) buffers() (locals []prog.Decl, init []prog.Stmt) {
	for k := 1; k <= m.depth; k++ {
		locals = append(locals,
			prog.Decl{Name: qVar(k), Type: prog.Int},
			prog.Decl{Name: qVal(k), Type: prog.Int},
			prog.Decl{Name: qValid(k), Type: prog.Bool},
		)
		init = append(init, &prog.AssignStmt{
			LHS: &prog.VarRef{Name: qValid(k)},
			RHS: &prog.BoolLit{Value: false},
		})
	}
	return locals, init
}

// drainHead writes the head entry to memory (static dispatch over the
// buffered globals) and shifts the queue forward.
func (m tso) drainHead() []prog.Stmt {
	var out []prog.Stmt
	for i, g := range m.globals {
		out = append(out, &prog.IfStmt{
			Cond: &prog.BinaryExpr{Op: prog.OpEq,
				X: &prog.VarRef{Name: qVar(1)}, Y: &prog.IntLit{Value: int64(i)}},
			Then: []prog.Stmt{&prog.AssignStmt{
				LHS: &prog.VarRef{Name: g.Name},
				RHS: &prog.VarRef{Name: qVal(1)},
			}},
		})
	}
	// Shift the queue towards the head.
	for k := 1; k < m.depth; k++ {
		out = append(out,
			&prog.AssignStmt{LHS: &prog.VarRef{Name: qVar(k)}, RHS: &prog.VarRef{Name: qVar(k + 1)}},
			&prog.AssignStmt{LHS: &prog.VarRef{Name: qVal(k)}, RHS: &prog.VarRef{Name: qVal(k + 1)}},
			&prog.AssignStmt{LHS: &prog.VarRef{Name: qValid(k)}, RHS: &prog.VarRef{Name: qValid(k + 1)}},
		)
	}
	return append(out, &prog.AssignStmt{
		LHS: &prog.VarRef{Name: qValid(m.depth)},
		RHS: &prog.BoolLit{Value: false},
	})
}

// maybeFlush lets any prefix of the queue drain (FIFO: only head-first,
// which is exactly TSO's ordering guarantee).
func (m tso) maybeFlush(t *transformer, np *prog.Proc) []prog.Stmt {
	var out []prog.Stmt
	for k := 0; k < m.depth; k++ {
		out = append(out, t.flushChoice(np, qValid(1), m.drainHead())...)
	}
	return out
}

// fence empties the queue, head first.
func (m tso) fence(*transformer, *prog.Proc) []prog.Stmt {
	var out []prog.Stmt
	for k := 0; k < m.depth; k++ {
		out = append(out, &prog.IfStmt{
			Cond: &prog.VarRef{Name: qValid(1)},
			Then: m.drainHead(),
		})
	}
	return out
}

// load reads memory first, then the queue entries head to tail, so the
// youngest pending store wins.
func (m tso) load(i int, tmp string) []prog.Stmt {
	out := []prog.Stmt{&prog.AssignStmt{
		LHS: &prog.VarRef{Name: tmp},
		RHS: &prog.VarRef{Name: m.globals[i].Name},
	}}
	for k := 1; k <= m.depth; k++ {
		out = append(out, &prog.IfStmt{
			Cond: &prog.BinaryExpr{Op: prog.OpLAnd,
				X: &prog.VarRef{Name: qValid(k)},
				Y: &prog.BinaryExpr{Op: prog.OpEq,
					X: &prog.VarRef{Name: qVar(k)},
					Y: &prog.IntLit{Value: int64(i)}}},
			Then: []prog.Stmt{&prog.AssignStmt{
				LHS: &prog.VarRef{Name: tmp},
				RHS: &prog.VarRef{Name: qVal(k)},
			}},
		})
	}
	return out
}

// store enqueues the store, forcing a head drain when the queue is full.
func (m tso) store(i int, rhs prog.Expr) []prog.Stmt {
	out := []prog.Stmt{
		// Full queue: the head must drain to make room.
		&prog.IfStmt{
			Cond: &prog.VarRef{Name: qValid(m.depth)},
			Then: m.drainHead(),
		},
	}
	// Append at the first free slot: the queue is compacted head-first,
	// so the slot after the last valid one is free. Built inside-out so
	// the outermost test finds the highest occupied predecessor.
	var stmt []prog.Stmt
	for k := 1; k <= m.depth; k++ {
		slot := []prog.Stmt{
			&prog.AssignStmt{LHS: &prog.VarRef{Name: qVar(k)}, RHS: &prog.IntLit{Value: int64(i)}},
			&prog.AssignStmt{LHS: &prog.VarRef{Name: qVal(k)}, RHS: rhs},
			&prog.AssignStmt{LHS: &prog.VarRef{Name: qValid(k)}, RHS: &prog.BoolLit{Value: true}},
		}
		if k == 1 {
			stmt = slot
		} else {
			stmt = []prog.Stmt{&prog.IfStmt{
				Cond: &prog.VarRef{Name: qValid(k - 1)},
				Then: slot,
				Else: stmt,
			}}
		}
	}
	return append(out, stmt...)
}
