// Package flatten lowers the unfolded (loop-free, call-free) bounded
// program into flat guarded step lists, the form consumed by both the
// symbolic encoder and the concrete interpreter.
//
// Each thread body is if-converted: every conditional allocates a fresh
// Boolean guard local assigned once, and the statements of the two
// branches become straight-line steps predicated on the guard (and its
// negation). The resulting steps are grouped into blocks: block k consists
// of the k-th visible step (one that touches shared state, or a
// concurrency operation) together with the invisible (thread-local) steps
// glued to it. Context switches happen exactly at block boundaries, which
// matches the visible-statement granularity of the paper's lazy
// sequentialization (Sect. 2.2): a thread's program counter counts
// executed blocks, and simulating an execution context for thread t from
// pc to cs means running blocks pc..cs-1.
package flatten

import (
	"fmt"

	"repro/internal/unfold"
	"repro/prog"
)

// Program is the flattened bounded program.
type Program struct {
	// Globals are the shared variables (mutexes already lowered to int).
	Globals []prog.Decl
	// Threads are the flattened threads; index = static thread id.
	Threads []*Thread
}

// MaxThreadSize returns the largest block count over all threads.
func (p *Program) MaxThreadSize() int {
	max := 0
	for _, t := range p.Threads {
		if len(t.Blocks) > max {
			max = len(t.Blocks)
		}
	}
	return max
}

// NumSteps returns the total number of steps over all threads.
func (p *Program) NumSteps() int {
	n := 0
	for _, t := range p.Threads {
		for _, b := range t.Blocks {
			n += len(b)
		}
	}
	return n
}

// Thread is one flattened thread.
type Thread struct {
	// ID is the static thread index (0 = main).
	ID int
	// Proc is the source procedure name.
	Proc string
	// Params are the parameter declarations (flat names).
	Params []prog.Decl
	// Locals are all locals, including parameters and guard temporaries.
	Locals []prog.Decl
	// Blocks is the guarded step list grouped by visible point;
	// len(Blocks) is the thread size (the size[t] array of Fig. 3/5).
	Blocks [][]Step
}

// Size returns the number of blocks (visible points) of the thread.
func (t *Thread) Size() int { return len(t.Blocks) }

// Guard is a reference to a Boolean guard local, possibly negated.
type Guard struct {
	Name string
	Neg  bool
}

func (g Guard) String() string {
	if g.Neg {
		return "!" + g.Name
	}
	return g.Name
}

// Step is one atomic guarded operation.
type Step struct {
	// Guards must all hold for the step to take effect.
	Guards []Guard
	// Op is the operation.
	Op Op
}

func (s Step) String() string {
	if len(s.Guards) == 0 {
		return fmt.Sprintf("%v", s.Op)
	}
	return fmt.Sprintf("[%v] %v", s.Guards, s.Op)
}

// Op is the operation of a step.
type Op interface{ op() }

// AssignOp assigns RHS (possibly Nondet) to LHS.
type AssignOp struct {
	LHS prog.LValue
	RHS prog.Expr
}

// AssumeOp constrains executions.
type AssumeOp struct{ Cond prog.Expr }

// AssertOp checks a property.
type AssertOp struct {
	Cond prog.Expr
	// Src describes the assertion's origin for error reports.
	Src string
}

// LockOp acquires a mutex: blocks (assume m=0), then sets m := tid+1.
type LockOp struct{ Mutex string }

// UnlockOp releases a mutex: m := 0.
type UnlockOp struct{ Mutex string }

// ArgCopy delivers one thread argument into the spawned thread's
// parameter local.
type ArgCopy struct {
	Dest string // flat parameter name of the target thread
	Src  prog.Expr
}

// CreateOp activates the statically numbered target thread, copies the
// arguments, and stores the thread id into Tid.
type CreateOp struct {
	Target int
	Tid    prog.LValue
	Args   []ArgCopy
}

// JoinOp blocks until the thread identified by Tid has terminated.
type JoinOp struct{ Tid prog.Expr }

func (*AssignOp) op() {}
func (*AssumeOp) op() {}
func (*AssertOp) op() {}
func (*LockOp) op()   {}
func (*UnlockOp) op() {}
func (*CreateOp) op() {}
func (*JoinOp) op()   {}

// Flatten lowers the unfolded program.
func Flatten(u *unfold.Program) (*Program, error) {
	globals := map[string]bool{}
	for _, g := range u.Globals {
		globals[g.Name] = true
	}
	out := &Program{Globals: u.Globals}
	for _, th := range u.Threads {
		ft, err := flattenThread(u, th, globals)
		if err != nil {
			return nil, err
		}
		out.Threads = append(out.Threads, ft)
	}
	return out, nil
}

type flattener struct {
	u       *unfold.Program
	globals map[string]bool
	thread  *unfold.Thread

	locals []prog.Decl
	fresh  int

	// groups is the ordered list of step groups; each group is atomic
	// (never split across blocks) and classified visible or invisible.
	groups []group
}

type group struct {
	steps   []Step
	visible bool
	// open marks an atomic group still accepting steps.
	open bool
}

func flattenThread(u *unfold.Program, th *unfold.Thread, globals map[string]bool) (*Thread, error) {
	f := &flattener{u: u, globals: globals, thread: th}
	f.locals = append(f.locals, th.Locals...)
	if err := f.stmts(th.Body, nil, false); err != nil {
		return nil, err
	}
	blocks := assembleBlocks(f.groups)
	return &Thread{
		ID:     th.ID,
		Proc:   th.Proc,
		Params: th.Params,
		Locals: f.locals,
		Blocks: blocks,
	}, nil
}

// assembleBlocks groups the ordered step groups into blocks, one per
// visible group, gluing invisible groups to the preceding visible one
// (and the leading invisible prefix to the first block).
func assembleBlocks(groups []group) [][]Step {
	var blocks [][]Step
	var prefix []Step // invisible steps seen before the first visible group
	for _, g := range groups {
		if g.visible {
			blk := append(prefix, g.steps...)
			prefix = nil
			blocks = append(blocks, blk)
		} else {
			if len(blocks) == 0 {
				prefix = append(prefix, g.steps...)
			} else {
				blocks[len(blocks)-1] = append(blocks[len(blocks)-1], g.steps...)
			}
		}
	}
	if len(prefix) > 0 {
		// No visible steps at all: a single purely-local block.
		blocks = append(blocks, prefix)
	}
	return blocks
}

func (f *flattener) emit(guards []Guard, op Op, visible bool, atomicDepth int) {
	step := Step{Guards: append([]Guard(nil), guards...), Op: op}
	if atomicDepth > 0 && len(f.groups) > 0 && f.groups[len(f.groups)-1].open {
		last := &f.groups[len(f.groups)-1]
		last.steps = append(last.steps, step)
		last.visible = last.visible || visible
		return
	}
	f.groups = append(f.groups, group{steps: []Step{step}, visible: visible, open: atomicDepth > 0})
}

func (f *flattener) freshGuard() prog.Decl {
	f.fresh++
	d := prog.Decl{Name: fmt.Sprintf("guard$%d@%d", f.fresh, f.thread.ID), Type: prog.Bool}
	f.locals = append(f.locals, d)
	return d
}

// touchesGlobal reports whether the expression or l-value refers to
// shared state.
func (f *flattener) touchesGlobal(e prog.Expr) bool {
	return prog.Mentions(e, func(name string) bool { return f.globals[name] })
}

func (f *flattener) stmts(in []prog.Stmt, guards []Guard, atomic bool) error {
	for _, s := range in {
		if err := f.stmt(s, guards, atomic); err != nil {
			return err
		}
	}
	return nil
}

func (f *flattener) stmt(s prog.Stmt, guards []Guard, atomic bool) error {
	ad := 0
	if atomic {
		ad = 1
	}
	switch st := s.(type) {
	case *prog.AssignStmt:
		vis := f.touchesGlobal(st.LHS) || f.touchesGlobal(st.RHS)
		f.emit(guards, &AssignOp{LHS: st.LHS, RHS: st.RHS}, vis, ad)
		return nil
	case *prog.AssumeStmt:
		f.emit(guards, &AssumeOp{Cond: st.Cond}, f.touchesGlobal(st.Cond), ad)
		return nil
	case *prog.AssertStmt:
		f.emit(guards, &AssertOp{Cond: st.Cond, Src: st.String()}, f.touchesGlobal(st.Cond), ad)
		return nil
	case *prog.IfStmt:
		g := f.freshGuard()
		vis := f.touchesGlobal(st.Cond)
		f.emit(guards, &AssignOp{LHS: &prog.VarRef{Name: g.Name}, RHS: st.Cond}, vis, ad)
		thenGuards := append(append([]Guard{}, guards...), Guard{Name: g.Name})
		elseGuards := append(append([]Guard{}, guards...), Guard{Name: g.Name, Neg: true})
		if err := f.stmts(st.Then, thenGuards, atomic); err != nil {
			return err
		}
		return f.stmts(st.Else, elseGuards, atomic)
	case *prog.CreateStmt:
		target, ok := f.u.CreateTarget[st]
		if !ok {
			return fmt.Errorf("flatten: create without a static target")
		}
		tgt := f.u.Threads[target]
		op := &CreateOp{Target: target, Tid: st.Tid}
		for i, a := range st.Args {
			op.Args = append(op.Args, ArgCopy{Dest: tgt.Params[i].Name, Src: a})
		}
		f.emit(guards, op, true, ad)
		return nil
	case *prog.JoinStmt:
		f.emit(guards, &JoinOp{Tid: st.Tid}, true, ad)
		return nil
	case *prog.LockStmt:
		f.emit(guards, &LockOp{Mutex: st.Mutex}, true, ad)
		return nil
	case *prog.UnlockStmt:
		f.emit(guards, &UnlockOp{Mutex: st.Mutex}, true, ad)
		return nil
	case *prog.AtomicStmt:
		if atomic {
			// Nested atomic blocks merge into the enclosing group.
			return f.stmts(st.Body, guards, true)
		}
		// Open a fresh atomic group: every step inside lands in one block.
		f.groups = append(f.groups, group{open: true})
		if err := f.stmts(st.Body, guards, true); err != nil {
			return err
		}
		// Close the group (and drop it if it stayed empty).
		if len(f.groups) > 0 && f.groups[len(f.groups)-1].open {
			last := &f.groups[len(f.groups)-1]
			last.open = false
			if len(last.steps) == 0 {
				f.groups = f.groups[:len(f.groups)-1]
			}
		}
		return nil
	case *prog.BlockStmt:
		return f.stmts(st.Body, guards, atomic)
	}
	return fmt.Errorf("flatten: unexpected statement %T after unfolding", s)
}
