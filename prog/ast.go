// Package prog defines non-deterministic multi-threaded programs in the
// C-like language of the paper (Fig. 1): shared global variables, threads
// with local variables, assume/assert, non-deterministic values, dynamic
// thread creation and join, and mutexes, under the POSIX-style execution
// model of Sect. 2.1 (sequential consistency, atomic statements, context
// switches at visible statements).
//
// The package provides the abstract syntax tree, a lexer and parser for a
// concrete C-like syntax, a semantic checker, and a pretty printer. Two
// extensions beyond Fig. 1 are supported because the benchmark programs
// need them: fixed-size arrays and atomic blocks (several statements
// executed without intervening context switch, used to model the
// compare-and-swap primitives of the lock-free benchmarks). Labels and
// goto are not supported; the paper's own benchmarks are structured.
package prog

import "fmt"

// Kind enumerates the base types of the language.
type Kind int

const (
	// KindVoid is the type of procedures without a return value.
	KindVoid Kind = iota
	// KindBool is the Boolean type.
	KindBool
	// KindInt is the bounded integer type (bit-width fixed at analysis time).
	KindInt
	// KindMutex is the mutex type.
	KindMutex
)

func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindMutex:
		return "mutex"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Type is a scalar or fixed-size array type.
type Type struct {
	Kind Kind
	// ArrayLen is 0 for scalars, otherwise the fixed array length.
	ArrayLen int
}

// IsArray reports whether the type is an array type.
func (t Type) IsArray() bool { return t.ArrayLen > 0 }

func (t Type) String() string {
	if t.IsArray() {
		return fmt.Sprintf("%s[%d]", t.Kind, t.ArrayLen)
	}
	return t.Kind.String()
}

// Common scalar types.
var (
	Void  = Type{Kind: KindVoid}
	Bool  = Type{Kind: KindBool}
	Int   = Type{Kind: KindInt}
	Mutex = Type{Kind: KindMutex}
)

// Decl declares a variable.
type Decl struct {
	Name string
	Type Type
}

// Program is a multi-threaded program: shared globals plus procedures,
// one of which must be called "main" (the initial thread).
type Program struct {
	// Name is an optional human-readable program name.
	Name string
	// Globals are the shared variables, initialised to zero/false.
	Globals []Decl
	// Procs are the procedure definitions.
	Procs []*Proc
}

// Proc is a procedure definition. Parameters have an implicit
// call-by-reference semantics when the argument is an l-value (paper
// Sect. 2.1); other arguments behave as by-value.
type Proc struct {
	Name   string
	Params []Decl
	Ret    Type // Void if none
	Locals []Decl
	Body   []Stmt
}

// Proc returns the procedure with the given name, or nil.
func (p *Program) Proc(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// Main returns the main procedure, or nil.
func (p *Program) Main() *Proc { return p.Proc("main") }

// Stmt is a program statement.
type Stmt interface {
	stmt()
	String() string
}

// Expr is a program expression.
type Expr interface {
	expr()
	String() string
}

// --- Statements ---

// AssumeStmt blocks executions whose condition is false.
type AssumeStmt struct{ Cond Expr }

// AssertStmt reports a violation when the condition is false.
type AssertStmt struct{ Cond Expr }

// AssignStmt assigns RHS to LHS. RHS may be Nondet.
type AssignStmt struct {
	LHS LValue
	RHS Expr
}

// CallStmt invokes a procedure (inlined during unfolding).
type CallStmt struct {
	Proc string
	Args []Expr
	// Result optionally receives the procedure's return value; nil if the
	// call is used as a statement.
	Result LValue
}

// ReturnStmt returns from the enclosing procedure.
type ReturnStmt struct{ Value Expr } // Value may be nil

// IfStmt is a conditional.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // may be nil
}

// WhileStmt is a loop, unwound up to the bound during unfolding.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
}

// CreateStmt spawns a new thread running Proc with the given arguments
// and stores the fresh thread identifier into Tid.
type CreateStmt struct {
	Tid  LValue
	Proc string
	Args []Expr
}

// JoinStmt blocks until the thread identified by Tid has terminated.
type JoinStmt struct{ Tid Expr }

// LockStmt acquires a mutex (blocking).
type LockStmt struct{ Mutex string }

// UnlockStmt releases a mutex.
type UnlockStmt struct{ Mutex string }

// InitStmt initialises a mutex (a no-op under the default-zero semantics,
// kept for source fidelity).
type InitStmt struct{ Mutex string }

// DestroyStmt destroys a mutex.
type DestroyStmt struct{ Mutex string }

// AtomicStmt executes its body without intervening context switches
// (extension; models compare-and-swap style primitives).
type AtomicStmt struct{ Body []Stmt }

// BlockStmt groups statements (scoping is flat: locals are per-procedure).
type BlockStmt struct{ Body []Stmt }

func (*AssumeStmt) stmt()  {}
func (*AssertStmt) stmt()  {}
func (*AssignStmt) stmt()  {}
func (*CallStmt) stmt()    {}
func (*ReturnStmt) stmt()  {}
func (*IfStmt) stmt()      {}
func (*WhileStmt) stmt()   {}
func (*CreateStmt) stmt()  {}
func (*JoinStmt) stmt()    {}
func (*LockStmt) stmt()    {}
func (*UnlockStmt) stmt()  {}
func (*InitStmt) stmt()    {}
func (*DestroyStmt) stmt() {}
func (*AtomicStmt) stmt()  {}
func (*BlockStmt) stmt()   {}

// mutexName is the mutex a lock, unlock, init or destroy names.
func (s *LockStmt) mutexName() string    { return s.Mutex }
func (s *UnlockStmt) mutexName() string  { return s.Mutex }
func (s *InitStmt) mutexName() string    { return s.Mutex }
func (s *DestroyStmt) mutexName() string { return s.Mutex }

// --- L-values ---

// LValue is an assignable location: a variable or an array element.
type LValue interface {
	Expr
	lvalue()
	// BaseName returns the variable name the l-value refers to.
	BaseName() string
}

// VarRef names a scalar variable.
type VarRef struct{ Name string }

// IndexRef names an array element a[idx].
type IndexRef struct {
	Name  string
	Index Expr
}

func (*VarRef) expr()     {}
func (*VarRef) lvalue()   {}
func (*IndexRef) expr()   {}
func (*IndexRef) lvalue() {}

// BaseName returns the referenced variable name.
func (v *VarRef) BaseName() string { return v.Name }

// BaseName returns the indexed array name.
func (i *IndexRef) BaseName() string { return i.Name }

// --- Expressions ---

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// BoolLit is a Boolean literal.
type BoolLit struct{ Value bool }

// Nondet is the non-deterministic value `*`.
type Nondet struct{}

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNeg    UnOp = iota // -x
	OpNot                // !x
	OpBitNot             // ~x
)

// UnaryExpr applies a unary operator.
type UnaryExpr struct {
	Op UnOp
	X  Expr
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd // bitwise &
	OpOr  // bitwise |
	OpXor
	OpShl
	OpShr
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpLAnd // logical &&
	OpLOr  // logical ||
)

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	X, Y Expr
}

func (*IntLit) expr()     {}
func (*BoolLit) expr()    {}
func (*Nondet) expr()     {}
func (*UnaryExpr) expr()  {}
func (*BinaryExpr) expr() {}
