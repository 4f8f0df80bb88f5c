package prog

import (
	"fmt"
	"strconv"
)

// Parse parses a program in the concrete C-like syntax of the paper.
// The result is checked for semantic validity (see Check).
func Parse(src string) (*Program, error) {
	p, err := ParseUnchecked(src)
	if err != nil {
		return nil, err
	}
	if err := Check(p); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseUnchecked parses without running the semantic checker.
func ParseUnchecked(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	pr := &parser{toks: toks}
	prog, err := pr.parseProgram()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse parses src and panics on error; intended for tests and for
// the built-in benchmark programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	return fmt.Errorf("prog: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

// expectPunct consumes the given punctuation tokens, in order.
func (p *parser) expectPunct(ss ...string) error {
	for _, s := range ss {
		if !p.isPunct(s) {
			return p.errf("expected %q, found %s", s, p.cur())
		}
		p.next()
	}
	return nil
}

func (p *parser) isPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}

func (p *parser) isKeyword(s string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == s
}

var typeOf = map[string]Type{"void": Void, "bool": Bool, "int": Int, "mutex": Mutex}

func (p *parser) atType() bool {
	_, ok := typeOf[p.cur().text]
	return ok && p.cur().kind == tokKeyword
}

// parseTypedName parses "type name" at a type keyword; what names the
// name in the error when it is missing.
func (p *parser) parseTypedName(what string) (Type, string, error) {
	typ := typeOf[p.next().text]
	if p.cur().kind != tokIdent {
		return Void, "", p.errf("expected %s, found %s", what, p.cur())
	}
	return typ, p.next().text, nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().kind != tokEOF {
		if !p.atType() {
			return nil, p.errf("expected a declaration or procedure, found %s", p.cur())
		}
		typ, name, err := p.parseTypedName("an identifier")
		if err != nil {
			return nil, err
		}
		if p.isPunct("(") {
			proc, err := p.parseProcRest(typ, name)
			if err != nil {
				return nil, err
			}
			prog.Procs = append(prog.Procs, proc)
			continue
		}
		decls, _, err := p.parseDeclRest(typ, name, false)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, decls...)
	}
	return prog, nil
}

// parseDeclRest parses the remainder of "type name ..." declarations:
// optional [N], with inits an optional "= expr" initialiser, optional
// comma-separated further names, terminating ';'. An initialiser
// becomes an assignment in place; globals have none (they are zero).
func (p *parser) parseDeclRest(typ Type, name string, inits bool) ([]Decl, []Stmt, error) {
	var decls []Decl
	var assigns []Stmt
	for {
		t := typ
		if p.isPunct("[") {
			p.next()
			if p.cur().kind != tokNumber {
				return nil, nil, p.errf("expected array length, found %s", p.cur())
			}
			n, err := strconv.Atoi(p.next().text)
			if err != nil || n <= 0 {
				return nil, nil, p.errf("invalid array length")
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, nil, err
			}
			t.ArrayLen = n
		}
		decls = append(decls, Decl{Name: name, Type: t})
		if inits && p.isPunct("=") {
			p.next()
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, nil, err
			}
			assigns = append(assigns, &AssignStmt{LHS: &VarRef{Name: name}, RHS: rhs})
		}
		if !p.isPunct(",") {
			return decls, assigns, p.expectPunct(";")
		}
		p.next()
		if p.cur().kind != tokIdent {
			return nil, nil, p.errf("expected an identifier, found %s", p.cur())
		}
		name = p.next().text
	}
}

func (p *parser) parseProcRest(ret Type, name string) (*Proc, error) {
	proc := &Proc{Name: name, Ret: ret}
	p.next() // '('
	for !p.isPunct(")") {
		if len(proc.Params) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		if !p.atType() {
			return nil, p.errf("expected a parameter type, found %s", p.cur())
		}
		typ, param, err := p.parseTypedName("a parameter name")
		if err != nil {
			return nil, err
		}
		proc.Params = append(proc.Params, Decl{Name: param, Type: typ})
	}
	p.next() // ')'
	body, err := p.parseBlock(proc)
	if err != nil {
		return nil, err
	}
	proc.Body = body
	return proc, nil
}

// parseBlock parses "{ statements }". Declarations may appear anywhere
// and are hoisted to the procedure's locals; initialisers become ordinary
// assignments in place.
func (p *parser) parseBlock(proc *Proc) ([]Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.isPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unexpected end of input, missing '}'")
		}
		if !p.atType() {
			s, err := p.parseStmt(proc)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			continue
		}
		typ, name, err := p.parseTypedName("an identifier")
		if err != nil {
			return nil, err
		}
		decls, inits, err := p.parseDeclRest(typ, name, true)
		if err != nil {
			return nil, err
		}
		proc.Locals = append(proc.Locals, decls...)
		out = append(out, inits...)
	}
	p.next() // '}'
	return out, nil
}

func (p *parser) parseBlockOrStmt(proc *Proc) ([]Stmt, error) {
	if p.isPunct("{") {
		return p.parseBlock(proc)
	}
	s, err := p.parseStmt(proc)
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

// parseStmt dispatches on the statement's first token. Keywords and
// punctuation never share their text with an identifier.
func (p *parser) parseStmt(proc *Proc) (Stmt, error) {
	t := p.cur()
	switch t.text {
	case "{":
		body, err := p.parseBlock(proc)
		if err != nil {
			return nil, err
		}
		return &BlockStmt{Body: body}, nil
	case "atomic":
		p.next()
		body, err := p.parseBlock(proc)
		if err != nil {
			return nil, err
		}
		return &AtomicStmt{Body: body}, nil
	case "if":
		return p.parseIf(proc)
	case "while":
		cond, body, err := p.parseGuarded(proc)
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case "return":
		p.next()
		if p.isPunct(";") {
			p.next()
			return &ReturnStmt{}, nil
		}
		e, err := p.parseExprThen(";")
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: e}, nil
	case "assume", "assert", "join":
		return p.parseExprStmt()
	case "lock", "unlock", "init", "destroy":
		return p.parseMutexStmt()
	}
	if t.kind == tokIdent {
		return p.parseNamedStmt()
	}
	return nil, p.errf("expected a statement, found %s", t)
}

// parseGuarded parses "( cond ) body" after if or while.
func (p *parser) parseGuarded(proc *Proc) (Expr, []Stmt, error) {
	p.next() // the keyword
	cond, err := p.parseParenExpr()
	if err != nil {
		return nil, nil, err
	}
	body, err := p.parseBlockOrStmt(proc)
	return cond, body, err
}

func (p *parser) parseIf(proc *Proc) (Stmt, error) {
	cond, then, err := p.parseGuarded(proc)
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then}
	if p.isKeyword("else") {
		p.next()
		if s.Else, err = p.parseBlockOrStmt(proc); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseExprStmt parses "assume ( e ) ;", "assert ( e ) ;" and
// "join ( e ) ;".
func (p *parser) parseExprStmt() (Stmt, error) {
	kw := p.next().text
	e, err := p.parseParenExpr()
	if err == nil {
		err = p.expectPunct(";")
	}
	if err != nil {
		return nil, err
	}
	switch kw {
	case "assume":
		return &AssumeStmt{Cond: e}, nil
	case "assert":
		return &AssertStmt{Cond: e}, nil
	}
	return &JoinStmt{Tid: e}, nil
}

// mutexStmts builds the statement each mutex keyword names.
var mutexStmts = map[string]func(mutex string) Stmt{
	"lock":    func(m string) Stmt { return &LockStmt{Mutex: m} },
	"unlock":  func(m string) Stmt { return &UnlockStmt{Mutex: m} },
	"init":    func(m string) Stmt { return &InitStmt{Mutex: m} },
	"destroy": func(m string) Stmt { return &DestroyStmt{Mutex: m} },
}

// parseMutexStmt parses "lock ( m ) ;" and its unlock, init and destroy
// siblings.
func (p *parser) parseMutexStmt() (Stmt, error) {
	kw := p.next().text
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, p.errf("expected a mutex name, found %s", p.cur())
	}
	m := p.next().text
	if err := p.expectPunct(")", ";"); err != nil {
		return nil, err
	}
	return mutexStmts[kw](m), nil
}

// parseNamedStmt parses the statements that start with a name: a call,
// or an assignment from an expression (including the non-deterministic
// '*'), from a call's result or from create(...).
func (p *parser) parseNamedStmt() (Stmt, error) {
	name := p.next().text
	if p.isPunct("(") {
		return p.parseCall(name, nil)
	}
	var lhs LValue = &VarRef{Name: name}
	if p.isPunct("[") {
		ref, err := p.parseIndex(name)
		if err != nil {
			return nil, err
		}
		lhs = ref
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	switch {
	case p.isKeyword("create"):
		return p.parseCreate(lhs)
	case p.cur().kind == tokIdent && p.peek().kind == tokPunct && p.peek().text == "(":
		return p.parseCall(p.next().text, lhs)
	}
	rhs, err := p.parseExprThen(";")
	if err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: lhs, RHS: rhs}, nil
}

// parseCreate parses "create ( proc , args ) ;".
func (p *parser) parseCreate(tid LValue) (Stmt, error) {
	p.next() // create
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.cur().kind != tokIdent {
		return nil, p.errf("expected a procedure name, found %s", p.cur())
	}
	s := &CreateStmt{Tid: tid, Proc: p.next().text}
	for p.isPunct(",") {
		p.next()
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Args = append(s.Args, a)
	}
	if err := p.expectPunct(")", ";"); err != nil {
		return nil, err
	}
	return s, nil
}

// parseCall parses "( args ) ;" after a procedure name.
func (p *parser) parseCall(name string, result LValue) (Stmt, error) {
	s := &CallStmt{Proc: name, Result: result}
	p.next() // '('
	for !p.isPunct(")") {
		if len(s.Args) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Args = append(s.Args, a)
	}
	p.next() // ')'
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return s, nil
}

// --- expressions (precedence climbing) ---

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

var binOpOf = map[string]BinOp{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"&": OpAnd, "|": OpOr, "^": OpXor, "<<": OpShl, ">>": OpShr,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe, "==": OpEq, "!=": OpNe,
	"&&": OpLAnd, "||": OpLOr,
}

var unOpOf = map[string]UnOp{"-": OpNeg, "!": OpNot, "~": OpBitNot}

func (p *parser) parseExpr() (Expr, error) { return p.parseBin(1) }

// parseExprThen parses an expression and the punctuation that ends it.
func (p *parser) parseExprThen(end string) (Expr, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(end); err != nil {
		return nil, err
	}
	return e, nil
}

// parseParenExpr parses "( expr )".
func (p *parser) parseParenExpr() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	return p.parseExprThen(")")
}

// parseIndex parses "[ expr ]" after an array name.
func (p *parser) parseIndex(name string) (*IndexRef, error) {
	p.next() // '['
	idx, err := p.parseExprThen("]")
	if err != nil {
		return nil, err
	}
	return &IndexRef{Name: name, Index: idx}, nil
}

func (p *parser) parseBin(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: binOpOf[t.text], X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	op, ok := unOpOf[p.cur().text]
	if !ok || p.cur().kind != tokPunct {
		return p.parsePrimary()
	}
	p.next()
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	// Fold negated literals so -8 round-trips as a literal.
	if lit, ok := x.(*IntLit); ok && op == OpNeg {
		return &IntLit{Value: -lit.Value}, nil
	}
	return &UnaryExpr{Op: op, X: x}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.text)
		}
		return &IntLit{Value: v}, nil
	case p.isKeyword("true"):
		p.next()
		return &BoolLit{Value: true}, nil
	case p.isKeyword("false"):
		p.next()
		return &BoolLit{Value: false}, nil
	case p.isPunct("*"):
		// '*' in expression position is the non-deterministic value.
		p.next()
		return &Nondet{}, nil
	case p.isPunct("("):
		return p.parseParenExpr()
	case t.kind == tokIdent:
		p.next()
		if p.isPunct("[") {
			return p.parseIndex(t.text)
		}
		return &VarRef{Name: t.text}, nil
	}
	return nil, p.errf("expected an expression, found %s", t)
}
