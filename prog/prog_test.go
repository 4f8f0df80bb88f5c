package prog

import (
	"strings"
	"testing"
)

const fibSrc = `
// Fibonacci (Fig. 2 of the paper), N = 3.
int i, j;

void t1() {
  int k = 0;
  while (k < 3) {
    i = i + j;
    k = k + 1;
  }
}

void t2() {
  int k = 0;
  while (k < 3) {
    j = j + i;
    k = k + 1;
  }
}

void main() {
  int tid1, tid2;
  int max;

  i = 1;
  j = 1;

  tid1 = create(t1);
  tid2 = create(t2);

  join(tid1);
  join(tid2);

  max = 21;

  assert(j < max);
  assert(i < max);
}
`

func TestParseFibonacci(t *testing.T) {
	p, err := Parse(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Globals) != 2 {
		t.Fatalf("globals: %d", len(p.Globals))
	}
	if len(p.Procs) != 3 {
		t.Fatalf("procs: %d", len(p.Procs))
	}
	if p.Main() == nil {
		t.Fatal("no main")
	}
	if p.Proc("t1") == nil || p.Proc("t2") == nil {
		t.Fatal("thread procs missing")
	}
	if p.Proc("nope") != nil {
		t.Fatal("phantom proc")
	}
	// t1 has one local (k) and a while loop.
	t1 := p.Proc("t1")
	if len(t1.Locals) != 1 || t1.Locals[0].Name != "k" {
		t.Fatalf("t1 locals: %v", t1.Locals)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	p1 := MustParse(fibSrc)
	src2 := Format(p1)
	p2, err := Parse(src2)
	if err != nil {
		t.Fatalf("re-parse of formatted output failed: %v\n%s", err, src2)
	}
	if Format(p2) != src2 {
		t.Fatal("Format not a fixpoint")
	}
}

func TestParseAllConstructs(t *testing.T) {
	src := `
int g;
int buf[4];
bool flag;
mutex m;

int twice(int x) {
  return x + x;
}

void worker(int id, bool fast) {
  int v;
  lock(m);
  buf[id] = id * 2;
  unlock(m);
  v = twice(id);
  atomic {
    g = g + v;
    flag = true;
  }
  if (fast && (g >= 2)) {
    g = g - 1;
  } else {
    g = g + 1;
  }
}

void main() {
  int t1, t2;
  int x;
  init(m);
  x = *;
  assume(x > 0);
  assume(x < 3);
  t1 = create(worker, x, true);
  t2 = create(worker, x + 1, false);
  join(t1);
  join(t2);
  destroy(m);
  assert(buf[1] == 2 || !flag);
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the printer.
	if _, err := Parse(Format(p)); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	src := `
void main() {
  int x;
  x = 1 + 2 * 3;
  assert(x == 7);
  x = (1 + 2) * 3;
  assert(x == 9);
  x = 16 >> 2 + 1;
  assert(x == 2);
  x = 1 | 2 ^ 3 & 5;
  assert(x == 3);
  assert(1 < 2 == true);
  assert(true || false && false);
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// x = 1 + 2*3 must parse as 1+(2*3).
	as := p.Main().Body[0].(*AssignStmt)
	bin := as.RHS.(*BinaryExpr)
	if bin.Op != OpAdd {
		t.Fatalf("precedence broken: top op %v", bin.Op)
	}
	if inner, ok := bin.Y.(*BinaryExpr); !ok || inner.Op != OpMul {
		t.Fatal("precedence broken: rhs not a product")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing semicolon", "void main() { int x\n x = 1; }"},
		{"bad char", "void main() { @ }"},
		{"unclosed brace", "void main() { int x;"},
		{"bad toplevel", "x = 1;"},
		{"missing paren", "void main( { }"},
		{"bad array len", "int a[0]; void main() { }"},
		{"garbage expr", "void main() { int x; x = ; }"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no main", "void f() { }", "no main"},
		{"main params", "void main(int x) { }", "main must not take parameters"},
		{"main ret", "int main() { return 1; }", "main must return void"},
		{"dup global", "int x; int x; void main() { }", "duplicate global"},
		{"dup proc", "void f() { } void f() { } void main() { }", "duplicate procedure"},
		{"dup local", "void main() { int x; int x; }", "duplicate local"},
		{"shadow", "int x; void main() { int x; }", "shadows a global"},
		{"undefined var", "void main() { int x; x = y; }", "undefined variable"},
		{"type mismatch", "void main() { int x; x = true; }", "cannot assign"},
		{"call undefined", "void main() { f(); }", "undefined procedure"},
		{"call main", "void f() { main(); } void main() { f(); }", "main cannot be called"},
		{"create main", "void main() { int t; t = create(main); }", "main cannot be spawned"},
		{"create nonvoid", "int f() { return 1; } void main() { int t; t = create(f); }", "must return void"},
		{"create argc", "void f(int x) { } void main() { int t; t = create(f); }", "want 1"},
		{"bad assert", "void main() { assert(1); }", "must be bool"},
		{"bad if", "void main() { if (1) { } }", "must be bool"},
		{"bad join", "void main() { join(true); }", "must be int"},
		{"bad lock", "int m; void main() { lock(m); }", "not a global mutex"},
		{"local mutex", "void main() { mutex m; }", "must be global"},
		{"nondet in expr", "void main() { int x; x = 1 + *; }", "may only appear"},
		{"div nonconst", "void main() { int x; x = 4 / x; }", "power-of-two"},
		{"div nonpow2", "void main() { int x; x = x / 3; }", "power-of-two"},
		{"mutex assigned", "mutex m; void main() { m = 1; }", "cannot be assigned"},
		{"array as scalar", "int a[3]; void main() { a = 1; }", "cannot be used as a scalar"},
		{"index nonarray", "int x; void main() { x[0] = 1; }", "is not an array"},
		{"bool index", "int a[3]; void main() { a[true] = 1; }", "must be int"},
		{"return in void", "void main() { return 1; }", "return with a value"},
		{"missing return value", "int f() { return; } void main() { }", "return without a value"},
		{"void result", "void f() { } void main() { int x; x = f(); }", "returns void"},
		{"eq mismatch", "void main() { assert(1 == true); }", "matching int or bool"},
		{"logical on ints", "void main() { assert(1 && 2); }", "needs bool"},
		{"arith on bools", "void main() { int x; x = true + false; }", "needs int"},
		{"not on int", "void main() { assert(!1); }", "needs bool"},
		{"neg on bool", "void main() { int x; x = -true; }", "needs int"},
		{"void global", "void x; void main() { }", "void type"},
		{"array param", "void f(int a) { } void main() { }", ""},
	}
	for _, c := range cases {
		if c.want == "" {
			continue
		}
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected check error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestDivByPowerOfTwoAllowed(t *testing.T) {
	if _, err := Parse("void main() { int x; x = 8; x = x / 2; x = x % 4; }"); err != nil {
		t.Fatal(err)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "/* block \n comment */ void main() { // line\n /* another */ }"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestMultiDecl(t *testing.T) {
	p := MustParse("int a, b, c; void main() { int x, y; x = 1; y = x; a = y; b = a; c = b; }")
	if len(p.Globals) != 3 {
		t.Fatalf("globals: %d", len(p.Globals))
	}
	if len(p.Main().Locals) != 2 {
		t.Fatalf("locals: %d", len(p.Main().Locals))
	}
}

func TestLocalInitialiser(t *testing.T) {
	p := MustParse("void main() { int x = 5; assert(x == 5); }")
	// The initialiser becomes an assignment statement.
	if len(p.Main().Body) != 2 {
		t.Fatalf("body: %d stmts", len(p.Main().Body))
	}
	if _, ok := p.Main().Body[0].(*AssignStmt); !ok {
		t.Fatal("initialiser not lowered to assignment")
	}
}

func TestTypeStrings(t *testing.T) {
	if Int.String() != "int" || Bool.String() != "bool" || Void.String() != "void" || Mutex.String() != "mutex" {
		t.Fatal("scalar type strings")
	}
	ints, bools := Type{Kind: KindInt, ArrayLen: 4}, Type{Kind: KindBool, ArrayLen: 2}
	if ints.String() != "int[4]" || bools.String() != "bool[2]" {
		t.Fatal("array type strings")
	}
	if !ints.IsArray() || Int.IsArray() {
		t.Fatal("IsArray")
	}
}

func TestStmtExprStrings(t *testing.T) {
	p := MustParse(`
mutex m;
int a[2];
void f(int v) { a[v] = v; }
int g(int v) { return v; }
void main() {
  int t; int x;
  init(m); lock(m); unlock(m); destroy(m);
  x = *;
  t = create(f, x);
  join(t);
  f(1);
  x = g(2); }
`)
	// Smoke-test that every statement has a printable form.
	for _, pr := range p.Procs {
		for _, s := range pr.Body {
			if s.String() == "" {
				t.Fatalf("empty String() for %T", s)
			}
		}
	}
}

func TestCheckErrorForBadCall(t *testing.T) {
	src := `int f(int x) { return x; } void main() { int y; y = f(true); }`
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "arg 0") {
		t.Fatalf("got %v", err)
	}
}

func TestNondetAllowedForBool(t *testing.T) {
	if _, err := Parse("bool b; void main() { b = *; assume(b); }"); err != nil {
		t.Fatal(err)
	}
}
