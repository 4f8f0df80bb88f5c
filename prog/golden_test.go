package prog_test

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/prog"
)

var update = flag.Bool("update", false, "rewrite testdata/parse.golden")

// token matches one token of the language; the inputs below have no
// comments, so the end of each match is a token boundary.
var token = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*|[0-9]+|<<|>>|<=|>=|==|!=|&&|\|\||\S`)

// goldenInputs are the formatted benchmark programs, the inputs of
// TestParseErrors and TestCheckErrors, and two programs that use every
// statement and expression form.
func goldenInputs() []string {
	progs := []*prog.Program{bench.Fibonacci(1), bench.BoundedbufferFixed(),
		bench.WorkstealingqueueFixed(), bench.EliminationstackUnsafe()}
	for _, b := range bench.All() {
		progs = append(progs, b.Program)
	}
	var out []string
	for _, p := range progs {
		out = append(out, prog.Format(p))
	}
	return append(out,
		// TestParseErrors
		"void main() { int x\n x = 1; }",
		"void main() { @ }",
		"void main() { int x;",
		"x = 1;",
		"void main( { }",
		"int a[0]; void main() { }",
		"void main() { int x; x = ; }",
		// TestCheckErrors
		"void f() { }",
		"void main(int x) { }",
		"int main() { return 1; }",
		"int x; int x; void main() { }",
		"void f() { } void f() { } void main() { }",
		"void main() { int x; int x; }",
		"int x; void main() { int x; }",
		"void main() { int x; x = y; }",
		"void main() { int x; x = true; }",
		"void main() { f(); }",
		"void f() { main(); } void main() { f(); }",
		"void main() { int t; t = create(main); }",
		"int f() { return 1; } void main() { int t; t = create(f); }",
		"void f(int x) { } void main() { int t; t = create(f); }",
		"void main() { assert(1); }",
		"void main() { if (1) { } }",
		"void main() { join(true); }",
		"int m; void main() { lock(m); }",
		"void main() { mutex m; }",
		"void main() { int x; x = 1 + *; }",
		"void main() { int x; x = 4 / x; }",
		"void main() { int x; x = x / 3; }",
		"mutex m; void main() { m = 1; }",
		"int a[3]; void main() { a = 1; }",
		"int x; void main() { x[0] = 1; }",
		"int a[3]; void main() { a[true] = 1; }",
		"void main() { return 1; }",
		"int f() { return; } void main() { }",
		"void f() { } void main() { int x; x = f(); }",
		"void main() { assert(1 == true); }",
		"void main() { assert(1 && 2); }",
		"void main() { int x; x = true + false; }",
		"void main() { assert(!1); }",
		"void main() { int x; x = -true; }",
		"void x; void main() { }",
		"void f(int a) { } void main() { }",
		allStatementsSrc,
		allExprsSrc,
	)
}

// allStatementsSrc uses every statement form.
const allStatementsSrc = "int g; int a[3]; bool flag; mutex m; int twice(int x) { return x + x; } " +
	"void w(int n) { lock(m); a[n] = n; unlock(m); atomic { g = g + 1; flag = true; } } " +
	"void main() { int t; int x; bool ok; x = *; assume(x >= 0); assume(x < 3); x = twice(x); " +
	"t = create(w, x); join(t); while (x > 0) { x = x - 1; } ok = (flag || true) && !(g == -1); " +
	"if (ok) { assert(g != 99); } else { assert(false); } }"

// allExprsSrc uses every expression form.
const allExprsSrc = "int a[2]; void main() { int x; bool b; x = *; x = (1 + 2) - x * 3 + a[0] - -x; " +
	"b = x <= 4 && x > 4 || x < 1 || x >= 2 || x == 3 || x != 5 || !false; assert(b); }"

// TestBuilderAllStatements builds a program that uses every statement
// form from source text and checks that Format prints each form and
// that the printed source parses back to the same text.
func TestBuilderAllStatements(t *testing.T) {
	p, err := prog.Parse(allStatementsSrc)
	if err != nil {
		t.Fatal(err)
	}
	src := prog.Format(p)
	for _, want := range []string{"lock(m)", "unlock(m)", "atomic", "create(w", "join(t)",
		"assume", "twice(x)", "return", "while", "else", "a[n] = n", "x = *"} {
		if !strings.Contains(src, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, src)
		}
	}
	q, err := prog.Parse(src)
	if err != nil {
		t.Fatalf("round-trip: %v\n%s", err, src)
	}
	if got := prog.Format(q); got != src {
		t.Fatalf("round-trip changed the text:\n%s\nwant\n%s", got, src)
	}
}

// TestExprHelpers checks the printed form of each expression node.
func TestExprHelpers(t *testing.T) {
	v := func(name string) prog.Expr { return &prog.VarRef{Name: name} }
	i := func(n int64) prog.Expr { return &prog.IntLit{Value: n} }
	bin := func(op prog.BinOp, x, y prog.Expr) prog.Expr { return &prog.BinaryExpr{Op: op, X: x, Y: y} }
	cases := []struct {
		e    prog.Expr
		want string
	}{
		{bin(prog.OpAdd, i(1), i(2)), "(1 + 2)"},
		{bin(prog.OpSub, v("x"), i(1)), "(x - 1)"},
		{bin(prog.OpMul, i(2), i(3)), "(2 * 3)"},
		{bin(prog.OpLe, v("x"), i(4)), "(x <= 4)"},
		{bin(prog.OpGt, v("x"), i(4)), "(x > 4)"},
		{&prog.IndexRef{Name: "a", Index: i(0)}, "a[0]"},
		{&prog.Nondet{}, "*"},
		{&prog.BoolLit{Value: false}, "false"},
		{&prog.UnaryExpr{Op: prog.OpNeg, X: i(1)}, "-(1)"},
		{&prog.UnaryExpr{Op: prog.OpNot, X: bin(prog.OpEq, v("g"), i(1))}, "!((g == 1))"},
		{bin(prog.OpLAnd, bin(prog.OpLOr, v("f"), &prog.BoolLit{Value: true}), v("ok")), "((f || true) && ok)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("%q != %q", got, c.want)
		}
	}
}

// TestParseGolden pins the parser's and checker's answer on every
// token-prefix truncation of goldenInputs: the formatted program when
// Parse accepts it, the error text when it does not.
func TestParseGolden(t *testing.T) {
	var b strings.Builder
	for i, src := range goldenInputs() {
		for k, end := range token.FindAllStringIndex(src, -1) {
			fmt.Fprintf(&b, "--- %d/%d\n", i, k+1)
			p, err := prog.Parse(src[:end[1]])
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				continue
			}
			b.WriteString(prog.Format(p))
		}
	}
	const path = "testdata/parse.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s:%d: got %q, want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
