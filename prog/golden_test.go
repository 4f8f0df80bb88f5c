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

// goldenInputs are the formatted benchmark programs plus the inputs of
// TestParseErrors and TestCheckErrors.
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
	)
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
