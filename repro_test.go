package repro

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/prog"
)

const facadeFib = `
int i, j;
void t1() {
  int k = 0;
  while (k < 1) { i = i + j; k = k + 1; }
}
void t2() {
  int k = 0;
  while (k < 1) { j = j + i; k = k + 1; }
}
void main() {
  int tid1, tid2;
  i = 1;
  j = 1;
  tid1 = create(t1);
  tid2 = create(t2);
  join(tid1);
  join(tid2);
  assert(j < 3);
  assert(i < 3);
}
`

func TestFacadeVerifyUnsafe(t *testing.T) {
	res, err := VerifySource(context.Background(), facadeFib, Options{
		Unwind: 1, Contexts: 4, Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unsafe() || res.Safe() {
		t.Fatalf("verdict %q", res.Verdict)
	}
	if res.Counterexample == "" {
		t.Fatal("missing counterexample description")
	}
	if len(res.Schedule) != 4 {
		t.Fatalf("schedule length %d", len(res.Schedule))
	}
	if res.Schedule[0].Proc != "main" || res.Schedule[0].Thread != 0 {
		t.Fatalf("first step %+v", res.Schedule[0])
	}
	procs := map[string]bool{}
	for _, st := range res.Schedule {
		procs[st.Proc] = true
	}
	if !procs["t1"] || !procs["t2"] {
		t.Fatalf("schedule lacks thread procs: %+v", res.Schedule)
	}
	if res.Vars == 0 || res.Clauses == 0 || res.Threads != 3 {
		t.Fatalf("metrics: %+v", res)
	}
}

func TestFacadeVerifySafe(t *testing.T) {
	res, err := VerifySource(context.Background(), facadeFib, Options{
		Unwind: 1, Contexts: 3, Cores: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe() {
		t.Fatalf("verdict %q", res.Verdict)
	}
	if len(res.Schedule) != 0 || res.Counterexample != "" {
		t.Fatal("safe result carries counterexample data")
	}
}

func TestFacadeParseError(t *testing.T) {
	_, err := VerifySource(context.Background(), "void main() { x = ; }", Options{Contexts: 1})
	if err == nil || !strings.Contains(err.Error(), "prog:") {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeVerifyProgram(t *testing.T) {
	p := prog.MustParse(facadeFib)
	res, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 4, Cores: 4, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unsafe() {
		t.Fatalf("verdict %q", res.Verdict)
	}
	if res.Partitions != 4 {
		t.Fatalf("partitions %d", res.Partitions)
	}
	if res.Winner < 0 || res.Winner >= 4 {
		t.Fatalf("winner %d", res.Winner)
	}
}

func TestFacadeRoundRobin(t *testing.T) {
	res, err := VerifySource(context.Background(), facadeFib, Options{Unwind: 1, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unsafe() {
		t.Fatalf("verdict %q", res.Verdict)
	}
}

func TestFacadeDistributedRange(t *testing.T) {
	found := false
	for _, r := range [][2]int{{0, 2}, {2, 4}} {
		res, err := VerifySource(context.Background(), facadeFib, Options{
			Unwind: 1, Contexts: 4, Cores: 2, Partitions: 4, From: r[0], To: r[1],
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Unsafe() {
			found = true
		}
	}
	if !found {
		t.Fatal("bug not found in any partition range")
	}
}

const maxFunctionLines = 100

// TestFunctionLengths measures every function of the non-test Go outside
// benchmark/ (from the func keyword to the closing brace) and fails on
// one over maxFunctionLines.
func TestFunctionLengths(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			n := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			if n > maxFunctionLines {
				t.Errorf("%s is %d lines, over %d", funcName(filepath.Dir(path), fn), n, maxFunctionLines)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// funcName names a function by its directory and receiver, as in
// "internal/distrib.(*coordinator).serve".
func funcName(dir string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return dir + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := ""
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = "*", s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return fmt.Sprintf("%s.(%s%s).%s", dir, star, typ.(*ast.Ident).Name, fn.Name.Name)
}
