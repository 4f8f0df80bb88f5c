package repro

import (
	"context"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/flatten"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/internal/weakmem"
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

// The benchmark harness's traced pass indexes a formula's clauses, the
// one reader that does: vc.Encode(…).Formula().Clauses has NumClauses()
// entries, each the clause the store walks at that position, and
// asking again gives the same view, not a second one — also when two
// goroutines ask at once (run under -race). The cells are two of the
// quick jobs, one under TSO.
func TestFormulaViewIsTheStore(t *testing.T) {
	for _, cell := range []struct {
		p                     *prog.Program
		tso, unwind, contexts int
	}{{bench.Eliminationstack(), 1, 3, 3}, {bench.Safestack(), 0, 4, 4}} {
		p := cell.p
		if cell.tso > 0 {
			var err error
			if p, err = weakmem.TransformTSO(p, cell.tso); err != nil {
				t.Fatal(err)
			}
		}
		up, err := unfold.Unfold(p, unfold.Options{Unwind: cell.unwind})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := flatten.Flatten(up)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := vc.Encode(fp, vc.Options{Width: 8, Contexts: cell.contexts})
		if err != nil {
			t.Fatal(err)
		}
		views := make([]*cnf.Formula, 2)
		var wg sync.WaitGroup
		for g := range views {
			wg.Add(1)
			go func() {
				defer wg.Done()
				views[g] = enc.Formula()
				_ = len(views[g].Clauses)
			}()
		}
		wg.Wait()
		f := views[0]
		if f.NumClauses() == 0 || len(f.Clauses) != f.NumClauses() {
			t.Fatalf("%d clauses in the view of %d", len(f.Clauses), f.NumClauses())
		}
		if views[1] != f || &views[1].Clauses[0] != &f.Clauses[0] {
			t.Fatal("two goroutines got another formula or another view")
		}
		i := 0
		f.Each(func(c cnf.Clause) {
			if i < len(f.Clauses) && !slices.Equal(f.Clauses[i], c) {
				t.Fatalf("clause %d is %v in the view, %v in the store", i, f.Clauses[i], c)
			}
			i++
		})
		if again := enc.Formula(); again != f || &again.Clauses[0] != &f.Clauses[0] || i != len(f.Clauses) {
			t.Fatalf("asked twice, another formula or another view (%d clauses walked)", i)
		}
	}
}

// TestFunctionLengths measures every function of the non-test Go outside
// benchmark/ (from the func keyword to the closing brace) and fails on
// one over maxFunctionLines.
func TestFunctionLengths(t *testing.T) {
	fset := token.NewFileSet()
	walkNonTest(t, fset, false, func(path string, f *ast.File) {
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
	})
}

// walkNonTest parses every non-test Go file of the tree, those under
// benchmark/ only if withBenchmark, and hands each to visit.
func walkNonTest(t *testing.T, fset *token.FileSet, withBenchmark bool, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || (path == "benchmark" && !withBenchmark)) {
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
		visit(path, f)
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

// usedOnlyByTests names the exported functions and methods that no
// non-test code calls and that stay all the same, each with the reason:
// another package's tests use it as an oracle or fixture, or ROADMAP.md
// names it as a hook.
var usedOnlyByTests = map[string]string{
	"internal/cnf.(*Formula).Eval":          "the oracle sat's, parallel's and portfolio's tests check models against",
	"internal/cnf.(*Builder).Gate":          "vc's cone test reads the gate table with it; the hook of ROADMAP items 6 and 15",
	"internal/interp.Explore":               "the oracle vc's differential test compares verdicts against",
	"internal/interp.ZeroNondet":            "sampler's tests replay schedules with it",
	"internal/interp.(*State).Replay":       "sampler's tests replay the schedules the sampler finds",
	"internal/bench.EliminationstackUnsafe": "a fixture of prog's, flatten's and weakmem's golden tests",
	"internal/obs.(*Tracer).WithClock":      "the injected clock ROADMAP item 11 builds on",
	"internal/distrib.SlowAt":               "parallel's executor tests slow a worker down with it",
}

// TestExportsHaveCallers fails on an exported function or method outside
// benchmark/ that no non-test file of either module uses: API kept
// working for no user. The harness under benchmark/ counts as a user.
// The facade package, cmd/ and examples/ are exempt, and so is a method
// that satisfies an interface, which is called through it. It
// type-checks the non-test files against the export data of
// `go list -export`.
func TestExportsHaveCallers(t *testing.T) {
	files, info, pkgs := typeCheckTree(t)
	uses := map[string][]token.Pos{} // (*types.Func).FullName → where used
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			name := fn.Origin().FullName()
			uses[name] = append(uses[name], id.Pos())
		}
	}
	ifaces := interfacesByMethod(pkgs)

	checked := 0
	seen := map[string]bool{}
	for dir, fs := range files {
		if dir == "." || dir == "benchmark" || strings.HasPrefix(dir, "cmd") || strings.HasPrefix(dir, "examples") {
			continue
		}
		for _, f := range fs {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				checked++
				obj := info.Defs[fn.Name].(*types.Func)
				if calledOutside(uses[obj.FullName()], fn) || satisfiesInterface(obj, ifaces[obj.Name()]) {
					continue
				}
				name := funcName(filepath.ToSlash(dir), fn)
				seen[name] = true
				if _, ok := usedOnlyByTests[name]; !ok {
					t.Errorf("%s has no caller outside tests: delete it, move it into a _test.go file, or allow it with a reason", name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no exported function found to check")
	}
	for name := range usedOnlyByTests {
		if !seen[name] {
			t.Errorf("%s is allowed as test-only, but it has a caller or is gone: take it off the list", name)
		}
	}
}

// ownDefaultOptions names the exported fields of *Options structs that no
// non-test code outside the declaring package sets and that stay all the
// same, each with the reason: a test sets it, or the package sets its own
// default through it.
var ownDefaultOptions = map[string]string{
	"internal/vc.Options.ZeroLocals":                     "the differential tests against the interpreter start locals at zero",
	"internal/interp.ExploreOptions.Contexts":            "Explore is the oracle of vc's differential test, its options the test's",
	"internal/interp.ExploreOptions.MaxExecutions":       "Explore is the oracle of vc's differential test, its options the test's",
	"internal/interp.ExploreOptions.NondetDomain":        "Explore is the oracle of vc's differential test, its options the test's",
	"internal/distrib.CoordinatorOptions.Faults":         "the failover tests kill a primary with it",
	"internal/distrib.CoordinatorOptions.HeartbeatGrace": "defaults from HeartbeatInterval; tests shorten it",
	"internal/distrib.HAOptions.StandbyPoll":             "defaults from LeaseTTL; tests shorten it",
	"internal/memwatch.Options.Interval":                 "defaults to 250ms; tests shorten it",
	"internal/unfold.Options.MaxThreads":                 "defaults to 64 thread instances; tests lower it",
	"internal/partition.SchedOptions.Now":                "the scheduler's clock, which tests fake",
	"internal/sampler.Options.NondetDomain":              "defaults to 8; tests narrow it",
}

// TestOptionFieldsHaveSetters fails on an exported field of an exported
// *Options struct outside benchmark/ that no non-test code outside the
// declaring package sets: an option no user can have asked for. Setting
// is a composite-literal key, an assignment (to the field or through
// it), or taking its address, as a flag binding does. The harness under
// benchmark/ counts as a user; the facade package, cmd/ and examples/
// are exempt, as in TestExportsHaveCallers.
func TestOptionFieldsHaveSetters(t *testing.T) {
	files, info, pkgs := typeCheckTree(t)
	set := fieldsSetOutside(files, info, pkgs)
	checked := 0
	seen := map[string]bool{}
	for dir, fs := range files {
		if dir == "." || dir == "benchmark" || strings.HasPrefix(dir, "cmd") || strings.HasPrefix(dir, "examples") {
			continue
		}
		for _, f := range fs {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Options") {
						continue
					}
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							if !id.IsExported() {
								continue
							}
							checked++
							name := filepath.ToSlash(dir) + "." + ts.Name.Name + "." + id.Name
							if set[name] {
								continue
							}
							seen[name] = true
							if _, ok := ownDefaultOptions[name]; !ok {
								t.Errorf("%s is set by no code outside its package but tests: delete it, or allow it with a reason", name)
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no option field found to check")
	}
	for name := range ownDefaultOptions {
		if !seen[name] {
			t.Errorf("%s is allowed as unset, but it has a setter or is gone: take it off the list", name)
		}
	}
}

// fieldsSetOutside names, as "dir.Type.Field", each struct field that
// code outside the field's package sets.
func fieldsSetOutside(files map[string][]*ast.File, info *types.Info, pkgs map[string]*types.Package) map[string]bool {
	set := map[string]bool{}
	for dir, fs := range files {
		path := pkgs[dir].Path()
		mark := func(owner types.Type, field string) {
			if ptr, ok := owner.(*types.Pointer); ok {
				owner = ptr.Elem()
			}
			if named, ok := owner.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != path {
				set[strings.TrimPrefix(named.Obj().Pkg().Path(), "repro/")+"."+named.Obj().Name()+"."+field] = true
			}
		}
		// written marks the fields a write to e sets: each one its
		// selectors name, a write to a.B.C setting C and B both.
		written := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal && len(sel.Index()) == 1 {
						mark(sel.Recv(), x.Sel.Name)
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(info.TypeOf(n), key.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written(lhs)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				}
				return true
			})
		}
	}
	return set
}

// typeCheckTree type-checks the non-test files of both modules, each
// directory as one package, against the export data of `go list
// -export`: it returns each directory's files and package, and what
// every identifier of them defines and uses.
func typeCheckTree(t *testing.T) (files map[string][]*ast.File, info *types.Info, pkgs map[string]*types.Package) {
	t.Helper()
	exports := map[string]string{} // import path → export data file
	for _, dir := range []string{".", "benchmark"} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "=")
			exports[path] = file
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	files = map[string][]*ast.File{}
	walkNonTest(t, fset, true, func(path string, f *ast.File) {
		files[filepath.Dir(path)] = append(files[filepath.Dir(path)], f)
	})
	info = &types.Info{
		Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkgs = map[string]*types.Package{}
	for dir, fs := range files {
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(filepath.ToSlash(filepath.Join("repro", dir)), fset, fs, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		pkgs[dir] = pkg
	}
	return files, info, pkgs
}

// calledOutside reports whether a use lies outside fn's own body, so
// that recursion is not a caller.
func calledOutside(uses []token.Pos, fn *ast.FuncDecl) bool {
	for _, p := range uses {
		if p < fn.Pos() || p >= fn.End() {
			return true
		}
	}
	return false
}

// interfacesByMethod indexes by method name every named interface the
// type-checked packages declare or reach through their imports.
func interfacesByMethod(pkgs map[string]*types.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return byName
}

// satisfiesInterface reports whether a pointer to the method's receiver
// type implements one of ifaces, all of which have a method of its name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if _, ok := typ.(*types.Pointer); !ok {
		typ = types.NewPointer(typ)
	}
	for _, it := range ifaces {
		if types.Implements(typ, it) {
			return true
		}
	}
	return false
}
