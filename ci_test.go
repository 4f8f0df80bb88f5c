package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A -run or -fuzz pattern that matches nothing passes silently: a test
// renamed or retired leaves the CI step that was to repeat it running
// nothing. So every alternative of every -run and -fuzz pattern in the
// workflow must match a Test or Fuzz function (-fuzz: a Fuzz function)
// of the packages its go test command names, read from their test files.
// The one pattern that is meant to match nothing, '^$' (run no test,
// only the benchmarks or the fuzzer), is let through.
func TestCIPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range ciLines(string(data)) {
		dir, args, ok := goTestArgs(line)
		if !ok {
			continue
		}
		var pkgs []string
		patterns := map[string]string{} // flag → pattern
		for i := 0; i < len(args); i++ {
			a := args[i]
			switch {
			case a == "-run" || a == "-fuzz":
				if i+1 < len(args) {
					patterns[a] = args[i+1]
					i++
				}
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
				flag, value, _ := strings.Cut(a, "=")
				patterns[flag] = value
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, filepath.Join(dir, a))
			}
		}
		if len(patterns) == 0 {
			continue
		}
		tests, fuzz := testFuncs(t, pkgs)
		for flag, pattern := range patterns {
			names := tests
			if flag == "-fuzz" {
				names = fuzz
			}
			for _, alt := range alternatives(pattern) {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml line %d: %s %q: %v", n, flag, alt, err)
					continue
				}
				checked++
				if !matchesAny(re, names) {
					t.Errorf("ci.yml line %d: %s alternative %q matches no test function in %v", n, flag, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz pattern found in ci.yml")
	}
}

// ciLines returns the workflow's lines, a line ended by a backslash
// joined to the next, keyed by the number of the first.
func ciLines(data string) map[int]string {
	out := map[int]string{}
	lines := strings.Split(data, "\n")
	for i := 0; i < len(lines); i++ {
		start, line := i+1, strings.TrimSpace(lines[i])
		for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + strings.TrimSpace(lines[i])
		}
		out[start] = line
	}
	return out
}

// goTestArgs returns the arguments of the go test command on a line, up
// to the end of that command, and the directory it runs in (a leading
// "cd dir &&").
func goTestArgs(line string) (dir string, args []string, ok bool) {
	before, after, ok := strings.Cut(line, "go test")
	if !ok {
		return "", nil, false
	}
	dir = "."
	if m := regexp.MustCompile(`cd (\S+) &&`).FindStringSubmatch(before); m != nil {
		dir = m[1]
	}
	for _, sep := range []string{"&&", "||", ";", "|"} {
		if i := strings.Index(after, sep); i >= 0 && !inQuotes(after[:i]) {
			after = after[:i]
		}
	}
	return dir, shellWords(after), true
}

// inQuotes reports that s ends inside a single-quoted string.
func inQuotes(s string) bool { return strings.Count(s, "'")%2 == 1 }

// shellWords splits s at spaces outside single or double quotes, and
// drops the quotes.
func shellWords(s string) []string {
	var words []string
	var word strings.Builder
	var quote rune
	in := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote == 0 && (r == '\'' || r == '"'):
			quote, in = r, true
		case quote == 0 && (r == ' ' || r == '\t'):
			if in {
				words = append(words, word.String())
				word.Reset()
				in = false
			}
		default:
			word.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, word.String())
	}
	return words
}

// alternatives splits a pattern at its top-level |, and keeps of each
// alternative what go test matches against a top-level test's name: the
// part before the first top-level / (the rest names subtests).
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	cut := func(end int) {
		alt := pattern[start:end]
		if i := topLevelSlash(alt); i >= 0 {
			alt = alt[:i]
		}
		out = append(out, alt)
	}
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				cut(i)
				start = i + 1
			}
		}
	}
	cut(len(pattern))
	return out
}

func topLevelSlash(s string) int {
	depth := 0
	for i, r := range s {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// testFuncs returns the names of the Test and Fuzz functions of the test
// files in the package directories (a dir/... covers every package under
// dir), and the Fuzz functions alone.
func testFuncs(t *testing.T, pkgs []string) (tests, fuzz []string) {
	t.Helper()
	fset := token.NewFileSet()
	add := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil {
					continue
				}
				name := fn.Name.Name
				if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
					tests = append(tests, name)
				}
				if strings.HasPrefix(name, "Fuzz") {
					fuzz = append(fuzz, name)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		if root, ok := strings.CutSuffix(pkg, "/..."); ok {
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err == nil && d.IsDir() {
					add(path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := os.Stat(pkg); err != nil {
			t.Errorf("ci.yml names package %s: %v", pkg, err)
			continue
		}
		add(pkg)
	}
	return tests, fuzz
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
