package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
)

var dumpOpts = core.Options{Unwind: 1, Contexts: 3, Width: 8}

func TestLoadProgramBenchmarks(t *testing.T) {
	for _, name := range []string{
		"fibonacci", "boundedbuffer", "eliminationstack", "safestack", "workstealingqueue",
	} {
		p, err := loadProgram("", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Main() == nil {
			t.Fatalf("%s: no main", name)
		}
	}
	if _, err := loadProgram("", "nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := loadProgram("", ""); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestLoadProgramFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mt")
	if err := os.WriteFile(path, []byte("int g;\nvoid main() { g = 1; assert(g == 1); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Globals) != 1 {
		t.Fatalf("globals: %d", len(p.Globals))
	}
	if _, err := loadProgram(filepath.Join(dir, "missing.mt"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.mt")
	if err := os.WriteFile(bad, []byte("void main() { x = ; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadProgram(bad, ""); err == nil {
		t.Fatal("unparseable file accepted")
	}
}

func TestDumpSource(t *testing.T) {
	var buf bytes.Buffer
	p, err := loadProgram("", "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpArtefacts(&buf, p, "source", "", dumpOpts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "void main()") {
		t.Fatalf("source dump missing main:\n%s", buf.String())
	}
}

func TestDumpFlat(t *testing.T) {
	var buf bytes.Buffer
	p, err := loadProgram("", "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpArtefacts(&buf, p, "flat", "", dumpOpts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"thread 0 (main)", "block 0:", "create(thread"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flat dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpDimacs(t *testing.T) {
	p, err := loadProgram("", "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.cnf")
	if err := dumpArtefacts(io.Discard, p, "", path, dumpOpts); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	formula, err := cnf.ReadDimacs(f)
	if err != nil {
		t.Fatalf("exported DIMACS does not parse: %v", err)
	}
	if formula.NumVars == 0 || formula.NumClauses() == 0 {
		t.Fatal("empty formula exported")
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "c partition-var") {
		t.Fatal("partition-variable comments missing")
	}
}

func TestDumpUnknownArtefact(t *testing.T) {
	p, err := loadProgram("", "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpArtefacts(io.Discard, p, "nonsense", "", dumpOpts); err == nil {
		t.Fatal("unknown artefact accepted")
	}
}
