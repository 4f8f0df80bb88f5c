package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/report"
	"repro/prog"
)

// TestExitCodes runs parbmc's entry point: 0 for SAFE, 1 for UNSAFE and
// 2, with the error, for a run that cannot start.
func TestExitCodes(t *testing.T) {
	unsafe := filepath.Join(t.TempDir(), "unsafe.mt")
	if err := os.WriteFile(unsafe, []byte("int g; void main() { g = 1; assert(g == 2); }"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args    []string
		code    int
		wantErr string
	}{
		{[]string{"-benchmark", "fibonacci", "-unwind", "1", "-contexts", "3"}, 0, ""},
		{[]string{"-i", unsafe, "-contexts", "1"}, 1, ""},
		{[]string{"-benchmark", "nope"}, 2, `unknown benchmark "nope"`},
	} {
		code, err := run(context.Background(), append([]string{"parbmc"}, c.args...), io.Discard, io.Discard)
		if code != c.code || (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("parbmc %v: exit %d, %v; want %d, %q", c.args, code, err, c.code, c.wantErr)
		}
	}
}

// A run that fails still writes its -report, with the manifest and the
// failure as a warning: here a journal that exists without -resume.
func TestReportWrittenOnFailedRun(t *testing.T) {
	dir := t.TempDir()
	jnl, rep := filepath.Join(dir, "run.wal"), filepath.Join(dir, "run.report.json")
	j, err := journal.Open(jnl, journal.Manifest{ProgramSHA256: "seed", Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	code, err := run(context.Background(), []string{"parbmc", "-benchmark", "fibonacci",
		"-unwind", "1", "-contexts", "3", "-journal", jnl, "-report", rep}, io.Discard, io.Discard)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("run over an existing journal: exit %d, %v; want 2 and the refusal", code, err)
	}
	var out bytes.Buffer
	if code := reportMain([]string{rep}, &out, io.Discard); code != 0 {
		t.Fatalf("no report written: parbmc report exit %d", code)
	}
	for _, want := range []string{"Run report: fibonacci (local)", "WARNINGS (1):", err.Error()} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report misses %q:\n%s", want, out.String())
		}
	}
}

// A local run reports the run it made, as its journal would pin it: the
// total partitioning, the range it analysed and the program's hash.
func TestReportManifestOfSubrange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.report.json")
	code, err := run(context.Background(), []string{"parbmc", "-benchmark", "fibonacci",
		"-unwind", "1", "-contexts", "4", "-partitions", "8", "-from", "0", "-to", "2", "-report", path}, io.Discard, io.Discard)
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v", code, err)
	}
	rep, err := report.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram("", "fibonacci")
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Manifest
	if m.Partitions != 8 || m.From != 0 || m.To != 2 || m.ProgramSHA256 != journal.HashProgram(prog.Format(p)) {
		t.Fatalf("report manifest %+v: want partitions 8, range [0,2) and the program's hash", m)
	}
}
