package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeCNF writes a DIMACS file of clauses into t's temporary directory.
func writeCNF(t *testing.T, vars int, clauses [][]int) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", vars, len(clauses))
	for _, c := range clauses {
		for _, l := range c {
			fmt.Fprintf(&b, "%d ", l)
		}
		b.WriteString("0\n")
	}
	path := filepath.Join(t.TempDir(), "f.cnf")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// pigeonhole is n+1 pigeons in n holes: UNSAT, and hard already for
// small n.
func pigeonhole(t *testing.T, n int) string {
	v := func(p, h int) int { return p*n + h + 1 }
	var clauses [][]int
	for p := 0; p <= n; p++ {
		var c []int
		for h := 0; h < n; h++ {
			c = append(c, v(p, h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < n; h++ {
		for p := 0; p <= n; p++ {
			for q := p + 1; q <= n; q++ {
				clauses = append(clauses, []int{-v(p, h), -v(q, h)})
			}
		}
	}
	return writeCNF(t, (n+1)*n, clauses)
}

// TestExitCodes runs satsolve's entry point: 10 SATISFIABLE, 20
// UNSATISFIABLE, 2 for a request it refuses. Under -proof -check an
// UNSAT answer's DRAT text is written, ending in the empty clause's line
// "0", and the proof the solver logged, antecedent chains included, is
// checked.
func TestExitCodes(t *testing.T) {
	sat := writeCNF(t, 2, [][]int{{1, 2}, {-1}})
	unsat := writeCNF(t, 1, [][]int{{1}, {-1}})
	drat := filepath.Join(t.TempDir(), "p.drat")
	for _, c := range []struct {
		args     []string
		code     int
		wantErr  string
		wantOut  string
		lastLine string // of the DRAT text, if one is written
	}{
		{[]string{sat}, 10, "", "s SATISFIABLE", ""},
		{[]string{unsat}, 20, "", "s UNSATISFIABLE", ""},
		{[]string{"-proof", drat, "-check", pigeonhole(t, 4)}, 20, "", "c proof verified (", "0"},
		{[]string{"-proof", filepath.Join(t.TempDir(), "p.drat"), "-cores", "2", unsat}, 2, "single-instance mode", "", ""},
		{[]string{"-assume", "1 -1073741824", sat}, 2, "bad assumption", "", ""},
	} {
		var out bytes.Buffer
		code, err := run(context.Background(), append([]string{"satsolve"}, c.args...), &out, io.Discard)
		if code != c.code || (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) ||
			!strings.Contains(out.String(), c.wantOut) {
			t.Errorf("satsolve %v: exit %d, %v; want %d, %q\n%s", c.args, code, err, c.code, c.wantErr, out.String())
		}
		if c.lastLine == "" {
			continue
		}
		text, err := os.ReadFile(drat)
		lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
		if err != nil || lines[len(lines)-1] != c.lastLine {
			t.Errorf("satsolve %v: the DRAT text ends in %q (%v), not %q", c.args, lines[len(lines)-1], err, c.lastLine)
		}
	}
}

// cancelOn is a writer that cancels a context at the first write that
// contains a marker.
type cancelOn struct {
	marker string
	cancel context.CancelFunc
}

func (w cancelOn) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(w.marker)) {
		w.cancel()
	}
	return len(p), nil
}

// A cancelled context — a signal, in the binary — interrupts the solve,
// which then answers UNKNOWN and exits 0, like a budget given up.
func TestInterruptedSolveIsUnknown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	code, err := run(ctx, []string{"satsolve", "-progress", "1", pigeonhole(t, 9)}, &out, cancelOn{"c progress", cancel})
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v; want 0", code, err)
	}
	if strings.TrimSpace(out.String()) != "s UNKNOWN" {
		t.Fatalf("stdout %q, want s UNKNOWN", out.String())
	}
}
