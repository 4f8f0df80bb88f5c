package sat

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cnf"
)

func TestDecisionGraphRecording(t *testing.T) {
	s := NewFromFormula(pigeonhole(5), Options{})
	g := s.EnableGraph(0)
	st, err := s.Solve()
	if err != nil || st != Unsat {
		t.Fatalf("status %v err %v", st, err)
	}
	if len(g.Nodes) == 0 {
		t.Fatal("no decisions recorded")
	}
	if int64(len(g.Nodes)) != s.Stats().Decisions {
		t.Fatalf("recorded %d nodes, stats say %d decisions", len(g.Nodes), s.Stats().Decisions)
	}
	depth := 0
	for _, n := range g.Nodes {
		depth = max(depth, n.Level)
	}
	if depth != s.Stats().MaxDepth {
		t.Fatalf("graph depth %d, stats depth %d", depth, s.Stats().MaxDepth)
	}
	// Every edge must go one level down.
	for _, e := range g.Edges {
		if g.Nodes[e[1]].Level != g.Nodes[e[0]].Level+1 {
			t.Fatalf("edge %v skips levels (%d -> %d)", e, g.Nodes[e[0]].Level, g.Nodes[e[1]].Level)
		}
		if e[1] <= e[0] {
			t.Fatalf("edge %v not chronological", e)
		}
	}
}

func TestDecisionGraphDOT(t *testing.T) {
	s := NewFromFormula(pigeonhole(4), Options{})
	g := s.EnableGraph(0)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "php4"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "root", "->", "rank=same"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestDecisionGraphCap(t *testing.T) {
	s := NewFromFormula(pigeonhole(7), Options{})
	g := s.EnableGraph(10)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) > 10 {
		t.Fatalf("cap not honoured: %d nodes", len(g.Nodes))
	}
}

func TestDecisionGraphEmptyFormula(t *testing.T) {
	s := New(1, Options{})
	s.AddClause(cnf.PosLit(1))
	g := s.EnableGraph(0)
	st, _ := s.Solve()
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "trivial"); err != nil {
		t.Fatal(err)
	}
}
