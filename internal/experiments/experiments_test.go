package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/portfolio"
)

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	all := Table1(&buf)
	if len(all) != 4 {
		t.Fatalf("benchmarks: %d", len(all))
	}
	out := buf.String()
	for _, name := range []string{"boundedbuffer", "eliminationstack", "safestack", "workstealingqueue"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %s in output", name)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(false)
	if len(g) != 13 {
		t.Fatalf("grid cells: %d", len(g))
	}
	full := Grid(true)
	if len(full) <= len(g) {
		t.Fatal("full grid not larger")
	}
	reach := 0
	for _, c := range g {
		if c.Reach {
			reach++
		}
	}
	if reach != 3 {
		t.Fatalf("reachable cells: %d, want 3", reach)
	}
}

// smallCfg keeps the unit-test runtime modest.
func smallCfg() Config { return Config{Cores: []int{1, 2}} }

func TestTable2SmokeAndConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	rows, err := Table2(context.Background(), &buf, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Grid(false)) {
		t.Fatalf("rows: %d", len(rows))
	}
	if err := VerdictsConsistent(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Vars == 0 || r.Clauses == 0 {
			t.Fatalf("%s: missing formula size", r.Bench.Name)
		}
		if r.Times[1] <= 0 || r.Times[2] <= 0 {
			t.Fatalf("%s: missing times", r.Bench.Name)
		}
	}
}

func TestFig6Reduction(t *testing.T) {
	var buf bytes.Buffer
	st, err := Fig6(context.Background(), &buf, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's qualitative claim: the best partition's decision graph
	// is substantially smaller than the whole formula's.
	if st.BestDecisions >= st.WholeDecisions {
		t.Fatalf("no decision reduction: whole=%d best=%d", st.WholeDecisions, st.BestDecisions)
	}
	if st.BestMaxDepth > st.WholeMaxDepth {
		t.Fatalf("depth grew: whole=%d best=%d", st.WholeMaxDepth, st.BestMaxDepth)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("missing header")
	}
}

// Fig. 7 is one simulated run per cell, a core per partition: every
// cell answers, in a time of its own, what a one-core run of the same
// bounds answers, however many partitions the cores split it into.
func TestFig7Verdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	ctx := context.Background()
	var buf bytes.Buffer
	points, err := Fig7(ctx, &buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 || !strings.Contains(buf.String(), "Figure 7") {
		t.Fatalf("%d points:\n%s", len(points), buf.String())
	}
	want := map[int]core.Verdict{}
	for _, pt := range points {
		if _, ok := want[pt.Contexts]; !ok {
			res, err := core.Verify(ctx, bench.Safestack(), core.Options{Unwind: 2, Contexts: pt.Contexts})
			if err != nil || res.Verdict == core.Unknown {
				t.Fatalf("c=%d on one core: %+v, %v", pt.Contexts, res, err)
			}
			want[pt.Contexts] = res.Verdict
		}
		if pt.Verdict != want[pt.Contexts] || pt.Time <= 0 {
			t.Errorf("c=%d on %d cores: %v in %v, one core %v", pt.Contexts, pt.Cores, pt.Verdict, pt.Time, want[pt.Contexts])
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	var buf bytes.Buffer
	if err := AblationScheduler(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if err := AblationPartitions(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if err := AblationFreeze(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"round-robin", "dynamic", "frozen"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

func TestTable34Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := Config{Cores: []int{1}}
	var buf bytes.Buffer
	// Restrict to a cheap subset by reusing Table2 on cores={1} first.
	t2, err := Table2(context.Background(), &buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table34(context.Background(), &buf, cfg, portfolio.StyleDiverse, t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(t2) {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.Times[1] <= 0 {
			t.Fatalf("%s: missing portfolio time", r.Bench.Name)
		}
	}
}

func TestVerdictsConsistentDetectsMismatch(t *testing.T) {
	rows := []Table2Row{{
		Cell:     Cell{Bench: Grid(false)[0].Bench, U: 1, C: 1, Reach: true},
		Verdicts: map[int]core.Verdict{1: core.Safe},
	}}
	if err := VerdictsConsistent(rows); err == nil {
		t.Fatal("mismatch not detected")
	}
}
