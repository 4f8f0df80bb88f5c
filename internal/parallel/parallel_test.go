package parallel

import (
	"context"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

// pigeonhole builds the classic hard UNSAT family.
func pigeonhole(holes int) *cnf.Formula {
	pigeons := holes + 1
	f := cnf.New()
	v := func(p, h int) cnf.Var { return cnf.Var(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		var c []cnf.Lit
		for h := 0; h < holes; h++ {
			c = append(c, cnf.PosLit(v(p, h)))
		}
		f.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(cnf.NegLit(v(p1, h)), cnf.NegLit(v(p2, h)))
			}
		}
	}
	return f
}

// partitionsOn builds 2^p partitions over arbitrary variables of f.
func partitionsOn(vars []cnf.Var, parts int) []partition.Partition {
	out := make([]partition.Partition, parts)
	p := 0
	for 1<<uint(p) < parts {
		p++
	}
	for i := 0; i < parts; i++ {
		pt := partition.Partition{Index: i}
		for j := 0; j < p; j++ {
			lit := cnf.PosLit(vars[j])
			if i&(1<<uint(j)) == 0 {
				lit = lit.Not()
			}
			pt.Assumptions = append(pt.Assumptions, lit)
		}
		out[i] = pt
	}
	return out
}

func TestAllUnsat(t *testing.T) {
	f := pigeonhole(5)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Solve(context.Background(), f, parts, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("want UNSAT, got %v", res.Status)
	}
	if len(res.Instances) != 4 {
		t.Fatalf("instances: %d", len(res.Instances))
	}
	for _, in := range res.Instances {
		if in.Status != sat.Unsat {
			t.Fatalf("instance %d: %v", in.Partition, in.Status)
		}
	}
	if res.Winner != -1 {
		t.Fatalf("winner: %d", res.Winner)
	}
}

func TestFirstSatWins(t *testing.T) {
	// A satisfiable formula: the winning partition must provide a model
	// honouring its assumptions.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.PosLit(3), cnf.NegLit(4))
	f.NumVars = 4
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Solve(context.Background(), f, parts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("want SAT, got %v", res.Status)
	}
	if res.Winner < 0 || res.Model == nil {
		t.Fatalf("winner %d, model %v", res.Winner, res.Model != nil)
	}
	// The model must satisfy the winning partition's assumptions.
	for _, pt := range parts {
		if pt.Index != res.Winner {
			continue
		}
		for _, a := range pt.Assumptions {
			val := res.Model[a.Var()-1]
			if a.Neg() {
				val = !val
			}
			if !val {
				t.Fatalf("model violates winning assumption %v", a)
			}
		}
	}
}

func TestSatInOnlyOnePartition(t *testing.T) {
	// Force satisfiability only in the partition where x1=1 and x2=0.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1))
	f.AddClause(cnf.NegLit(2))
	f.AddClause(cnf.PosLit(3))
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Solve(context.Background(), f, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("want SAT, got %v", res.Status)
	}
	// Index bit0 = polarity of x1, bit1 = polarity of x2: expect 0b01.
	if res.Winner != 1 {
		t.Fatalf("winner %d, want 1", res.Winner)
	}
}

func TestContextCancellation(t *testing.T) {
	f := pigeonhole(10) // hard enough not to finish instantly
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := Solve(ctx, f, parts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("want UNKNOWN after cancellation, got %v", res.Status)
	}
}

func TestWorkerLimitRespected(t *testing.T) {
	// With a single worker the instances run sequentially and all finish.
	f := pigeonhole(4)
	parts := partitionsOn([]cnf.Var{1, 2, 3}, 8)
	res, err := Solve(context.Background(), f, parts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("want UNSAT, got %v", res.Status)
	}
	if len(res.Instances) != 8 {
		t.Fatalf("instances: %d", len(res.Instances))
	}
}

func TestNoPartitionsError(t *testing.T) {
	if _, err := Solve(context.Background(), cnf.New(), nil, Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestInstanceStatsCollected(t *testing.T) {
	f := pigeonhole(6)
	parts := partitionsOn([]cnf.Var{1}, 2)
	res, err := Solve(context.Background(), f, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res.Instances {
		if in.Stats.Propagations == 0 {
			t.Fatalf("instance %d has empty stats", in.Partition)
		}
	}
}
