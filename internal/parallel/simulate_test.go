package parallel

import (
	"context"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

func TestSimulateMatchesSolveVerdicts(t *testing.T) {
	// Simulate and Solve must agree on verdict and winner semantics.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1))
	f.AddClause(cnf.NegLit(2))
	f.AddClause(cnf.PosLit(3), cnf.PosLit(4))
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	for _, workers := range []int{1, 2, 4} {
		sim, err := Simulate(context.Background(), f, parts, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		real, err := Solve(context.Background(), f, parts, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if sim.Status != real.Status {
			t.Fatalf("workers=%d: simulate %v, solve %v", workers, sim.Status, real.Status)
		}
		if sim.Status == sat.Sat {
			// Winner may legitimately differ (scheduling), but both must
			// name a satisfiable partition with a valid model.
			assign := make([]bool, f.NumVars+1)
			copy(assign[1:], sim.Model)
			if !f.Eval(assign) {
				t.Fatalf("workers=%d: simulated model invalid", workers)
			}
		}
	}
}

func TestSimulateUnsatMakespan(t *testing.T) {
	f := pigeonhole(5)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Simulate(context.Background(), f, parts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if len(res.Instances) != 4 {
		t.Fatalf("instances %d", len(res.Instances))
	}
	// The 2-worker makespan lies between max instance time and the total,
	// after the template: the serial prefix every worker waits for.
	var total, max time.Duration
	for _, in := range res.Instances {
		total += in.Time
		if in.Time > max {
			max = in.Time
		}
	}
	if res.Template.Time <= 0 || res.Template.Cubes != 4 {
		t.Fatalf("template %+v, want a timed template that served 4 cubes", res.Template)
	}
	if span := res.Wall - res.Template.Time; span < max || span > total {
		t.Fatalf("wall %v less template %v outside [max %v, total %v]", res.Wall, res.Template.Time, max, total)
	}
	// With one worker the makespan is exactly the template plus the total.
	res1, err := Simulate(context.Background(), f, parts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var total1 time.Duration
	for _, in := range res1.Instances {
		total1 += in.Time
	}
	if res1.Wall != res1.Template.Time+total1 {
		t.Fatalf("1-worker wall %v != template %v + total %v", res1.Wall, res1.Template.Time, total1)
	}
}

func TestSimulateWinnerIsEarliestFinisher(t *testing.T) {
	// Partition 3 (x1=1, x2=1) is the only satisfiable one.
	f := cnf.New()
	f.AddClause(cnf.PosLit(1))
	f.AddClause(cnf.PosLit(2))
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	res, err := Simulate(context.Background(), f, parts, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat || res.Winner != 3 {
		t.Fatalf("status %v winner %d", res.Status, res.Winner)
	}
	for _, a := range parts[3].Assumptions {
		val := res.Model[a.Var()-1]
		if a.Neg() {
			val = !val
		}
		if !val {
			t.Fatalf("model violates winning assumption %v", a)
		}
	}
}

func TestSimulateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := pigeonhole(5)
	parts := partitionsOn([]cnf.Var{1}, 2)
	res, err := Simulate(ctx, f, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v", res.Status)
	}
}

// certifyCases are what the two certification tests run: a formula too
// small for the template's pass to matter, and an encoded cell whose
// every cube's proof stands on some 40 000 lemmas of the pass — which
// the run's checker must take from the template (Template.Check) or
// reject the cubes' own lemmas as unfounded.
type certifyCase struct {
	name  string
	f     *cnf.Formula
	parts []partition.Partition
}

func certifyCases(t *testing.T) []certifyCase {
	esF, esParts := esCell(t)
	return []certifyCase{
		{"pigeonhole", pigeonhole(5), partitionsOn([]cnf.Var{1, 2}, 4)},
		{"es.u2.c4.p8", esF, esParts},
	}
}

func TestSimulateCertify(t *testing.T) {
	for _, tc := range certifyCases(t) {
		res, err := Simulate(context.Background(), tc.f, tc.parts, Options{Workers: 2, CertifyUnsat: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != sat.Unsat || !res.Certified || res.Template.Stats.ElimVars == 0 {
			t.Fatalf("%s: status %v certified %v template %+v", tc.name, res.Status, res.Certified, res.Template)
		}
	}
}

func TestSolveCertify(t *testing.T) {
	for _, tc := range certifyCases(t) {
		res, err := Solve(context.Background(), tc.f, tc.parts, Options{Workers: 2, CertifyUnsat: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != sat.Unsat || !res.Certified || res.Template.Stats.ElimVars == 0 {
			t.Fatalf("%s: status %v certified %v template %+v", tc.name, res.Status, res.Certified, res.Template)
		}
	}
}

func TestSimulateNoPartitions(t *testing.T) {
	if _, err := Simulate(context.Background(), cnf.New(), nil, Options{}); err == nil {
		t.Fatal("expected error")
	}
}
