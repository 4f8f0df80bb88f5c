package portfolio

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/sat"
)

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

func randomFormula(rng *rand.Rand, nv, nc int) *cnf.Formula {
	f := cnf.New()
	f.NumVars = nv
	for i := 0; i < nc; i++ {
		var c []cnf.Lit
		for j := 0; j < 3; j++ {
			c = append(c, cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0))
		}
		f.AddClause(c...)
	}
	return f
}

func TestUnsatBothStyles(t *testing.T) {
	f := pigeonhole(6)
	for _, style := range []Style{StyleSharing, StyleDiverse} {
		res, err := Solve(context.Background(), f, Options{Cores: 4, Style: style})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sat.Unsat {
			t.Fatalf("%v: want UNSAT, got %v", style, res.Status)
		}
		if res.Winner < 0 || res.Winner >= 4 {
			t.Fatalf("%v: winner %d", style, res.Winner)
		}
	}
}

func TestSatModelValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20; iter++ {
		f := randomFormula(rng, 30, 80)
		res, err := Solve(context.Background(), f, Options{Cores: 3, Style: StyleSharing})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == sat.Sat {
			assign := make([]bool, f.NumVars+1)
			copy(assign[1:], res.Model)
			if !f.Eval(assign) {
				t.Fatalf("iter %d: invalid model", iter)
			}
		}
	}
}

func TestAgreementWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 30; iter++ {
		f := randomFormula(rng, 12, 40+rng.Intn(20))
		seq := sat.NewFromFormula(f, sat.Options{})
		want, err := seq.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for _, style := range []Style{StyleSharing, StyleDiverse} {
			res, err := Solve(context.Background(), f, Options{Cores: 2, Style: style})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != want {
				t.Fatalf("iter %d %v: portfolio %v, sequential %v", iter, style, res.Status, want)
			}
		}
	}
}

func TestSharingHappens(t *testing.T) {
	f := pigeonhole(7)
	res, err := Solve(context.Background(), f, Options{Cores: 4, Style: StyleSharing, MaxSharedLBD: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("want UNSAT, got %v", res.Status)
	}
	if res.Shared == 0 {
		t.Fatal("no clauses exchanged")
	}
}

func TestCancellation(t *testing.T) {
	f := pigeonhole(11)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := Solve(ctx, f, Options{Cores: 2, Style: StyleDiverse})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("want UNKNOWN, got %v", res.Status)
	}
	if res.Winner != -1 {
		t.Fatalf("winner %d on cancellation", res.Winner)
	}
}

func TestSingleCoreDefault(t *testing.T) {
	f := pigeonhole(4)
	res, err := Solve(context.Background(), f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat || len(res.Stats) != 1 {
		t.Fatalf("status %v stats %d", res.Status, len(res.Stats))
	}
}

func TestStyleString(t *testing.T) {
	if StyleSharing.String() != "sharing" || StyleDiverse.String() != "diverse" {
		t.Fatal("style strings")
	}
}

// A hard formula under a tiny per-instance conflict budget: every
// instance degrades to Unknown with the conflict budget named, and the
// portfolio terminates instead of searching PHP to completion. The
// second case is `satsolve -cores 2 -max-conflicts 1`.
func TestPortfolioInstanceConflictBudget(t *testing.T) {
	for _, c := range []struct {
		cores     int
		conflicts int64
	}{{3, 10}, {2, 1}} {
		res, err := Solve(context.Background(), pigeonhole(8), Options{
			Cores: c.cores, Budget: journal.Budget{Conflicts: c.conflicts},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sat.Unknown {
			t.Fatalf("%+v: status %v, want Unknown", c, res.Status)
		}
		for i, cause := range res.Causes {
			if cause != sat.CauseConflictBudget {
				t.Fatalf("%+v instance %d: cause %v, want conflict-budget", c, i, cause)
			}
			if got := res.Stats[i].Conflicts; got > c.conflicts {
				t.Fatalf("%+v instance %d: %d conflicts under a budget of %d", c, i, got, c.conflicts)
			}
		}
	}
}

// A hard formula under a small wall-clock budget: the portfolio
// completes within the budget plus slack, each instance naming the
// timeout as the exhausted budget.
func TestPortfolioInstanceTimeout(t *testing.T) {
	start := time.Now()
	res, err := Solve(context.Background(), pigeonhole(9), Options{
		Cores: 2, Budget: journal.Budget{Timeout: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v: instance timeout did not bound the search", elapsed)
	}
	if res.Status != sat.Unknown {
		t.Fatalf("status %v, want Unknown", res.Status)
	}
	for i, c := range res.Causes {
		if c != sat.CauseTimeout {
			t.Fatalf("instance %d: cause %v, want timeout", i, c)
		}
	}
}

// Losing instances interrupted because a sibling won must be classified
// as cancelled, never as budget exhaustion.
func TestPortfolioCancelledSiblingsClassified(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := randomFormula(rng, 60, 120) // satisfiable with high probability
	res, err := Solve(context.Background(), f, Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Skipf("formula not satisfiable under this seed: %v", res.Status)
	}
	if res.Causes[res.Winner] != sat.CauseNone {
		t.Fatalf("winner cause %v, want none", res.Causes[res.Winner])
	}
	for i, c := range res.Causes {
		if i != res.Winner && c.Budgeted() {
			t.Fatalf("instance %d: loser misreported as %v", i, c)
		}
	}
}
