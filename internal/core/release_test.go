package core

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"repro/prog"
)

// TestCertifiedRunReleasesFormula: a certified run of several cubes holds
// no formula once its template is built — the encoding let it go at
// Prepare, the template's solver and the run's checker have loaded it,
// and it is garbage — and still certifies every cube. Formula gives it
// back, checked against the digest taken at Prepare: a formula made
// again that is not the run's is an error, never a formula. A build cut
// short is made again from the formula made again, and a run of one
// cube loads its checker from the formula before it goes.
func TestCertifiedRunReleasesFormula(t *testing.T) {
	ctx := context.Background()
	p := prog.MustParse(fibSrc)
	for _, opts := range []Options{
		{Unwind: 1, Contexts: 3, Partitions: 4, Cores: 2, CertifyUnsat: true},
		{Unwind: 1, Contexts: 3, Partitions: 1, CertifyUnsat: true},
	} {
		pr, err := Prepare(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pr.template.Formula() // the template's own: not built yet
		if err != nil {
			t.Fatal(err)
		}
		gone := weak.Make(f)
		f = nil
		if opts.Partitions > 1 {
			// A build cut short: the run builds again, from the formula
			// made again.
			cut, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := pr.Template().Snapshot(cut); err == nil {
				t.Fatalf("%+v: a build under a cancelled context went through", opts)
			}
		}
		res, err := pr.run(ctx, opts)
		if err != nil || res.Verdict != Safe || !res.Certified || res.CertifyWork.Lemmas == 0 {
			t.Fatalf("%+v: %v, %v", opts, res, err)
		}
		runtime.GC()
		if gone.Value() != nil {
			t.Fatalf("%+v: after the template's build the run still holds the formula", opts)
		}
		again, err := pr.template.Formula()
		if err != nil || again.NumClauses() != res.Clauses || again.NumVars != res.Vars {
			t.Fatalf("%+v: the formula made again: %v", opts, err)
		}
		pr.digest ^= 1
		if f, err := pr.template.Formula(); err == nil || f != nil {
			t.Fatalf("%+v: a digest that does not match: %v", opts, err)
		}
	}
}
