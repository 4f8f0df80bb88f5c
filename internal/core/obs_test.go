package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sat"
	"repro/prog"
)

type collectSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *collectSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *collectSink) byName() map[string]obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]obs.Event, len(s.events))
	for _, e := range s.events {
		m[e.Name] = e
	}
	return m
}

// TestVerifyEmitsPhaseSpans checks the span taxonomy: one root "verify"
// span with every pipeline phase nested under it, and matching Phases
// timings on the result.
func TestVerifyEmitsPhaseSpans(t *testing.T) {
	p := prog.MustParse(fibSrc)
	sink := &collectSink{}
	res, err := Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 4, Cores: 2,
		Tracer: obs.NewTracer(sink),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}

	spans := sink.byName()
	verify, ok := spans["verify"]
	if !ok {
		t.Fatalf("no verify root span; got %v", spans)
	}
	if verify.Parent != 0 {
		t.Fatalf("verify span is not a root (parent %d)", verify.Parent)
	}
	if verify.Attrs["verdict"] != "UNSAFE" {
		t.Fatalf("verify verdict attr: %v", verify.Attrs)
	}
	for _, phase := range []string{"unfold", "flatten", "encode", "partition", "solve", "validate"} {
		sp, ok := spans[phase]
		if !ok {
			t.Fatalf("missing %q span; got %v", phase, spans)
		}
		if sp.Parent != verify.ID {
			t.Fatalf("%q span parent %d, want %d", phase, sp.Parent, verify.ID)
		}
	}
	if spans["solve"].Attrs["status"] != "SAT" {
		t.Fatalf("solve span attrs: %v", spans["solve"].Attrs)
	}
	// The template the two partitions' solvers were cloned from is a row
	// of its own under solve, not a gap in it.
	tpl, ok := spans["template"]
	if !ok || tpl.Parent != spans["solve"].ID {
		t.Fatalf("template span %+v is not a child of solve (%d); got %v", tpl, spans["solve"].ID, spans)
	}
	if tpl.Attrs["clauses_in"] != res.Template.ClausesIn || tpl.Attrs["clauses_out"] != res.Template.ClausesOut ||
		tpl.Attrs["elim_vars"] != res.Template.Stats.ElimVars || tpl.Attrs["cubes"] != res.Template.Cubes {
		t.Fatalf("template span attrs %v, result %+v", tpl.Attrs, res.Template)
	}
	if res.Template.Cubes == 0 || res.Template.Stats.ElimVars == 0 || res.Template.ClausesOut >= res.Template.ClausesIn {
		t.Fatalf("template %+v: want a simplified template that served the partitions", res.Template)
	}

	// Result.Phases mirrors the spans (validate included on UNSAFE runs).
	var names []string
	for _, ph := range res.Phases {
		names = append(names, ph.Name)
		if ph.Duration < 0 {
			t.Fatalf("phase %s has negative duration", ph.Name)
		}
	}
	want := []string{"unfold", "flatten", "encode", "partition", "template", "solve", "validate"}
	if len(names) != len(want) {
		t.Fatalf("phases: got %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases: got %v, want %v", names, want)
		}
	}
}

// TestVerifyPhasesWithoutTracer checks Phases are recorded even when no
// tracer is attached (the -stats path with no -trace-out).
func TestVerifyPhasesWithoutTracer(t *testing.T) {
	p := prog.MustParse(fibSrc)
	res, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 3, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(res.Phases) < 5 {
		t.Fatalf("phases: %v", res.Phases)
	}
}

// TestVerifyProgressCallback wires a live-progress hook through the
// parallel layer down to the CDCL loop.
func TestVerifyProgressCallback(t *testing.T) {
	p := prog.MustParse(fibSrc)
	var mu sync.Mutex
	snaps := 0
	var last sat.Stats
	res, err := Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 4, Cores: 1,
		ProgressEvery: 1,
		Progress: func(partition int, st sat.Stats) {
			mu.Lock()
			snaps++
			last = st
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	mu.Lock()
	defer mu.Unlock()
	if snaps == 0 {
		t.Fatal("progress hook never fired")
	}
	if last.Conflicts == 0 {
		t.Fatalf("last snapshot has no conflicts: %+v", last)
	}
}
