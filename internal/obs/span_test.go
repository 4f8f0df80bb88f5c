package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// memSink collects events in memory for assertions.
type memSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *memSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *memSink) all() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// fakeClock advances a fixed step per call, giving deterministic spans.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now := t
		t = t.Add(step)
		return now
	}
}

func TestSpanHierarchyAndDurations(t *testing.T) {
	sink := &memSink{}
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := NewTracer(sink).WithClock(fakeClock(start, time.Millisecond))

	root := tr.Start("verify", KV("unwind", 2)) // clock call 1: start=t0
	child := root.Child("encode")               // clock call 2: start=t0+1ms
	child.SetAttr("vars", 42)
	child.End() // clock call 3: end=t0+2ms, dur=1ms
	root.End(KV("verdict", "SAFE"))

	events := sink.all()
	if len(events) != 2 {
		t.Fatalf("events: got %d, want 2", len(events))
	}
	enc, verify := events[0], events[1]
	if enc.Name != "encode" || verify.Name != "verify" {
		t.Fatalf("order: got %q, %q", enc.Name, verify.Name)
	}
	if verify.ID != 1 || enc.ID != 2 {
		t.Fatalf("ids: verify=%d encode=%d", verify.ID, enc.ID)
	}
	if verify.Parent != 0 {
		t.Fatalf("root span has parent %d", verify.Parent)
	}
	if enc.Parent != verify.ID {
		t.Fatalf("child parent: got %d, want %d", enc.Parent, verify.ID)
	}
	if enc.DurMicros != 1000 {
		t.Fatalf("child duration: got %dus, want 1000us", enc.DurMicros)
	}
	if verify.DurMicros != 3000 { // t0 .. t0+3ms (three clock calls in between)
		t.Fatalf("root duration: got %dus, want 3000us", verify.DurMicros)
	}
	if !verify.Time.Equal(start) {
		t.Fatalf("root start: got %v, want %v", verify.Time, start)
	}
	if got := enc.Attrs["vars"]; got != 42 {
		t.Fatalf("child attr vars: got %v", got)
	}
	if got := verify.Attrs["verdict"]; got != "SAFE" {
		t.Fatalf("root attr verdict: got %v", got)
	}
	if got := verify.Attrs["unwind"]; got != 2 {
		t.Fatalf("root attr unwind: got %v", got)
	}
}

// A recorded child is emitted at once, begins with its parent, lasts
// what the caller measured and reads no clock.
func TestSpanRecord(t *testing.T) {
	sink := &memSink{}
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := NewTracer(sink).WithClock(fakeClock(start, time.Millisecond))

	root := tr.Start("solve")
	root.Record("template", 250*time.Microsecond, KV("cubes", 8))
	root.End()

	events := sink.all()
	if len(events) != 2 {
		t.Fatalf("events: got %d, want 2", len(events))
	}
	tpl, solve := events[0], events[1]
	if tpl.Name != "template" || tpl.Parent != solve.ID || tpl.ID == solve.ID {
		t.Fatalf("recorded span %+v is not a child of %+v", tpl, solve)
	}
	if !tpl.Time.Equal(start) || tpl.DurMicros != 250 {
		t.Fatalf("recorded span starts %v and lasts %dus, want %v and 250us", tpl.Time, tpl.DurMicros, start)
	}
	if tpl.Attrs["cubes"] != 8 {
		t.Fatalf("recorded span attrs: %v", tpl.Attrs)
	}
	if solve.DurMicros != 1000 {
		t.Fatalf("Record read the clock: parent lasted %dus, want 1000us", solve.DurMicros)
	}
	var nilSpan *Span
	nilSpan.Record("template", time.Second)
}

func TestSpanEndIdempotent(t *testing.T) {
	sink := &memSink{}
	tr := NewTracer(sink)
	sp := tr.Start("phase")
	sp.End()
	sp.End()
	sp.End(KV("late", true))
	if got := len(sink.all()); got != 1 {
		t.Fatalf("emits after repeated End: got %d, want 1", got)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if NewTracer(nil) != nil {
		t.Fatal("NewTracer(nil) should return a nil tracer")
	}
	tr.WithClock(time.Now)
	sp := tr.Start("anything", KV("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	sp.SetAttr("k", 1)
	child := sp.Child("sub")
	if child != nil {
		t.Fatal("nil span must hand out nil children")
	}
	child.End()
	sp.End(KV("k", 2))
}

func TestJSONLSinkOutput(t *testing.T) {
	var buf bytes.Buffer
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := NewTracer(NewJSONLSink(&buf)).WithClock(fakeClock(start, 250*time.Microsecond))

	root := tr.Start("verify")
	for _, phase := range []string{"unfold", "flatten", "encode"} {
		root.Child(phase).End()
	}
	root.End()

	var names []string
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if e.ID == 0 {
			t.Fatalf("line %q: missing id", sc.Text())
		}
		if e.Name != "verify" && e.Parent != 1 {
			t.Fatalf("phase %q not parented under verify (parent %d)", e.Name, e.Parent)
		}
		if e.DurMicros != 250 && e.Name != "verify" {
			t.Fatalf("phase %q duration %dus, want 250us", e.Name, e.DurMicros)
		}
		names = append(names, e.Name)
	}
	want := []string{"unfold", "flatten", "encode", "verify"}
	if len(names) != len(want) {
		t.Fatalf("spans: got %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans: got %v, want %v", names, want)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	sink := &memSink{}
	tr := NewTracer(sink)
	root := tr.Start("solve")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := root.Child("partition", KV("index", i))
			sp.SetAttr("status", "UNSAT")
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	events := sink.all()
	if len(events) != 17 {
		t.Fatalf("events: got %d, want 17", len(events))
	}
	seen := make(map[int64]bool)
	for _, e := range events {
		if seen[e.ID] {
			t.Fatalf("duplicate span id %d", e.ID)
		}
		seen[e.ID] = true
	}
}
