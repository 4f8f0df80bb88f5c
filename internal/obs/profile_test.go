package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestProfilerCapturesPhases(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	p, err := NewProfiler(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	p.StartPhase("encode")
	p.EndPhase("encode")
	p.StartPhase("solve")
	p.EndPhase("solve")

	entries := p.Entries()
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4 (cpu+heap per phase): %+v", len(entries), entries)
	}
	// Sorted by phase then kind.
	wantOrder := []ProfileEntry{
		{Phase: "encode", Kind: "cpu"},
		{Phase: "encode", Kind: "heap"},
		{Phase: "solve", Kind: "cpu"},
		{Phase: "solve", Kind: "heap"},
	}
	for i, w := range wantOrder {
		e := entries[i]
		if e.Phase != w.Phase || e.Kind != w.Kind {
			t.Errorf("entry %d = %s/%s, want %s/%s", i, e.Phase, e.Kind, w.Phase, w.Kind)
		}
		if e.Bytes <= 0 {
			t.Errorf("entry %d (%s/%s) is empty", i, e.Phase, e.Kind)
		}
		if fi, err := os.Stat(e.Path); err != nil || fi.Size() != e.Bytes {
			t.Errorf("entry %d path %s: stat %v, size mismatch", i, e.Path, err)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatalf("capture error: %v", err)
	}
}

// The Go runtime allows one active CPU profile per process: a phase
// started while another is still open skips its CPU capture, records
// the error, and must still snapshot the heap at EndPhase.
func TestProfilerOverlappingPhases(t *testing.T) {
	p, err := NewProfiler(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	p.StartPhase("outer")
	p.StartPhase("inner") // CPU skipped: outer's capture is active
	p.EndPhase("inner")
	p.EndPhase("outer")

	kinds := map[string]int{}
	for _, e := range p.Entries() {
		kinds[e.Phase+"/"+e.Kind]++
	}
	for _, want := range []string{"outer/cpu", "outer/heap", "inner/heap"} {
		if kinds[want] != 1 {
			t.Errorf("missing %s capture: %v", want, kinds)
		}
	}
	if kinds["inner/cpu"] != 0 {
		t.Errorf("inner CPU profile should have been skipped: %v", kinds)
	}
	if p.Err() == nil {
		t.Error("overlapping StartPhase did not record an error")
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.StartPhase("x")
	p.EndPhase("x")
	if p.Entries() != nil || p.Err() != nil {
		t.Error("nil profiler not inert")
	}
}
