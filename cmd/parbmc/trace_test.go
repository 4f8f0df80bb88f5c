package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestTraceOutJSONL drives the -trace-out path end to end through
// parbmc's run: the emitted file must be valid JSONL with one span per
// pipeline phase, correctly parented under the verify root, beside the
// parse span.
func TestTraceOutJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	code, err := run(context.Background(), []string{"parbmc", "-benchmark", "fibonacci",
		"-unwind", "1", "-contexts", "3", "-cores", "2", "-trace-out", path}, io.Discard, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run: exit %d, %v", code, err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := make(map[string]obs.Event)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		if e.Name == "" || e.ID == 0 || e.DurMicros < 0 || e.Time.IsZero() {
			t.Fatalf("malformed span event: %+v", e)
		}
		if _, dup := spans[e.Name]; dup {
			t.Fatalf("phase %q emitted more than one span", e.Name)
		}
		spans[e.Name] = e
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	verify, ok := spans["verify"]
	if !ok || verify.Parent != 0 {
		t.Fatalf("verify root span missing or parented: %+v", spans)
	}
	if parse, ok := spans["parse"]; !ok || parse.Parent != 0 {
		t.Fatalf("parse root span missing or parented: %+v", spans)
	}
	for _, phase := range []string{"unfold", "flatten", "encode", "partition", "solve"} {
		sp, ok := spans[phase]
		if !ok {
			t.Fatalf("missing %q span in trace file; got %d spans", phase, len(spans))
		}
		if sp.Parent != verify.ID {
			t.Fatalf("%q span parent %d, want verify id %d", phase, sp.Parent, verify.ID)
		}
	}
	if got := spans["verify"].Attrs["verdict"]; got != "SAFE" {
		t.Fatalf("verify verdict attr: %v", got)
	}
}
