package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestExitCodes runs the worker's entry point: a fault plan it cannot
// read is exit 2, before it dials anyone.
func TestExitCodes(t *testing.T) {
	args := []string{"worker", "-fault-slow-ms", "1", "-fault-slow-jobs", "x"}
	code, err := run(context.Background(), args, io.Discard, io.Discard)
	if code != 2 || err == nil || !strings.Contains(err.Error(), `-fault-slow-jobs: bad job index "x"`) {
		t.Fatalf("worker %v: exit %d, %v; want 2 and the bad index", args[1:], code, err)
	}
}

// The worker prints one line for each job its memory watchdog cancelled,
// from the trip its job span records, and none for a job without one.
func TestWatchdogTripLine(t *testing.T) {
	var out strings.Builder
	lines := spanLines{&out}
	lines.Emit(obs.Event{Name: "worker_job", Attrs: map[string]any{"job": 4, "verdict": "UNSAT"}})
	lines.Emit(obs.Event{Name: "worker_job", Attrs: map[string]any{
		"job": 5, "verdict": "UNKNOWN", "mem_trip": "memory watchdog tripped at 950 of 1000 bytes"}})
	want := "worker: memory watchdog tripped at 950 of 1000 bytes: job 5 cancelled, its cube goes back to the coordinator\n"
	if out.String() != want {
		t.Fatalf("printed %q, want %q", out.String(), want)
	}
}
