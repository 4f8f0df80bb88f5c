package main

import (
	"context"
	"io"
	"strings"
	"testing"
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
