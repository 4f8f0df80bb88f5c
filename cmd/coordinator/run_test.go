package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// TestExitCodes runs the coordinator's entry point: a certification
// policy it cannot read is exit 2, before it listens.
func TestExitCodes(t *testing.T) {
	args := []string{"coordinator", "-certify=bogus", "-listen", "127.0.0.1:0"}
	code, err := run(context.Background(), args, io.Discard, io.Discard)
	if code != 2 || err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("coordinator %v: exit %d, %v; want 2 and the bad policy", args[1:], code, err)
	}
}
