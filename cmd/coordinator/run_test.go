package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExitCodes runs the coordinator's entry point: a certification
// policy it cannot read is exit 2, before it listens, and so is a
// negative heartbeat interval, before it accepts a worker.
func TestExitCodes(t *testing.T) {
	src := filepath.Join(t.TempDir(), "prog.mt")
	if err := os.WriteFile(src, []byte("int x;\nvoid main() { x = 1; assert(x == 1); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-certify=bogus"}, "bogus"},
		{[]string{"-heartbeat=-1s", "-i", src}, "heartbeat interval"},
	} {
		args := append([]string{"coordinator", "-listen", "127.0.0.1:0"}, tc.args...)
		// A run that took the flag would wait for workers: the deadline
		// makes that a failure, not a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		code, err := run(ctx, args, io.Discard, io.Discard)
		cancel()
		if code != 2 || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("coordinator %v: exit %d, %v; want 2 and %q", args[1:], code, err, tc.want)
		}
	}
}
