package bench

import (
	"context"
	"testing"

	"repro/internal/core"
)

func TestBoundedbufferFixedIsSafe(t *testing.T) {
	p := BoundedbufferFixed()
	// Safe exactly where the buggy version fails (u=2, c=6), and beyond.
	res, err := core.Verify(context.Background(), p, core.Options{Unwind: 2, Contexts: 6, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Safe {
		t.Fatalf("fixed buffer at bug bound: %v", res.Verdict)
	}
}

func TestBoundedbufferFixedDeeper(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	p := BoundedbufferFixed()
	res, err := core.Verify(context.Background(), p, core.Options{
		Unwind: 2, Contexts: 7, Cores: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Safe {
		t.Fatalf("fixed buffer c=7: %v", res.Verdict)
	}
}

func TestWorkstealingqueueFixedIsSafe(t *testing.T) {
	p := WorkstealingqueueFixed()
	// Safe at the bound where the buggy version loses a task.
	res, err := core.Verify(context.Background(), p, core.Options{Unwind: 2, Contexts: 7, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Safe {
		t.Fatalf("fixed wsq at bug bound: %v", res.Verdict)
	}
}

func TestEliminationstackUnsafeParsesAndSafeShallow(t *testing.T) {
	p := EliminationstackUnsafe()
	if p.Proc("pusher") == nil || len(p.Main().Locals) == 0 {
		t.Fatal("bad program")
	}
	// The three-pusher race needs a deep interleaving; shallow bounds
	// must still be safe (mirroring the paper: the elimination stack bug
	// stays out of reach within the Table 2 bounds).
	res, err := core.Verify(context.Background(), p, core.Options{Unwind: 2, Contexts: 4, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.Safe {
		t.Fatalf("shallow bound: %v", res.Verdict)
	}
}
