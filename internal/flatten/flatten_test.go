package flatten

import (
	"strings"
	"testing"

	"repro/internal/unfold"
	"repro/prog"
)

func mustFlatten(t *testing.T, src string, u int) *Program {
	t.Helper()
	p, err := prog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	up, err := unfold.Unfold(p, unfold.Options{Unwind: u})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Flatten(up)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestVisibleBlockStructure(t *testing.T) {
	src := `
int g;
void main() {
  int x;
  x = 1;      // invisible (local)
  g = x;      // visible -> block 0 (plus the invisible prefix)
  x = x + 1;  // invisible, glued to block 0
  g = x;      // visible -> block 1
}
`
	fp := mustFlatten(t, src, 1)
	main := fp.Threads[0]
	if main.Size() != 2 {
		t.Fatalf("main size: %d, want 2", main.Size())
	}
	// Block 0 holds: x=1 (invisible prefix), g=x (visible), x=x+1
	// (invisible glue).
	if len(main.Blocks[0]) != 3 {
		t.Fatalf("block 0 steps: %d, want 3", len(main.Blocks[0]))
	}
	if len(main.Blocks[1]) != 1 {
		t.Fatalf("block 1 steps: %d, want 1", len(main.Blocks[1]))
	}
}

func TestPurelyLocalThreadHasOneBlock(t *testing.T) {
	src := `
void main() {
  int x;
  x = 1;
  x = x + 1;
  assert(x == 2);
}
`
	fp := mustFlatten(t, src, 1)
	if fp.Threads[0].Size() != 1 {
		t.Fatalf("size: %d, want 1", fp.Threads[0].Size())
	}
}

func TestIfConversionGuards(t *testing.T) {
	src := `
int g;
void main() {
  int x = 1;
  if (x == 1) {
    g = 1;
  } else {
    g = 2;
  }
}
`
	fp := mustFlatten(t, src, 1)
	main := fp.Threads[0]
	// Two visible assignments => two blocks.
	if main.Size() != 2 {
		t.Fatalf("size: %d, want 2", main.Size())
	}
	// Find the two guarded assignments to g; one must have a positive and
	// one a negated guard on the same variable.
	var pos, neg *Step
	for bi := range main.Blocks {
		for si := range main.Blocks[bi] {
			st := &main.Blocks[bi][si]
			a, ok := st.Op.(*AssignOp)
			if !ok || a.LHS.BaseName() != "g" {
				continue
			}
			for _, gu := range st.Guards {
				if gu.Neg {
					neg = st
				} else {
					pos = st
				}
			}
		}
	}
	if pos == nil || neg == nil {
		t.Fatal("if-conversion did not produce complementary guards")
	}
}

func TestNestedIfAccumulatesGuards(t *testing.T) {
	src := `
int g;
void main() {
  int a = 1;
  int b = 2;
  if (a == 1) {
    if (b == 2) {
      g = 1;
    }
  }
}
`
	fp := mustFlatten(t, src, 1)
	found := false
	for _, blk := range fp.Threads[0].Blocks {
		for _, st := range blk {
			if a, ok := st.Op.(*AssignOp); ok && a.LHS.BaseName() == "g" {
				// Two nested if guards.
				if len(st.Guards) != 2 {
					t.Fatalf("guards on nested stmt: %d, want 2 (%v)", len(st.Guards), st.Guards)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("nested assignment not found")
	}
}

func TestAtomicBlockIsOneVisiblePoint(t *testing.T) {
	src := `
int g, h;
void main() {
  atomic {
    g = 1;
    h = 2;
    g = g + h;
  }
  g = 5;
}
`
	fp := mustFlatten(t, src, 1)
	main := fp.Threads[0]
	// The atomic block is one visible point, the final store another.
	if main.Size() != 2 {
		t.Fatalf("size: %d, want 2", main.Size())
	}
	// Block 0 contains exactly the three atomic steps.
	if len(main.Blocks[0]) != 3 {
		t.Fatalf("block 0 steps: %d, want 3", len(main.Blocks[0]))
	}
}

func TestAtomicWithOnlyLocalsIsInvisible(t *testing.T) {
	src := `
int g;
void main() {
  int x;
  atomic {
    x = 1;
    x = x + 1;
  }
  g = x;
}
`
	fp := mustFlatten(t, src, 1)
	if fp.Threads[0].Size() != 1 {
		t.Fatalf("size: %d, want 1", fp.Threads[0].Size())
	}
}

func TestConcurrencyOpsAreVisible(t *testing.T) {
	src := `
mutex m;
int g;
void w() { lock(m); g = g + 1; unlock(m); }
void main() {
  int t;
  t = create(w);
  join(t);
}
`
	fp := mustFlatten(t, src, 1)
	if fp.Threads[0].Size() != 2 { // create, join
		t.Fatalf("main size: %d, want 2", fp.Threads[0].Size())
	}
	if fp.Threads[1].Size() != 3 { // lock, store, unlock
		t.Fatalf("worker size: %d, want 3", fp.Threads[1].Size())
	}
	// The create op must carry the target and the tid destination.
	var create *CreateOp
	for _, blk := range fp.Threads[0].Blocks {
		for _, st := range blk {
			if c, ok := st.Op.(*CreateOp); ok {
				create = c
			}
		}
	}
	if create == nil || create.Target != 1 {
		t.Fatalf("create op: %+v", create)
	}
}

func TestCreateArgsCopied(t *testing.T) {
	src := `
int g;
void w(int a, bool b) {
  if (b) { g = a; }
}
void main() {
  int t;
  t = create(w, 41, true);
}
`
	fp := mustFlatten(t, src, 1)
	var create *CreateOp
	for _, blk := range fp.Threads[0].Blocks {
		for _, st := range blk {
			if c, ok := st.Op.(*CreateOp); ok {
				create = c
			}
		}
	}
	if create == nil || len(create.Args) != 2 {
		t.Fatalf("create args: %+v", create)
	}
	if create.Args[0].Dest != fp.Threads[1].Params[0].Name {
		t.Fatalf("arg dest %q != param %q", create.Args[0].Dest, fp.Threads[1].Params[0].Name)
	}
}

func TestGlobalReadInConditionIsVisible(t *testing.T) {
	src := `
int g;
void main() {
  int x;
  if (g == 1) {
    x = 1;
  }
  g = x;
}
`
	fp := mustFlatten(t, src, 1)
	// The guard assignment reads g: it is itself a visible point, so the
	// thread has two blocks (guard eval, final store).
	if fp.Threads[0].Size() != 2 {
		t.Fatalf("size: %d, want 2", fp.Threads[0].Size())
	}
}

func TestStatsHelpers(t *testing.T) {
	src := `
int g;
void w() { g = g + 1; }
void main() {
  int t;
  t = create(w);
  g = 2;
}
`
	fp := mustFlatten(t, src, 1)
	if fp.MaxThreadSize() < 2 {
		t.Fatalf("MaxThreadSize: %d", fp.MaxThreadSize())
	}
	steps := 0
	for _, th := range fp.Threads {
		for _, b := range th.Blocks {
			steps += len(b)
		}
	}
	if steps != 3 {
		t.Fatalf("steps: %d", steps)
	}
}

func TestFormat(t *testing.T) {
	src := `
mutex m;
int g;
int a[2];
void w(int v) {
  lock(m);
  a[v] = v;
  unlock(m);
}
void main() {
  int t;
  int x = 1;
  if (x == 1) {
    g = 2;
  }
  t = create(w, 3);
  join(t);
  assume(g > 0);
  assert(g == 2);
}
`
	fp := mustFlatten(t, src, 1)
	var buf strings.Builder
	if err := Format(&buf, fp); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"shared int g;",
		"thread 0 (main)",
		"thread 1 (w)",
		"block 0:",
		"lock(m)",
		"unlock(m)",
		"create(thread 1",
		"join(",
		"assume(",
		"assert(",
		"[guard$",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}
