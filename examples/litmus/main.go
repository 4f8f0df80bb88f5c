// Litmus: classic memory-model litmus tests under sequential
// consistency, TSO, and PSO via store-buffer transformations.
//
// The paper (Sect. 5) notes that its partitioned analysis extends to
// weak memory models through program transformations that leave the
// scheduler untouched. This example demonstrates exactly that: the
// store-buffering test fails under both TSO and PSO while the
// message-passing test fails only under PSO (TSO keeps stores in program
// order), and all six verdicts come from the same partitioned parallel
// analysis.
//
//	go run ./examples/litmus
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/weakmem"
	"repro/prog"
)

const storeBuffering = `
int x, y;
int r1, r2;

void t1() {
  x = 1;
  r1 = y;
}

void t2() {
  y = 1;
  r2 = x;
}

void main() {
  int a, b;
  a = create(t1);
  b = create(t2);
  join(a);
  join(b);
  assert(!(r1 == 0 && r2 == 0));
}
`

const messagePassing = `
int data, flag, out;

void sender() {
  data = 1;
  flag = 1;
}

void receiver() {
  int f;
  f = flag;
  if (f == 1) {
    out = data;
  } else {
    out = 1;
  }
}

void main() {
  int a, b;
  out = 1;
  a = create(sender);
  b = create(receiver);
  join(a);
  join(b);
  assert(out == 1);
}
`

func main() {
	cases := []struct {
		name     string
		src      string
		contexts int
	}{
		{"store buffering (SB)", storeBuffering, 6},
		{"message passing (MP)", messagePassing, 6},
	}
	for _, c := range cases {
		sc := prog.MustParse(c.src)
		pso, err := weakmem.Transform(sc)
		if err != nil {
			log.Fatal(err)
		}
		tso, err := weakmem.TransformTSO(sc, 2)
		if err != nil {
			log.Fatal(err)
		}
		scRes := verify(sc, c.contexts)
		tsoRes := verify(tso, c.contexts+1)
		psoRes := verify(pso, c.contexts)
		fmt.Printf("%-22s SC: %-7s TSO: %-7s PSO: %-7s", c.name, scRes.Verdict, tsoRes.Verdict, psoRes.Verdict)
		if psoRes.Verdict == core.Unsafe {
			fmt.Printf("  (weak schedule: %v)", psoRes.Trace)
		}
		fmt.Println()
	}
	fmt.Println("\nStore buffering fails as soon as stores hide in per-thread buffers")
	fmt.Println("(TSO and PSO); message passing additionally needs stores to different")
	fmt.Println("locations to reorder, which TSO forbids and PSO allows. The")
	fmt.Println("transformations leave the scheduler untouched, so the partitioned")
	fmt.Println("analysis runs unchanged on all of them.")
}

func verify(p *prog.Program, contexts int) *core.Result {
	res, err := core.Verify(context.Background(), p, core.Options{
		Unwind:   2,
		Contexts: contexts,
		Cores:    4,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
