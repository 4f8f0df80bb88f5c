package bench

import "repro/prog"

// eliminationstackSrc re-models the Eliminationstack benchmark [Hendler,
// Shavit, Yerushalmi, SPAA'04; SV-COMP pthread-complex]: a Treiber stack
// whose push and pop fall back to an elimination slot when their CAS on
// the stack top fails. The CAS operations are expressed as atomic
// blocks (the paper's language has no hardware CAS). The original's bug
// (use of freed memory in pop, needing three concurrent pushes and four
// pops) is mirrored by a time-of-check-to-time-of-use race on the
// elimination slot: a pusher tests the slot emptiness outside the atomic
// deposit, so two pushers that both fail their CAS can overwrite one
// another's value and break the conservation invariant checked by main.
// Exposing it needs at least three threads interleaved deep into their
// retry loops — beyond the context bounds used in Table 2, matching the
// paper, where no tool (including theirs) reaches the bug within the
// benchmarked bounds; the smaller bounds yield hard unsatisfiable
// instances.
const eliminationstackSrc = `
int top;
int stk[4];
int elim;
int pushed, popped, taken;

void pusher(int v) {
  int t;
  int c;
  int done = 0;
  int k = 0;
  while (k < 2) {
    if (done == 0) {
      t = top;
      atomic {
        if (top == t) {
          stk[t] = v;
          top = t + 1;
          pushed = pushed + 1;
          done = 1;
        }
      }
      if (done == 0) {
        c = elim;
        if (c == 0) {
          atomic {
            elim = v;
            pushed = pushed + 1;
            done = 1;
          }
        }
      }
    }
    k = k + 1;
  }
}

void popper() {
  int t;
  int v = 0;
  int done = 0;
  int k = 0;
  while (k < 2) {
    if (done == 0) {
      t = top;
      if (t > 0) {
        atomic {
          if (top == t) {
            v = stk[t - 1];
            top = t - 1;
            popped = popped + 1;
            done = 1;
          }
        }
      } else {
        atomic {
          if (elim != 0) {
            v = elim;
            elim = 0;
            popped = popped + 1;
            taken = taken + 1;
            done = 1;
          }
        }
      }
      if (done == 1) {
        assert(v > 0);
      }
    }
    k = k + 1;
  }
}

void main() {
  int t1, t2, t3, t4;
  int e = 0;
  t1 = create(pusher, 1);
  t2 = create(pusher, 2);
  t3 = create(popper);
  t4 = create(popper);
  join(t1);
  join(t2);
  join(t3);
  join(t4);
  if (elim != 0) {
    e = 1;
  }
  assert(pushed - popped == top + e);
}
`

// Eliminationstack returns the re-modelled elimination stack program.
func Eliminationstack() *prog.Program {
	return mustParse("eliminationstack", eliminationstackSrc)
}

// EliminationstackBench returns the benchmark with metadata. The bug is
// out of reach within the Table 2 bounds, and how far out is not
// established: u=2 answers SAFE at c=8, 9 and 10, and so does u=3 c=8
// (the three-pusher variant, EliminationstackUnsafe, is UNSAFE at u=2
// c=10). Whether this model's conservation violation needs more
// contexts or cannot happen is open (ROADMAP, item 6).
func EliminationstackBench() Benchmark {
	return Benchmark{
		Name:        "eliminationstack",
		Program:     Eliminationstack(),
		Threads:     5,
		Lines:       countLines(eliminationstackSrc),
		BugUnwind:   2,
		BugContexts: 0,
	}
}
