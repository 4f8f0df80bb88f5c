package bench

import "repro/prog"

// workstealingqueueSrc re-models the Workstealingqueue benchmark
// [Musuvathi & Qadeer, PLDI'07 onwards; SV-COMP pthread-complex]: a
// Chase–Lev work-stealing deque with an owner pushing and taking tasks
// at the bottom and thieves stealing at the top with a compare-and-swap
// (expressed as an atomic block). The original's bug is the classic
// missing owner/thief arbitration on the last element: the owner's take
// path does not re-check the top pointer, so when exactly one task
// remains, the owner and a thief can both execute it. Each task carries
// an execution counter; running a task twice raises dup, asserted by
// main after the joins. Exposing the bug needs the owner and a thief
// interleaved around the take (two unwindings for the owner's push/take
// loops and six execution contexts).
const workstealingqueueSrc = `
int top, bottom;
int task[4];
int execd[4];
int dup;

void owner() {
  int b;
  int t;
  int k = 0;
  while (k < 2) {
    b = bottom;
    task[b] = k + 1;
    bottom = b + 1;
    k = k + 1;
  }
  k = 0;
  while (k < 2) {
    b = bottom - 1;
    bottom = b;
    t = top;
    if (t <= b) {
      atomic {
        execd[b] = execd[b] + 1;
        if (execd[b] > 1) {
          dup = 1;
        }
      }
    }
    k = k + 1;
  }
}

void thief() {
  int t;
  int b;
  t = top;
  b = bottom;
  if (t < b) {
    atomic {
      if (top == t) {
        top = t + 1;
        execd[t] = execd[t] + 1;
        if (execd[t] > 1) {
          dup = 1;
        }
      }
    }
  }
}

void main() {
  int t1, t2, t3;
  t1 = create(owner);
  t2 = create(thief);
  t3 = create(thief);
  join(t1);
  join(t2);
  join(t3);
  assert(dup == 0);
}
`

// Workstealingqueue returns the re-modelled work-stealing queue program.
func Workstealingqueue() *prog.Program {
	return mustParse("workstealingqueue", workstealingqueueSrc)
}

// WorkstealingqueueBench returns the benchmark with metadata.
func WorkstealingqueueBench() Benchmark {
	return Benchmark{
		Name:        "workstealingqueue",
		Program:     Workstealingqueue(),
		Threads:     4,
		Lines:       countLines(workstealingqueueSrc),
		BugUnwind:   2,
		BugContexts: 7,
	}
}
