package sat

import (
	"sync"
	"testing"
	"time"
)

// Interrupt raced from other goroutines mid-search: many concurrent
// interrupters against a live Solve must be race-clean (run under
// -race) and the solve must come back Unknown/ErrInterrupted promptly.
func TestInterruptRacedMidSearch(t *testing.T) {
	s := NewFromFormula(pigeonhole(9), Options{ProgressEvery: 1})
	searching := firstConflict(s)
	done := make(chan struct{})
	var st Status
	var serr error
	go func() {
		st, serr = s.Solve()
		close(done)
	}()

	// Fire Interrupt from several goroutines at once, all released by the
	// first conflict, while Interrupted() is polled concurrently too.
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-searching
			s.Interrupt()
			_ = s.Interrupted()
		}()
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("solver did not react to raced interrupt")
	}
	// PHP(9) takes far more than one conflict, so the interrupt landed
	// mid-search.
	if serr != ErrInterrupted || st != Unknown {
		t.Fatalf("status %v err %v, want Unknown/ErrInterrupted", st, serr)
	}
	if !s.Interrupted() {
		t.Fatal("Interrupted() false after interrupt")
	}
}

// clearInterrupt re-arms a solver after an interrupt, so that it can be
// solved again. It must not race a Solve the caller still wants
// interrupted.
func clearInterrupt(s *Solver) {
	s.interrupt.Store(false)
	s.memInterrupt.Store(false)
}

// After an interrupt the same solver instance must be reusable:
// clearInterrupt re-arms it and a repeat Solve reaches the real verdict.
func TestReSolveAfterInterrupt(t *testing.T) {
	s := NewFromFormula(pigeonhole(6), Options{})
	s.Interrupt() // pre-armed: the next Solve bails out at the first search step
	st, err := s.Solve()
	if err != ErrInterrupted || st != Unknown {
		t.Fatalf("pre-armed interrupt: status %v err %v", st, err)
	}

	// Without clearInterrupt the flag is sticky: solving again still
	// returns immediately.
	st, err = s.Solve()
	if err != ErrInterrupted || st != Unknown {
		t.Fatalf("sticky interrupt: status %v err %v", st, err)
	}

	clearInterrupt(s)
	if s.Interrupted() {
		t.Fatal("Interrupted() true after clearInterrupt")
	}
	st, err = s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("re-solve after clearInterrupt: %v, want Unsat", st)
	}
}

// firstConflict arms s, built with ProgressEvery 1, to close the channel
// it returns at its first conflict: from then on an interrupt lands in a
// search that is under way, which no sleep before it can promise.
func firstConflict(s *Solver) <-chan struct{} {
	searching := make(chan struct{})
	var once sync.Once
	s.Progress = func(Stats) { once.Do(func() { close(searching) }) }
	return searching
}

// The interrupt → clear → re-solve cycle under goroutine churn: each
// round interrupts a live search from another goroutine, then clears
// and re-solves to the definite verdict. Exercises the interrupt
// flag's atomic lifecycle under -race.
func TestInterruptClearCycle(t *testing.T) {
	for round := 0; round < 3; round++ {
		s := NewFromFormula(pigeonhole(7), Options{ProgressEvery: 1})
		searching := firstConflict(s)
		done := make(chan struct{})
		go func() {
			_, _ = s.Solve()
			close(done)
		}()
		<-searching
		s.Interrupt()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: interrupt not honoured", round)
		}
		clearInterrupt(s)
		st, err := s.Solve()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st != Unsat {
			t.Fatalf("round %d: re-solve got %v, want Unsat", round, st)
		}
	}
}

func TestStopCauseStringsRoundTrip(t *testing.T) {
	for _, c := range []StopCause{CauseNone, CauseCancelled, CauseTimeout, CauseConflictBudget, CauseMemory} {
		if got := ParseStopCause(c.String()); got != c {
			t.Fatalf("round trip %v -> %q -> %v", c, c.String(), got)
		}
	}
	if CauseCancelled.Budgeted() || CauseNone.Budgeted() {
		t.Fatal("cancelled/none must not count as budget exhaustion")
	}
	if !CauseTimeout.Budgeted() || !CauseConflictBudget.Budgeted() || !CauseMemory.Budgeted() {
		t.Fatal("timeout/conflict-budget/memory must count as budget exhaustion")
	}
}
