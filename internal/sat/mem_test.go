package sat

import (
	"testing"
	"time"
)

// liveBytesByHand recomputes the footprint from the solver's
// structures: every arena word, every watcher actually on a watch
// list, the per-variable constant for each entry of the tables and,
// once the simplification pass has run, each word of its elimination
// stack and each entry of its map to the formula's numbering.
func liveBytesByHand(s *Solver) int64 {
	watchers := 0
	for _, ws := range s.watches {
		watchers += len(ws)
	}
	stack := 0
	for _, chunk := range s.elimStack.chunks {
		stack += len(chunk)
	}
	return int64(len(s.level))*varBytes + 4*int64(len(s.arena)) + 8*int64(watchers) +
		4*int64(stack) + 4*int64(len(s.ext))
}

// arenaWordsByHand is what the arena must hold if it has no garbage:
// one header word and the literals of every listed clause, and three
// more words for a learnt one.
func arenaWordsByHand(s *Solver) int {
	words := 0
	for _, c := range s.clauses {
		words += 1 + s.size(c)
	}
	for _, c := range s.learnts {
		words += 1 + learntWords + s.size(c)
	}
	return words
}

// The byte accounting is exact — arena words × 4 + watchers × 8 + the
// per-variable state — after loading, after solving (learnt clauses,
// reduceDB and its compaction included), and the Stats snapshot must
// mirror the accessor values.
func TestMemAccountingIsExact(t *testing.T) {
	f := pigeonhole(8)
	s := NewFromFormula(f, Options{})
	base := s.LiveBytes()
	// PHP(9,8): 9 clauses of 8 literals, 8·36 binary ones.
	wantWords := 9*(1+8) + 8*36*(1+2)
	if len(s.arena) != wantWords {
		t.Fatalf("arena holds %d words after load, want %d", len(s.arena), wantWords)
	}
	if want := int64(f.NumVars)*varBytes + 4*int64(wantWords) + 16*int64(len(f.Clauses)); base != want {
		t.Fatalf("base footprint %d, want %d", base, want)
	}
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("verdict %v, want Unsat", st)
	}
	if s.Stats().LearntDeleted == 0 {
		t.Fatal("the solve never reduced the learnt DB, so compaction went unchecked")
	}
	if got, want := len(s.arena), arenaWordsByHand(s); got != want {
		t.Fatalf("arena holds %d words, its live clauses %d", got, want)
	}
	if got, want := s.LiveBytes(), liveBytesByHand(s); got != want {
		t.Fatalf("LiveBytes %d, recomputed %d", got, want)
	}
	if s.PeakBytes() < s.LiveBytes() || s.PeakBytes() <= base {
		t.Fatalf("peak %d not above live %d / base %d", s.PeakBytes(), s.LiveBytes(), base)
	}
	stats := s.Stats()
	if stats.MemBytes != s.LiveBytes() || stats.PeakMemBytes != s.PeakBytes() {
		t.Fatalf("stats snapshot (%d, %d) disagrees with accessors (%d, %d)",
			stats.MemBytes, stats.PeakMemBytes, s.LiveBytes(), s.PeakBytes())
	}
}

// ternaryLearnt is the clause (v ∨ ¬(v+1) ∨ (v+2)) as the solver
// stores literals.
func ternaryLearnt(v int) []lit {
	return []lit{lit(mk(v, false)), lit(mk(v+1, true)), lit(mk(v+2, false))}
}

// reduceDB must give back exactly the deleted clauses' words and
// watchers, and leave every surviving reference pointing at the same
// clause it did before the arena was compacted.
func TestMemAccountingReduceDBRefunds(t *testing.T) {
	s := New(20, Options{})
	for v := 1; v+2 <= 20; v += 3 {
		s.recordLearnt(ternaryLearnt(v), 3)
	}
	before := s.LiveBytes()
	s.reduceDB()
	deleted := s.stats.LearntDeleted
	if deleted == 0 {
		t.Fatal("reduceDB deleted nothing")
	}
	perClause := int64(4*(1+learntWords+3) + 2*8)
	if got, want := s.LiveBytes(), before-deleted*perClause; got != want {
		t.Fatalf("live bytes after reduceDB: %d, want %d (deleted %d clauses)", got, want, deleted)
	}
	if got, want := s.LiveBytes(), liveBytesByHand(s); got != want {
		t.Fatalf("LiveBytes %d, recomputed %d", got, want)
	}
	if s.PeakBytes() != before {
		t.Fatalf("peak %d, want the footprint before the reduction %d", s.PeakBytes(), before)
	}
	// Each survivor is still watched through its first two literals.
	for _, c := range s.learnts {
		for k := cref(0); k < 2; k++ {
			found := false
			for _, w := range s.watches[s.arena[c+k]^1] {
				found = found || w.ref == c
			}
			if !found {
				t.Fatalf("clause %v at %d lost its watcher on literal %d", s.lits(c), c, k)
			}
		}
	}
}

// A solver whose footprint exceeds the budget and cannot shrink its way
// back (nothing learnt to throw away) must stop with ErrMemBudget at
// the first conflict boundary.
func TestMemBudgetHardStop(t *testing.T) {
	s := NewFromFormula(pigeonhole(7), Options{MemBudgetMB: 1})
	// Pad the variable set so the irreducible base footprint alone is
	// over the 1 MiB budget: shrinking cannot recover it.
	s.growTo(1<<20/varBytes + 1000)
	st, err := s.Solve()
	if err != ErrMemBudget {
		t.Fatalf("err %v, want ErrMemBudget", err)
	}
	if st != Unknown {
		t.Fatalf("status %v, want Unknown", st)
	}
}

// shrinkForMem is the degrade step: when the learnt DB is what pushed
// the footprint over budget, emergency reductions must recover it and
// count a MemShrinks event, without stopping the solve.
func TestMemBudgetShrinkRecovers(t *testing.T) {
	s := New(0, Options{MemBudgetMB: 1})
	// Base below budget, learnt DB pushes it over: 25000 ternary learnts
	// of 7 words and 2 watchers each are 1.05 MiB on top of a small base.
	s.growTo(30)
	for i := 0; i < 25000; i++ {
		s.recordLearnt(ternaryLearnt(1+i%28), 3)
	}
	if !s.overMemBudget() {
		t.Fatalf("setup: %d bytes not over the 1 MiB budget", s.LiveBytes())
	}
	if !s.shrinkForMem() {
		t.Fatalf("shrink failed to recover the budget (live %d)", s.LiveBytes())
	}
	if s.overMemBudget() {
		t.Fatalf("still over budget after successful shrink: %d", s.LiveBytes())
	}
	if s.stats.MemShrinks == 0 {
		t.Fatal("no MemShrinks recorded")
	}
}

// InterruptMemory mid-search must surface as ErrMemBudget — terminal
// budget exhaustion — not ErrInterrupted, and clearInterrupt must
// disarm the memory flag so a later plain Interrupt reports plain
// cancellation again.
func TestInterruptMemoryMidSearch(t *testing.T) {
	s := NewFromFormula(pigeonhole(9), Options{ProgressEvery: 1})
	searching := firstConflict(s)
	done := make(chan struct{})
	var st Status
	var serr error
	go func() {
		st, serr = s.Solve()
		close(done)
	}()
	<-searching
	s.InterruptMemory()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("solver did not react to InterruptMemory")
	}
	if serr != ErrMemBudget || st != Unknown {
		t.Fatalf("status %v err %v, want Unknown/ErrMemBudget", st, serr)
	}

	clearInterrupt(s)
	s.Interrupt()
	if _, err := s.Solve(); err != ErrInterrupted {
		t.Fatalf("plain interrupt after clear: err %v, want ErrInterrupted", err)
	}
}
