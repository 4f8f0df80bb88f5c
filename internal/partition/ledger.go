package partition

import (
	"errors"
	"fmt"

	"repro/internal/journal"
	"repro/internal/sat"
)

// The ledger is what a decided cube means for the run: intake, the
// journal record, going on when the disk fills, the verdict. It is the
// scheduler's because the fence is where a decision becomes durable.

// Leaf is one live leaf of a replayed cube tree: the cube, and the
// committed verdict record attached to it (nil while undecided).
type Leaf struct {
	Cube Cube
	Rec  *journal.ChunkRecord
}

// Outcome is a terminal result as its executor reports it: Status the
// cube's solver's answer, journaled as its word, Winner the partition
// holding a Sat answer's model, Cause the budget a give-up exhausted.
type Outcome struct {
	Status    sat.Status
	Winner    int
	Cause     string
	Millis    int64
	Certified bool
}

// Summary is the fold of a run. Total counts the leaves of the cube
// tree: the replayed tree's plus one per split of this run. Decided of
// them carry a definite verdict and Resumed were folded from the journal
// (give-ups included); Live are still queued, in flight or handed back,
// Abandoned were given up for good, Exhausted gave up on the budget
// their record names and pins. Winner
// is the partition of the first counterexample folded (-1: none).
// SealCause, when set, is the write failure the journal sealed itself on:
// the run went on without it; Err is any other journal failure, which
// ended the run. The counters are this
// run's alone (Splits does not re-count the splits a resume replays)
// except MaxDepth, the deepest path replayed or dispatched.
type Summary struct {
	Total, Decided, Resumed, Live, Abandoned int
	Exhausted                                []Leaf
	Sat                                      bool
	Winner                                   int
	SealCause                                string
	Err                                      error

	Splits, Hedges, Steals, Superseded, MaxDepth int
}

// Status is the verdict rule, the run's answer folded from its cubes': a
// counterexample anywhere decides the run; otherwise any leaf that is
// still live, was abandoned or gave up on a budget leaves it open;
// otherwise every leaf was refuted.
func (s Summary) Status() sat.Status {
	switch {
	case s.Sat:
		return sat.Sat
	case s.Live > 0 || s.Abandoned > 0 || len(s.Exhausted) > 0:
		return sat.Unknown
	}
	return sat.Unsat
}

// SealWarning is the one sentence a run that lost its journal says.
func SealWarning(cause string) string {
	return "journal sealed after storage failure; run continued journal-less (resume covers only earlier commits): " + cause
}

// Resume is the run's intake, called before the first Acquire: it
// replays the journal over roots, queues the leaves still to be solved
// and folds the rest, which it returns in tree order. In-flight cubes were
// never committed, so a crash can lose work but never claim work it lost.
func (s *Scheduler) Resume(roots []Cube) (resumed []Leaf) {
	var recs []journal.ChunkRecord
	if s.opts.Journal != nil {
		recs = s.opts.Journal.Committed()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range replay(roots, recs, s.opts.Paths) {
		s.sum.Total++
		s.sum.MaxDepth = max(s.sum.MaxDepth, l.Cube.Depth())
		rec := l.Rec
		// A give-up is terminal only relative to the budget pinned on it.
		if rec == nil || rec.RetryUnder(s.opts.Budget) ||
			(s.opts.CertifiedOnly && !rec.Certified && (rec.Sat() || rec.Unsat())) {
			s.live++
			s.queue = append(s.queue, l.Cube)
			continue
		}
		s.sum.Resumed++
		s.fold(l.Cube, rec)
		resumed = append(resumed, l)
	}
	return resumed
}

// Commit files the result of an assignment that won its Claim: the
// record is built — a give-up pins the run's budget, so that a resume can
// tell whether its own supersedes it — made durable, and only then folded.
// It fails for a result that lost its claim or is an Unknown that
// exhausted no budget, and when the journal failed (Summary.Err).
func (s *Scheduler) Commit(a *Assignment, o Outcome) error {
	c := a.Cube
	rec := journal.ChunkRecord{
		From: c.From, To: c.To, Path: c.Path,
		Verdict: o.Status.String(), Winner: -1, Millis: o.Millis, Certified: o.Certified,
	}
	switch o.Status {
	case sat.Sat:
		rec.Winner = o.Winner
	case sat.Unsat:
	default:
		if rec.Cause = o.Cause; !s.opts.Budget.Pin(&rec) {
			return fmt.Errorf("partition: cube %s: a %v result with cause %q is in flight, not terminal, and is never committed", c.Key(), o.Status, o.Cause)
		}
	}
	s.mu.Lock()
	claimed := a.claimed
	a.claimed = false
	s.mu.Unlock()
	if !claimed {
		return fmt.Errorf("partition: cube %s: commit of a result that did not win its claim", c.Key())
	}
	if err := s.persist(rec); err != nil {
		return err
	}
	s.mu.Lock()
	s.fold(c, &rec)
	s.mu.Unlock()
	return nil
}

// persist makes one record durable, without the scheduler's lock. A
// journal that sealed itself rolled the failed record back, so a resume
// re-solves exactly the unjournaled cubes: the run goes on without it.
// Any other failure is latched and closes the scheduler — better to stop
// than to hand out verdicts a resume cannot reproduce.
func (s *Scheduler) persist(rec journal.ChunkRecord) error {
	if s.opts.Journal == nil {
		return nil
	}
	err := s.opts.Journal.Commit(rec)
	if err == nil || errors.Is(err, journal.ErrSealed) {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = fmt.Errorf("partition: journal commit failed: %w", err)
	}
	s.closed = true
	s.wake.Broadcast()
	return s.err
}

// fold accounts for one decided leaf (lock held).
func (s *Scheduler) fold(c Cube, rec *journal.ChunkRecord) {
	switch {
	case rec.Sat():
		s.sum.Decided++
		if !s.sum.Sat {
			s.sum.Sat, s.sum.Winner = true, rec.Winner
		}
	case rec.Unsat():
		s.sum.Decided++
	default: // a journaled Unknown is always a budgeted give-up
		s.sum.Exhausted = append(s.sum.Exhausted, Leaf{Cube: c, Rec: rec})
	}
}

// Summary snapshots the fold. The seal is read from the journal, which
// latches it, before the lock is taken: a journal observer may call into
// the scheduler, never the scheduler into the journal under its lock.
func (s *Scheduler) Summary() Summary {
	var sealed error
	if j := s.opts.Journal; j != nil {
		sealed = j.SealCause()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sum
	out.Live, out.Err = s.live, s.err
	if sealed != nil {
		out.SealCause = sealed.Error()
	}
	return out
}
