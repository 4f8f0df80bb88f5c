package partition

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/sat"
)

// The ledger on a scripted executor: the scheduler harness's fake clock,
// a real journal over a file that can be made to fail (journal.OpenFile,
// as the journal's own seal tests do), no solver and no transport.

var ledgerManifest = journal.Manifest{ProgramSHA256: "ledger-test", Unwind: 1, Contexts: 2, Width: 8, Partitions: 16, To: 16}

// ledgerFile is the storage under a test journal. Its hooks run inside
// Journal.Commit, under the journal's lock.
type ledgerFile struct {
	*os.File
	writes   int   // record writes since the journal was opened
	failAt   int   // with failWith set: the write of this index fails,
	failWith error // half of its bytes on disk
	onWrite  func()
	onSynced func() // after a successful Sync: durable, not yet acknowledged
}

func (f *ledgerFile) Write(p []byte) (int, error) {
	if f.onWrite != nil {
		f.onWrite()
	}
	i := f.writes
	f.writes++
	if f.failWith != nil && i == f.failAt {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, f.failWith
	}
	return f.File.Write(p)
}

func (f *ledgerFile) Sync() error {
	err := f.File.Sync()
	if err == nil && f.onSynced != nil {
		f.onSynced()
	}
	return err
}

func openLedgerJournal(t *testing.T, path string, ff *ledgerFile) *journal.Journal {
	t.Helper()
	raw, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff.File = raw
	j, err := journal.OpenFile(ff, path, ledgerManifest)
	if err != nil {
		t.Fatal(err)
	}
	ff.writes = 0 // opening a new file wrote the magic and the manifest
	t.Cleanup(func() { j.Close() })
	return j
}

func readLedger(t *testing.T, path string) []journal.ChunkRecord {
	t.Helper()
	_, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// reopen resumes a fresh scheduler from the journal file at path.
func reopen(t *testing.T, path string, opts SchedOptions, roots []Cube) (*Scheduler, []Leaf) {
	t.Helper()
	j, err := journal.Open(path, ledgerManifest)
	if err != nil {
		t.Fatalf("reopening %s: %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	opts.Journal = j
	s := NewScheduler(opts)
	return s, s.Resume(roots)
}

var (
	refuted   = Outcome{Status: sat.Unsat, Winner: -1, Millis: 3}
	certified = Outcome{Status: sat.Unsat, Winner: -1, Millis: 3, Certified: true}
)

// settle claims and commits a result that must win.
func (h *schedHarness) settle(a *Assignment, o Outcome) {
	h.t.Helper()
	if !h.s.Claim(a) {
		h.t.Fatalf("result for %v lost its claim", a.Cube)
	}
	if err := h.s.Commit(a, o); err != nil {
		h.t.Fatalf("commit %v: %v", a.Cube, err)
	}
}

func single(i int) Cube { return Cube{From: i, To: i} }

func verdict(s Summary) string { return s.Status().String() }

// gaveUp lists a summary's exhausted cubes, "key cause" each.
func gaveUp(s Summary) (out []string) {
	for _, l := range s.Exhausted {
		out = append(out, l.Cube.Key()+" "+l.Rec.Cause)
	}
	return out
}

// A result that loses its claim — here the loser of a hedged pair — and
// an Unknown that exhausted no budget never reach the journal, and the
// fold does not move for them.
func TestLedgerJournalLostClaimLeavesNoRecord(t *testing.T) {
	h := newSchedHarness(t, SchedOptions{Hedge: true})
	path := filepath.Join(t.TempDir(), "run.wal")
	h.s.opts.Journal = openLedgerJournal(t, path, &ledgerFile{})

	orig := h.dispatch(Cube{From: 0, To: 1}, "w1")
	h.clock.advance(testGrace)
	twin, _, _ := h.idle("w2")
	if twin == nil || !twin.Hedge {
		t.Fatalf("no hedge duplicate: %+v", twin)
	}
	h.settle(twin, certified)
	if h.s.Claim(orig) {
		t.Fatal("the hedge loser's late result won a claim")
	}
	if err := h.s.Commit(orig, certified); err == nil {
		t.Fatal("a result that lost its claim was committed")
	}
	if err := h.s.Commit(twin, certified); err == nil {
		t.Fatal("one claim bought two commits")
	}

	inflight := h.dispatch(single(2), "w1")
	if !h.s.Claim(inflight) {
		t.Fatal("claim rejected")
	}
	for _, o := range []Outcome{
		{Status: sat.Unknown, Cause: "cancelled"},
		{Status: sat.Unknown},
	} {
		if err := h.s.Commit(inflight, o); err == nil {
			t.Fatalf("an in-flight result %+v was committed", o)
		}
	}

	recs := readLedger(t, path)
	if len(recs) != 1 || recs[0].From != 0 || recs[0].To != 1 || !recs[0].Unsat() || !recs[0].Certified {
		t.Fatalf("journal %+v, want the winner's one record", recs)
	}
	if sum := h.s.Summary(); sum.Decided != 1 || len(sum.Exhausted) != 0 || sum.Total != 2 {
		t.Fatalf("summary %+v, want the one decided cube of two", sum)
	}
	if h.s.Summary().Err != nil {
		t.Fatalf("a refused commit failed the run: %v", h.s.Summary().Err)
	}
}

// Commit-before-acknowledge: when the fsync returns the record is on
// disk and the fold has not moved. A crash in that window is the file as
// it is then, and a run that reopens it replays the verdict.
func TestLedgerJournalRecordDurableBeforeFold(t *testing.T) {
	h := newSchedHarness(t, SchedOptions{})
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wal")
	ff := &ledgerFile{}
	h.s.opts.Journal = openLedgerJournal(t, path, ff)
	a := h.dispatch(single(0), "w1")
	h.dispatch(single(1), "w2")

	var crash []byte
	ff.onSynced = func() {
		h.s.mu.Lock()
		decided := h.s.sum.Decided
		h.s.mu.Unlock()
		if decided != 0 {
			t.Errorf("the fold moved (%d decided) before Commit returned from the fsync", decided)
		}
		crash, _ = os.ReadFile(path)
	}
	h.settle(a, refuted)
	ff.onSynced = nil
	if sum := h.s.Summary(); sum.Decided != 1 || sum.Live != 1 {
		t.Fatalf("summary %+v after the commit, want 1 decided, 1 live", sum)
	}

	crashed := filepath.Join(dir, "crashed.wal")
	if err := os.WriteFile(crashed, crash, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, resumed := reopen(t, crashed, SchedOptions{}, []Cube{single(0), single(1)})
	if len(resumed) != 1 || resumed[0].Cube != single(0) || !resumed[0].Rec.Unsat() {
		t.Fatalf("the crashed run's file replays %+v, want cube 0 refuted", resumed)
	}
	if sum := s2.Summary(); sum.Resumed != 1 || sum.Decided != 1 || sum.Live != 1 || verdict(sum) != "UNKNOWN" {
		t.Fatalf("resumed summary %+v", sum)
	}
}

// The SPLIT record is written while the victim is fenced and neither
// child exists, and so precedes both children's records; the file then
// replays to a fully decided tree.
func TestLedgerJournalSplitPrecedesChildren(t *testing.T) {
	h := newSchedHarness(t, SchedOptions{SplitPolicy: SplitPolicy{Depth: 2}, SplitBits: 2, Paths: true})
	path := filepath.Join(t.TempDir(), "run.wal")
	ff := &ledgerFile{}
	h.s.opts.Journal = openLedgerJournal(t, path, ff)
	parent := h.dispatch(single(3), "w1")
	h.clock.advance(2 * testGrace)

	ff.onWrite = func() {
		h.s.mu.Lock()
		defer h.s.mu.Unlock()
		if !h.s.fenced[parent.Cube] || h.s.live != 1 || len(h.s.queue) != 0 || len(h.s.inflight) != 1 {
			t.Errorf("SPLIT written with fenced=%v live=%d queue=%v inflight=%d, want the fenced parent alone",
				h.s.fenced[parent.Cube], h.s.live, h.s.queue, len(h.s.inflight))
		}
	}
	left := h.s.Acquire("w2", h.cancel)
	ff.onWrite = nil
	if left == nil || left.Cube != (Cube{From: 3, To: 3, Path: "0"}) {
		t.Fatalf("stolen child %+v", left)
	}
	right := h.s.Acquire("w1", h.cancel)
	if right == nil || right.Cube != (Cube{From: 3, To: 3, Path: "1"}) {
		t.Fatalf("queued child %+v", right)
	}
	h.settle(right, refuted)
	h.settle(left, refuted)

	var got []string
	for _, rec := range readLedger(t, path) {
		got = append(got, Cube{From: rec.From, To: rec.To, Path: rec.Path}.Key()+" "+rec.Verdict)
	}
	if want := []string{"3 SPLIT", "3/1 UNSAT", "3/0 UNSAT"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("journal %v, want %v", got, want)
	}
	sum := h.s.Summary()
	if sum.Total != 2 || sum.Decided != 2 || sum.Splits != 1 || sum.MaxDepth != 1 || verdict(sum) != "UNSAT" {
		t.Fatalf("summary %+v", sum)
	}
	// A resume counts the leaves and the depth, not the split: that was
	// the first run's.
	s2, resumed := reopen(t, path, SchedOptions{Paths: true}, []Cube{single(3)})
	if sum := s2.Summary(); len(resumed) != 2 || sum.Total != 2 || sum.Resumed != 2 || sum.Splits != 0 ||
		sum.MaxDepth != 1 || sum.Live != 0 || verdict(sum) != "UNSAT" {
		t.Fatalf("replayed %+v, summary %+v", resumed, sum)
	}
}

// A budgeted give-up pins the budget it gave up under. A resume under
// the same budget replays it, one that raised or lifted the exhausted
// budget re-queues the cube, and raising another budget changes nothing.
func TestLedgerBudgetGiveUpPinnedAndRetried(t *testing.T) {
	budget := journal.Budget{Timeout: time.Second, Conflicts: 100}
	h := newSchedHarness(t, SchedOptions{Budget: budget})
	path := filepath.Join(t.TempDir(), "run.wal")
	j := openLedgerJournal(t, path, &ledgerFile{})
	h.s.opts.Journal = j
	h.settle(h.dispatch(single(0), "w1"), Outcome{Status: sat.Unknown, Cause: "conflict-budget", Millis: 7})
	h.settle(h.dispatch(single(1), "w1"), refuted)
	j.Close()

	recs := readLedger(t, path)
	want := journal.ChunkRecord{
		Verdict: "UNKNOWN", Winner: -1, Cause: "conflict-budget", Millis: 7,
		TimeoutMillis: 1000, Conflicts: 100,
	}
	if len(recs) != 2 || recs[0] != want {
		t.Fatalf("give-up journaled as %+v, want %+v", recs, want)
	}
	exhausted := []string{"0 conflict-budget"}
	if sum := h.s.Summary(); !reflect.DeepEqual(gaveUp(sum), exhausted) || sum.Decided != 1 || verdict(sum) != "UNKNOWN" {
		t.Fatalf("summary %+v", sum)
	}

	for _, tc := range []struct {
		name    string
		budget  journal.Budget
		replays bool
	}{
		{"same budget", budget, true},
		{"smaller budget", journal.Budget{Timeout: time.Second, Conflicts: 50}, true},
		{"another budget raised", journal.Budget{Timeout: time.Minute, Conflicts: 100}, true},
		{"raised", journal.Budget{Timeout: time.Second, Conflicts: 101}, false},
		{"lifted", journal.Budget{Timeout: time.Second}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, resumed := reopen(t, path, SchedOptions{Budget: tc.budget}, []Cube{single(0), single(1)})
			sum := s.Summary()
			if tc.replays {
				if len(resumed) != 2 || sum.Live != 0 || !reflect.DeepEqual(gaveUp(sum), exhausted) || verdict(sum) != "UNKNOWN" {
					t.Fatalf("resumed %+v, summary %+v: want the give-up replayed", resumed, sum)
				}
				return
			}
			if len(resumed) != 1 || sum.Live != 1 || len(sum.Exhausted) != 0 {
				t.Fatalf("resumed %+v, summary %+v: want the give-up re-queued", resumed, sum)
			}
			if a := s.Acquire("w", func(*Assignment) {}); a == nil || a.Cube != single(0) {
				t.Fatalf("re-queued cube not dispatched: %+v", a)
			}
		})
	}
}

// Intake, rule by rule, over one hand-written journal in the one spelling
// and in the legacy one a coordinator of an earlier build wrote ("SAFE"
// for a refuted cube), which reads as the same answer: what a run trusts
// it folds as resumed, what it does not it queues.
func TestLedgerResumeIntake(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := openLedgerJournal(t, path, &ledgerFile{})
	for _, rec := range []journal.ChunkRecord{
		{From: 0, To: 0, Verdict: "SAFE", Winner: -1, Certified: true},
		{From: 1, To: 1, Verdict: "SAFE", Winner: -1},
		{From: 2, To: 2, Verdict: "UNSAT", Winner: -1},
		{From: 3, To: 3, Verdict: "UNKNOWN", Winner: -1, Cause: "timeout", TimeoutMillis: 5},
		{From: 4, To: 4, Verdict: "SPLIT"},
		{From: 4, To: 4, Path: "0", Verdict: "UNSAT", Winner: -1},
		{From: 4, To: 4, Path: "1", Verdict: "SAT", Winner: 4},
		{From: 9, To: 9, Verdict: "UNSAT", Winner: -1}, // not under these roots
	} {
		if err := j.Commit(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	roots := []Cube{single(0), single(1), single(2), single(3), single(4), single(5)}
	keys := func(leaves []Leaf) (out []string) {
		for _, l := range leaves {
			out = append(out, l.Cube.Key())
		}
		return out
	}
	fiveMillis := journal.Budget{Timeout: 5 * time.Millisecond}
	for _, tc := range []struct {
		name    string
		opts    SchedOptions
		resumed []string
		want    Summary // but for Exhausted, which is
		gaveUp  []string
	}{
		{"everything the journal holds", SchedOptions{Paths: true, Budget: fiveMillis},
			[]string{"0", "1", "2", "3", "4/0", "4/1"},
			Summary{Total: 7, Decided: 5, Resumed: 6, Live: 1, Sat: true, Winner: 4, MaxDepth: 1},
			[]string{"3 timeout"}},
		{"a run without split literals re-solves a split partition whole", SchedOptions{Budget: fiveMillis},
			[]string{"0", "1", "2", "3"},
			Summary{Total: 6, Decided: 3, Resumed: 4, Live: 2, Winner: -1},
			[]string{"3 timeout"}},
		{"a certifying run re-solves uncertified verdicts, not give-ups", SchedOptions{Paths: true, Budget: fiveMillis, CertifiedOnly: true},
			[]string{"0", "3"},
			Summary{Total: 7, Decided: 1, Resumed: 2, Live: 5, Winner: -1, MaxDepth: 1},
			[]string{"3 timeout"}},
		{"a raised budget re-solves the give-up", SchedOptions{Paths: true, Budget: journal.Budget{Timeout: time.Second}},
			[]string{"0", "1", "2", "4/0", "4/1"},
			Summary{Total: 7, Decided: 5, Resumed: 5, Live: 2, Sat: true, Winner: 4, MaxDepth: 1},
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, resumed := reopen(t, path, tc.opts, roots)
			if got := keys(resumed); !reflect.DeepEqual(got, tc.resumed) {
				t.Fatalf("resumed %v, want %v", got, tc.resumed)
			}
			got := s.Summary()
			if exhausted := gaveUp(got); !reflect.DeepEqual(exhausted, tc.gaveUp) {
				t.Fatalf("gave up: %v, want %v", exhausted, tc.gaveUp)
			}
			if got.Exhausted = nil; !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("summary\n%+v, want\n%+v", got, tc.want)
			}
			// Every case leaves cube 5 to solve: only a counterexample decides.
			if v := verdict(s.Summary()); (v == "SAT") != tc.want.Sat || v == "UNSAT" {
				t.Fatalf("verdict %v with a live leaf, counterexample %v", v, tc.want.Sat)
			}
		})
	}
}

// ENOSPC on the k-th commit seals the journal. Every later settle — and
// a split — still goes through and still folds, the summary says sealed
// and why, nothing after the k-th record is on disk, and the file
// resumes: the committed cubes replay, the others are solved again.
func TestLedgerENOSPCSealDegradesToJournalLess(t *testing.T) {
	const k = 2
	h := newSchedHarness(t, SchedOptions{SplitPolicy: SplitPolicy{Depth: 1}})
	path := filepath.Join(t.TempDir(), "run.wal")
	ff := &ledgerFile{failAt: k, failWith: syscall.ENOSPC}
	h.s.opts.Journal = openLedgerJournal(t, path, ff)

	roots := []Cube{single(0), single(1), single(2), single(3), {From: 4, To: 7}}
	for _, c := range roots[:4] {
		h.settle(h.dispatch(c, "w1"), refuted)
	}
	h.dispatch(roots[4], "w1")
	h.clock.advance(2 * testGrace)
	left := h.s.Acquire("w2", h.cancel)
	if left == nil || left.Cube != (Cube{From: 4, To: 5}) {
		t.Fatalf("split after the seal handed out %+v, want {4 5}", left)
	}
	h.settle(left, refuted)
	h.settle(h.s.Acquire("w2", h.cancel), refuted)

	sum := h.s.Summary()
	if !strings.Contains(sum.SealCause, syscall.ENOSPC.Error()) {
		t.Fatalf("summary %+v, want sealed on ENOSPC", sum)
	}
	if sum.Decided != 6 || sum.Total != 6 || sum.Splits != 1 || sum.Live != 0 || verdict(sum) != "UNSAT" {
		t.Fatalf("summary %+v, want all six leaves folded", sum)
	}
	if err := h.s.Summary().Err; err != nil {
		t.Fatalf("a sealed journal failed the run: %v", err)
	}
	if !strings.Contains(SealWarning(sum.SealCause), "journal-less") {
		t.Fatalf("warning %q", SealWarning(sum.SealCause))
	}

	s2, resumed := reopen(t, path, SchedOptions{}, roots)
	if len(resumed) != k || resumed[0].Cube != single(0) || resumed[1].Cube != single(1) {
		t.Fatalf("the sealed file replays %+v, want its first %d records", resumed, k)
	}
	if sum := s2.Summary(); sum.Total != 5 || sum.Resumed != k || sum.Live != 3 || sum.SealCause != "" {
		t.Fatalf("resumed summary %+v", sum)
	}
}

// A journal failure that is not a seal ends the run: Commit reports it,
// Err keeps it, and every executor is sent home.
func TestLedgerJournalFailureEndsRun(t *testing.T) {
	h := newSchedHarness(t, SchedOptions{})
	j := openLedgerJournal(t, filepath.Join(t.TempDir(), "run.wal"), &ledgerFile{})
	h.s.opts.Journal = j
	a := h.dispatch(single(0), "w1")
	h.s.Resume([]Cube{single(1)})
	idle := h.acquireAsync("w2")
	if got := h.await(idle); got == nil || got.Cube != single(1) {
		t.Fatalf("queued cube not dispatched: %+v", got)
	}
	idle = h.acquireAsync("w3")

	j.Close()
	if !h.s.Claim(a) {
		t.Fatal("claim rejected")
	}
	err := h.s.Commit(a, refuted)
	if err == nil || h.s.Summary().Err != err {
		t.Fatalf("commit on a closed journal: %v, run error %v", err, h.s.Summary().Err)
	}
	if got := h.await(idle); got != nil {
		t.Fatalf("Acquire returned %+v from a failed run", got)
	}
	if sum := h.s.Summary(); sum.Decided != 0 || sum.SealCause != "" {
		t.Fatalf("summary %+v: the verdict was folded without being durable", sum)
	}
}
