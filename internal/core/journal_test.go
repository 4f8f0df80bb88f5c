package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/partition"
	"repro/prog"
)

// A journaled safe run resumes to the same verdict with every partition
// replayed from the journal instead of re-solved.
func TestVerifyJournalResume(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := Options{Unwind: 1, Contexts: 3, Cores: 2, Partitions: 4, JournalPath: path}

	res, err := Verify(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Safe || res.Resumed != 0 {
		t.Fatalf("first run: verdict %v resumed %d", res.Verdict, res.Resumed)
	}
	if !res.Coverage.Complete() || res.Coverage.Total != res.Partitions {
		t.Fatalf("first run coverage: %v", res.Coverage)
	}
	man, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Partitions != res.Partitions || len(recs) != res.Partitions {
		t.Fatalf("journal holds %d records for %d partitions", len(recs), man.Partitions)
	}

	opts.Resume = true
	res2, err := Verify(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != Safe {
		t.Fatalf("resumed verdict %v", res2.Verdict)
	}
	if res2.Resumed != res.Partitions {
		t.Fatalf("resumed %d of %d partitions", res2.Resumed, res.Partitions)
	}
	for _, inst := range res2.Instances {
		if !inst.Resumed {
			t.Fatalf("partition %d re-solved on resume", inst.Partition)
		}
	}
}

// A certifying resume believes only what a check stood behind. A run
// under CertifyUnsat journals its refutations as certified, and a
// certifying resume replays them all without a check; a journal written
// without it holds refutations nobody checked, and a certifying resume
// solves and checks all four again rather than report them certified.
func TestVerifyCertifiedResumeRechecksUnchecked(t *testing.T) {
	p := prog.MustParse(fibSrc)
	for _, checked := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "run.wal")
		opts := Options{Unwind: 1, Contexts: 3, Cores: 2, Partitions: 4, JournalPath: path, CertifyUnsat: checked}
		if res, err := Verify(context.Background(), p, opts); err != nil || res.Verdict != Safe {
			t.Fatalf("first run, CertifyUnsat %v: %+v, %v", checked, res, err)
		}
		_, recs, err := journal.Read(path)
		if err != nil || len(recs) != 4 {
			t.Fatalf("journal: %d records, %v", len(recs), err)
		}
		for _, rec := range recs {
			if rec.Certified != checked {
				t.Fatalf("a run with CertifyUnsat %v journaled %+v", checked, rec)
			}
		}

		opts.Resume, opts.CertifyUnsat = true, true
		res, err := Verify(context.Background(), p, opts)
		if err != nil || res.Verdict != Safe || !res.Certified {
			t.Fatalf("certifying resume of a journal written with CertifyUnsat %v: %+v, %v", checked, res, err)
		}
		if checked {
			if res.Resumed != 4 || res.CertifyWork.Lemmas != 0 {
				t.Fatalf("certified journal: %d of 4 replayed, checker work %+v; want all replayed, none checked again", res.Resumed, res.CertifyWork)
			}
		} else if res.Resumed != 0 || res.CertifyWork.Lemmas == 0 {
			t.Fatalf("unchecked journal: %d of 4 replayed, checker work %+v; want every refutation solved and checked again", res.Resumed, res.CertifyWork)
		}
	}
}

// Resuming an unsafe run re-derives the model for the journaled SAT
// partition, so trace decoding and replay validation still work.
func TestVerifyJournalResumeUnsafe(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := Options{Unwind: 1, Contexts: 4, Cores: 2, JournalPath: path}

	res, err := Verify(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unsafe {
		t.Fatalf("first run: verdict %v", res.Verdict)
	}

	opts.Resume = true
	res2, err := Verify(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != Unsafe {
		t.Fatalf("resumed verdict %v", res2.Verdict)
	}
	// The resumed winner must carry a journaled SAT record. It need not
	// equal the first run's reported winner: several partitions can hold
	// counterexamples, and more than one may have committed SAT before
	// the first run's stop landed — any of them is a valid winner, and
	// replay deterministically picks the lowest-indexed one.
	_, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	winnerJournaled := false
	for _, rec := range recs {
		if rec.Verdict == "SAT" && rec.From == res2.Winner {
			winnerJournaled = true
		}
	}
	if !winnerJournaled {
		t.Fatalf("resumed winner %d has no journaled SAT record (records %+v)", res2.Winner, recs)
	}
	if res2.Trace == nil || res2.Violation == nil {
		t.Fatal("resumed counterexample not decoded/validated")
	}
}

// An existing journal without Resume is refused: accidentally reusing a
// path must not silently adopt another run's verdicts.
func TestVerifyJournalRefusesExistingWithoutResume(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	opts := Options{Unwind: 1, Contexts: 3, JournalPath: path}
	if _, err := Verify(context.Background(), p, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(context.Background(), p, opts); err == nil {
		t.Fatal("existing journal accepted without Resume")
	}
}

// A call refused for its option combination must leave nothing behind:
// were the journal file created first, the corrected call would be
// refused in turn, for a journal that "already exists".
func TestVerifyValidatesBeforeItWrites(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	for name, bad := range map[string]Options{
		"SimulateParallel+Split.Depth": {Unwind: 1, Contexts: 3, JournalPath: path, SimulateParallel: true, Split: partition.SplitPolicy{Depth: 1}},
	} {
		if _, err := Verify(context.Background(), p, bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: the refused call left a file at JournalPath (stat: %v)", name, err)
		}
	}
	if _, err := Verify(context.Background(), p, Options{Unwind: 1, Contexts: 3, JournalPath: path, KeepProofs: true}); err != nil {
		t.Fatalf("corrected call: %v", err)
	}
}

// Resume with different bounds must be rejected: partition indices from
// a different manifest mean different trace-space slices.
func TestVerifyJournalManifestMismatch(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	if _, err := Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 3, JournalPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := Verify(context.Background(), p, Options{
		Unwind: 1, Contexts: 4, JournalPath: path, Resume: true,
	})
	if !errors.Is(err, journal.ErrManifestMismatch) {
		t.Fatalf("err %v, want ErrManifestMismatch", err)
	}
	// A different program under the same bounds is also a mismatch.
	other := prog.MustParse(`void main() { assert(true); }`)
	_, err = Verify(context.Background(), other, Options{
		Unwind: 1, Contexts: 3, JournalPath: path, Resume: true,
	})
	if !errors.Is(err, journal.ErrManifestMismatch) {
		t.Fatalf("err %v, want ErrManifestMismatch", err)
	}
}

// A run under a starvation-level conflict budget completes with verdict
// Unknown and a coverage report naming the exhausted budget per
// partition — the poison-chunk degradation contract.
func TestVerifyChunkConflictBudgetCoverage(t *testing.T) {
	p := prog.MustParse(fibSrc)
	// At unwind 2 / contexts 3 two partitions refute by propagation alone
	// and two need a handful of conflicts, so a 1-conflict budget yields a
	// mixed report: partial coverage with the hard partitions named.
	res, err := Verify(context.Background(), p, Options{
		Unwind: 2, Contexts: 3, Cores: 2, Partitions: 4, Budget: journal.Budget{Conflicts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict %v, want UNKNOWN under a 1-conflict budget", res.Verdict)
	}
	if res.Coverage.Complete() {
		t.Fatalf("coverage claims complete: %v", res.Coverage)
	}
	if res.Coverage.Decided == 0 {
		t.Fatalf("propagation-only partitions not decided: %v", res.Coverage)
	}
	if len(res.Coverage.ConflictBudget) == 0 {
		t.Fatalf("no partition names the conflict budget: %v", res.Coverage)
	}
	if res.Coverage.String() == "" {
		t.Fatal("empty coverage rendering")
	}
}

func TestCoverageString(t *testing.T) {
	c := Coverage{Total: 16, Decided: 12, Timeout: []int{3, 7}, ConflictBudget: []int{1}, Cancelled: []int{9}}
	want := "12/16 partitions decided, timeout: [3 7], conflict-budget: [1], cancelled: [9]"
	if got := c.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	full := Coverage{Total: 4, Decided: 4}
	if got := full.String(); got != "4/4 partitions decided" {
		t.Fatalf("got %q", got)
	}
	if !full.Complete() || c.Complete() {
		t.Fatal("Complete() classification")
	}
}

// The manifest pins the total partitioning plus the analysed subrange,
// not just the number of partitions this run happens to see: 16
// partitions sliced [0,8) and a plain 8-partition run both solve 8
// chunks, but partition index i constrains different polarity bits in
// each, so their journals must never mix.
func TestVerifyJournalSubrangePinned(t *testing.T) {
	p := prog.MustParse(fibSrc)
	path := filepath.Join(t.TempDir(), "run.wal")
	sub := Options{
		Unwind: 1, Contexts: 3, Cores: 2,
		Partitions: 4, From: 0, To: 2, JournalPath: path,
	}
	res, err := Verify(context.Background(), p, sub)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 2 {
		t.Fatalf("subrange run analysed %d partitions, want 2", res.Partitions)
	}
	man, _, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Partitions != 4 || man.From != 0 || man.To != 2 {
		t.Fatalf("manifest %+v, want total 4 range [0,2)", man)
	}

	// Same chunk count, different partitioning: refused.
	whole := Options{
		Unwind: 1, Contexts: 3, Cores: 2,
		Partitions: 2, JournalPath: path, Resume: true,
	}
	if _, err := Verify(context.Background(), p, whole); !errors.Is(err, journal.ErrManifestMismatch) {
		t.Fatalf("err %v, want ErrManifestMismatch for 2-partition run against [0,2)-of-4 journal", err)
	}
	// A different subrange of the same partitioning: refused.
	other := sub
	other.Resume = true
	other.From, other.To = 2, 4
	if _, err := Verify(context.Background(), p, other); !errors.Is(err, journal.ErrManifestMismatch) {
		t.Fatalf("err %v, want ErrManifestMismatch for subrange [2,4)", err)
	}
	// The identical subrange resumes cleanly.
	again := sub
	again.Resume = true
	res2, err := Verify(context.Background(), p, again)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 2 {
		t.Fatalf("identical subrange resumed %d partitions, want 2", res2.Resumed)
	}
}
