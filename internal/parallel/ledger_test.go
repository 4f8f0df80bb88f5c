package parallel

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

// checkDecidedTree resumes a scheduler from the journal at path and
// requires a fully decided cube tree with one verdict per leaf.
func checkDecidedTree(t *testing.T, path string, nparts int) {
	t.Helper()
	_, recs, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[partition.Cube]bool{}
	for _, rec := range recs {
		c := partition.Cube{From: rec.From, To: rec.To, Path: rec.Path}
		if seen[c] {
			t.Fatalf("%s: cube %v was journaled twice: a committed cube was solved again\n%+v", path, c, recs)
		}
		seen[c] = true
	}
	roots := make([]partition.Cube, nparts)
	for i := range roots {
		roots[i] = partition.Cube{From: i, To: i}
	}
	sched := partition.NewScheduler(partition.SchedOptions{Journal: openTestJournal(t, path, nparts), Paths: true})
	sched.Resume(roots)
	if sum := sched.Summary(); sum.Live != 0 || sum.Resumed != sum.Total || sum.Decided != sum.Total {
		t.Fatalf("%s does not replay to a fully decided tree: %+v\n%+v", path, sum, recs)
	}
}

// Kill the run after any number of commits: for every k, a run resumed
// from the first k records of a finished adaptive run's journal — cut
// between a SPLIT and its children included — reaches the same verdict,
// replays exactly the verdicts among those k, solves no committed cube
// again and leaves a journal that replays to a fully decided tree.
func TestJournalResumeAtEveryRecordBoundary(t *testing.T) {
	f := pigeonhole(7)
	parts, lits := stragglerParts(7)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	opts := adaptiveOpts(lits)
	opts.Journal = openTestJournal(t, full, len(parts))
	first, err := Solve(context.Background(), f, parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal.Close()
	_, recs, err := journal.Read(full)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != sat.Unsat || first.Splits < 1 || len(recs) != 2*first.Splits+2 {
		t.Fatalf("first run: status %v, %d splits, %d records", first.Status, first.Splits, len(recs))
	}
	checkDecidedTree(t, full, len(parts))

	for k := 0; k <= len(recs); k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("cut%d.wal", k))
			j := openTestJournal(t, path, len(parts))
			verdicts := 0
			for _, rec := range recs[:k] {
				if err := j.Commit(rec); err != nil {
					t.Fatal(err)
				}
				if !rec.Split() {
					verdicts++
				}
			}
			opts := adaptiveOpts(lits)
			opts.Journal = j
			res, err := Solve(context.Background(), f, parts, opts)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			if res.Status != first.Status {
				t.Fatalf("status %v, uninterrupted run %v", res.Status, first.Status)
			}
			// In one run a cube with a verdict is never split afterwards, so
			// every verdict among the k records is a live leaf's.
			if res.Resumed != verdicts {
				t.Fatalf("resumed %d leaves, want the %d verdicts among the first %d records", res.Resumed, verdicts, k)
			}
			checkDecidedTree(t, path, len(parts))
		})
	}
}

// enospcFile is a journal file whose failAt-th write fails with ENOSPC,
// half of its bytes on disk.
type enospcFile struct {
	*os.File
	writes, failAt int
}

func (f *enospcFile) Write(p []byte) (int, error) {
	f.writes++
	if f.writes-1 == f.failAt {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

// The disk fills under a run: the journal seals itself on the second
// verdict, the run goes on journal-less to the same verdict and says so,
// and what it left on disk — the first verdict, the torn second rolled
// back — resumes.
func TestJournalSealENOSPCDegradesRun(t *testing.T) {
	f := pigeonhole(6)
	parts := partitionsOn([]cnf.Var{1, 2}, 4)
	path := filepath.Join(t.TempDir(), "run.wal")
	raw, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Writes 0 and 1 are the magic and the manifest; 3 is the second record.
	j, err := journal.OpenFile(&enospcFile{File: raw, failAt: 3}, path, testManifest(len(parts)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), f, parts, Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatalf("a sealed journal failed the run: %v", err)
	}
	j.Close()
	if res.Status != sat.Unsat || len(res.Instances) != len(parts) {
		t.Fatalf("status %v over %d instances, want every partition refuted", res.Status, len(res.Instances))
	}
	if !res.JournalSealed || !strings.Contains(res.JournalSealCause, syscall.ENOSPC.Error()) {
		t.Fatalf("sealed %v (%q), want the run to report the ENOSPC seal", res.JournalSealed, res.JournalSealCause)
	}
	if _, recs, err := journal.Read(path); err != nil || len(recs) != 1 {
		t.Fatalf("sealed journal holds %d records (err %v), want the one committed before the disk filled", len(recs), err)
	}

	j2 := openTestJournal(t, path, len(parts))
	res2, err := Solve(context.Background(), f, parts, Options{Workers: 1, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if res2.Status != sat.Unsat || res2.Resumed != 1 || res2.JournalSealed {
		t.Fatalf("resume of the sealed file: status %v, resumed %d, sealed %v", res2.Status, res2.Resumed, res2.JournalSealed)
	}
	checkDecidedTree(t, path, len(parts))
}
