package journal

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// faultFile wraps a real *os.File and injects storage failures through
// the OpenFile seam: after failAfterWrites successful Writes, every
// Write returns failWith; when failSync is set, Sync fails instead. A
// partial=true write failure writes half the frame before failing,
// leaving a torn record the seal's rollback must remove.
type faultFile struct {
	*os.File
	failWith       error
	failAfterWrite int  // fail the Nth (0-based) Write call; -1 = never
	failSync       bool // fail Sync calls instead of Writes
	partial        bool // on write failure, land half the bytes first
	writes         int
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.failAfterWrite >= 0 && f.writes == f.failAfterWrite {
		f.writes++
		if f.partial {
			n, _ := f.File.Write(p[:len(p)/2])
			return n, f.failWith
		}
		return 0, f.failWith
	}
	f.writes++
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		return f.failWith
	}
	return f.File.Sync()
}

func openFault(t *testing.T, path string, ff *faultFile) *Journal {
	t.Helper()
	raw, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff.File = raw
	j, err := OpenFile(ff, path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestENOSPCSealsMidRecord commits two records cleanly, then hits
// ENOSPC halfway through the third record's frame. The journal must
// seal, roll the torn bytes back, refuse later commits with ErrSealed —
// and the file must resume cleanly with exactly the pre-seal commits.
func TestENOSPCSealsMidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	ff := &faultFile{
		failWith: syscall.ENOSPC,
		// Writes 0-1 are the magic header and manifest record; writes 2
		// and 3 are the two good commits; write 4 (the third commit's
		// frame) fails mid-record.
		failAfterWrite: 4,
		partial:        true,
	}
	j := openFault(t, path, ff)

	good := []ChunkRecord{
		{From: 0, To: 1, Verdict: "UNSAT", Winner: -1, Millis: 3},
		{From: 2, To: 3, Verdict: "UNSAT", Winner: -1, Millis: 5},
	}
	for _, r := range good {
		if err := j.Commit(r); err != nil {
			t.Fatal(err)
		}
	}

	err := j.Commit(ChunkRecord{From: 4, To: 5, Verdict: "UNSAT", Winner: -1})
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("commit over ENOSPC: got %v, want ErrSealed", err)
	}
	if !errors.Is(j.SealCause(), syscall.ENOSPC) {
		t.Fatalf("seal cause %v, want ENOSPC", j.SealCause())
	}
	if j.SealCause() == nil {
		t.Fatal("journal not sealed after write failure")
	}
	// The committed set must not have grown.
	if j.Commits() != len(good) {
		t.Fatalf("commits after seal %d, want %d", j.Commits(), len(good))
	}
	// Every later commit is refused without touching the file.
	if err := j.Commit(ChunkRecord{From: 6, To: 7, Verdict: "UNSAT", Winner: -1}); !errors.Is(err, ErrSealed) {
		t.Fatalf("commit on sealed journal: got %v, want ErrSealed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Rollback left the on-disk prefix exactly the committed set: the
	// resume sees no torn tail and all pre-seal commits.
	j2 := mustOpen(t, path, testManifest())
	defer j2.Close()
	if j2.TruncatedBytes() != 0 {
		t.Fatalf("resume dropped %d torn bytes; seal rollback should have removed them", j2.TruncatedBytes())
	}
	got := j2.Committed()
	if len(got) != len(good) {
		t.Fatalf("resume loaded %d records, want %d", len(got), len(good))
	}
	for i, r := range good {
		if got[i] != r {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], r)
		}
	}
	// And the healed journal accepts new appends.
	if err := j2.Commit(ChunkRecord{From: 4, To: 5, Verdict: "UNSAT", Winner: -1}); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncFailureSeals exercises the second failure point: the frame
// write lands but the fsync fails, so the record was never durable and
// must be rolled back like a failed write.
func TestFsyncFailureSeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	ff := &faultFile{failWith: syscall.EIO, failAfterWrite: -1}
	j := openFault(t, path, ff)
	if err := j.Commit(ChunkRecord{From: 0, To: 1, Verdict: "UNSAT", Winner: -1}); err != nil {
		t.Fatal(err)
	}

	ff.failSync = true
	err := j.Commit(ChunkRecord{From: 2, To: 3, Verdict: "UNSAT", Winner: -1})
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("commit over failed fsync: got %v, want ErrSealed", err)
	}
	if j.Commits() != 1 {
		t.Fatalf("commits after sync-fail seal %d, want 1", j.Commits())
	}
	j.Close()

	// seal() could not fsync its rollback truncate either (Sync still
	// failing), but the truncate itself landed — the resume must load
	// only the durable record, with at most torn-tail repair.
	j2 := mustOpen(t, path, testManifest())
	defer j2.Close()
	if n := j2.Commits(); n != 1 {
		t.Fatalf("resume loaded %d records, want 1", n)
	}
}

// TestTornSealRollbackFailure is the worst case: the write fails
// mid-record AND the rollback truncate fails (dead disk). The torn
// bytes stay on disk, and Open's torn-tail repair must heal the file on
// resume.
func TestTornSealRollbackFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	ff := &tornDiskFile{faultFile: faultFile{
		failWith:       syscall.ENOSPC,
		failAfterWrite: 3, // magic, manifest, one good commit, then torn failure
		partial:        true,
	}}
	raw, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff.File = raw
	j, err := OpenFile(ff, path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(ChunkRecord{From: 0, To: 1, Verdict: "UNSAT", Winner: -1}); err != nil {
		t.Fatal(err)
	}
	ff.dead = true // rollback truncate will fail too
	if err := j.Commit(ChunkRecord{From: 2, To: 3, Verdict: "UNSAT", Winner: -1}); !errors.Is(err, ErrSealed) {
		t.Fatalf("got %v, want ErrSealed", err)
	}
	ff.File.Close() // bypass journal Close (it would fsync the dead disk)

	j2 := mustOpen(t, path, testManifest())
	defer j2.Close()
	if j2.TruncatedBytes() == 0 {
		t.Fatal("expected torn-tail repair to drop the half-written record")
	}
	if n := j2.Commits(); n != 1 {
		t.Fatalf("resume loaded %d records, want 1", n)
	}
}

// tornDiskFile extends faultFile with a "dead" mode where Truncate and
// Sync fail as well, modelling a device that stopped accepting writes
// entirely.
type tornDiskFile struct {
	faultFile
	dead bool
}

func (f *tornDiskFile) Truncate(size int64) error {
	if f.dead {
		return syscall.EIO
	}
	return f.File.Truncate(size)
}

func (f *tornDiskFile) Sync() error {
	if f.dead {
		return syscall.EIO
	}
	return f.faultFile.Sync()
}
