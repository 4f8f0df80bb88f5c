package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var streamManifest = Manifest{
	ProgramSHA256: "deadbeef", Unwind: 2, Contexts: 3, Width: 8,
	Partitions: 4, From: 0, To: 4, ChunkSize: 1,
}

func chunkRec(from int, verdict string) ChunkRecord {
	return ChunkRecord{From: from, To: from, Verdict: verdict, Winner: -1, Certified: true}
}

// Marshal → Unmarshal round-trips both record kinds.
func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	mf, err := MarshalManifest(streamManifest)
	if err != nil {
		t.Fatal(err)
	}
	m, rec, err := UnmarshalRecord(mf)
	if err != nil || rec != nil || m == nil {
		t.Fatalf("manifest round trip: m=%v rec=%v err=%v", m, rec, err)
	}
	if *m != streamManifest {
		t.Fatalf("manifest changed in transit: %+v", *m)
	}
	cf, err := MarshalChunk(chunkRec(2, "UNSAT"))
	if err != nil {
		t.Fatal(err)
	}
	m, rec, err = UnmarshalRecord(cf)
	if err != nil || m != nil || rec == nil {
		t.Fatalf("chunk round trip: m=%v rec=%v err=%v", m, rec, err)
	}
	if rec.From != 2 || rec.Verdict != "UNSAT" || !rec.Certified {
		t.Fatalf("chunk changed in transit: %+v", *rec)
	}
}

// A flipped byte or trailing garbage is rejected, not misparsed.
func TestUnmarshalRejectsCorruptFrames(t *testing.T) {
	frame, err := MarshalChunk(chunkRec(0, "UNSAT"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 0x40
	if _, _, err := UnmarshalRecord(flipped); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	trailing := append(append([]byte(nil), frame...), 0xFF)
	if _, _, err := UnmarshalRecord(trailing); err == nil {
		t.Fatal("frame with trailing bytes accepted")
	}
	if _, _, err := UnmarshalRecord(frame[:len(frame)-3]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// Replica applies frames into a file that Journal.Open accepts as its
// own: the replicated copy resumes exactly like a crash-survivor.
func TestReplicaProducesResumableJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica.wal")
	r, err := CreateReplica(path)
	if err != nil {
		t.Fatal(err)
	}
	mf, _ := MarshalManifest(streamManifest)
	if err := r.Apply(mf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cf, _ := MarshalChunk(chunkRec(i, "UNSAT"))
		if err := r.Apply(cf); err != nil {
			t.Fatal(err)
		}
	}
	if m, ok := r.Manifest(); !ok || m != streamManifest {
		t.Fatalf("replica manifest %+v ok=%v", m, ok)
	}
	if r.Records() != 2 {
		t.Fatalf("records %d, want 2", r.Records())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	j, err := Open(path, streamManifest)
	if err != nil {
		t.Fatalf("replicated journal rejected by Open: %v", err)
	}
	defer j.Close()
	if got := j.Commits(); got != 2 {
		t.Fatalf("replayed %d records, want 2", got)
	}
	// And the promoted standby can keep committing to it.
	if err := j.Commit(chunkRec(2, "UNSAT")); err != nil {
		t.Fatal(err)
	}
}

// Replica protocol violations are rejected without touching the file.
func TestReplicaRejectsProtocolViolations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica.wal")
	r, err := CreateReplica(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cf, _ := MarshalChunk(chunkRec(0, "UNSAT"))
	if err := r.Apply(cf); err == nil {
		t.Fatal("chunk before manifest accepted")
	}
	mf, _ := MarshalManifest(streamManifest)
	if err := r.Apply(mf); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(mf); err == nil {
		t.Fatal("second manifest accepted")
	}
	corrupt := append([]byte(nil), cf...)
	corrupt[len(corrupt)-2] ^= 1
	if err := r.Apply(corrupt); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if err := r.Apply(cf); err != nil {
		t.Fatalf("clean frame after rejections: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(magic) + len(mf) + len(cf))
	if st.Size() != want {
		t.Fatalf("file size %d, want %d (rejected frames must not be written)", st.Size(), want)
	}
}

// A standby killed mid-Apply leaves a torn tail on its local copy; the
// promotion path must degrade to a cold resume from the last durable
// record — never a corrupt manifest or a refused journal.
func TestReplicaTornTailDegradesToColdResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica.wal")
	r, err := CreateReplica(path)
	if err != nil {
		t.Fatal(err)
	}
	mf, _ := MarshalManifest(streamManifest)
	if err := r.Apply(mf); err != nil {
		t.Fatal(err)
	}
	cf0, _ := MarshalChunk(chunkRec(0, "UNSAT"))
	if err := r.Apply(cf0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: half of record 1 reaches the disk.
	cf1, _ := MarshalChunk(chunkRec(1, "UNSAT"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(cf1[:len(cf1)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j, err := Open(path, streamManifest)
	if err != nil {
		t.Fatalf("torn replica refused: %v", err)
	}
	defer j.Close()
	if j.Commits() != 1 {
		t.Fatalf("replayed %d records, want 1 (the durable one)", j.Commits())
	}
	if j.TruncatedBytes() == 0 {
		t.Fatal("torn tail not reported")
	}
	// The wrong manifest must still be refused — truncation repairs
	// tails, it must never blank the manifest check.
	j.Close()
	other := streamManifest
	other.Unwind = 9
	if _, err := Open(path, other); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("err %v, want ErrManifestMismatch", err)
	}
}
