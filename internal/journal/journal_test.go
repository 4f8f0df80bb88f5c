package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func testManifest() Manifest {
	return Manifest{
		ProgramSHA256: HashProgram("int x;\nvoid main() { assert(x == 0); }\n"),
		Unwind:        2, Contexts: 5, Width: 8,
		Partitions: 16, ChunkSize: 2,
	}
}

func mustOpen(t *testing.T, path string, m Manifest) *Journal {
	t.Helper()
	j, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestCommitAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	recs := []ChunkRecord{
		{From: 0, To: 1, Verdict: "UNSAT", Winner: -1, Millis: 12},
		{From: 2, To: 3, Verdict: "UNSAT", Winner: -1, Millis: 7},
		{From: 4, To: 5, Verdict: "UNKNOWN", Winner: -1, Cause: "timeout"},
	}
	for _, r := range recs {
		if err := j.Commit(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Commits() != 3 {
		t.Fatalf("commits %d, want 3", j.Commits())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: same manifest loads the committed set unchanged.
	j2 := mustOpen(t, path, testManifest())
	defer j2.Close()
	got := j2.Committed()
	if len(got) != len(recs) {
		t.Fatalf("committed %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if got[i] != r {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], r)
		}
	}
	if j2.TruncatedBytes() != 0 {
		t.Fatalf("clean file reported %d truncated bytes", j2.TruncatedBytes())
	}
	// Appending after resume works.
	if err := j2.Commit(ChunkRecord{From: 6, To: 7, Verdict: "UNSAT", Winner: -1}); err != nil {
		t.Fatal(err)
	}
	if j2.Commits() != 4 {
		t.Fatalf("commits after resume-append %d, want 4", j2.Commits())
	}
}

func TestManifestMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	if err := j.Commit(ChunkRecord{From: 0, To: 0, Verdict: "UNSAT", Winner: -1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	cases := map[string]func(*Manifest){
		"unwind":     func(m *Manifest) { m.Unwind++ },
		"contexts":   func(m *Manifest) { m.Contexts++ },
		"width":      func(m *Manifest) { m.Width = 16 },
		"partitions": func(m *Manifest) { m.Partitions *= 2 },
		"chunksize":  func(m *Manifest) { m.ChunkSize = 4 },
		"program":    func(m *Manifest) { m.ProgramSHA256 = HashProgram("different source") },
		"rounds":     func(m *Manifest) { m.Rounds = 3 },
	}
	for name, mutate := range cases {
		m := testManifest()
		mutate(&m)
		if _, err := Open(path, m); !errors.Is(err, ErrManifestMismatch) {
			t.Errorf("%s change: err %v, want ErrManifestMismatch", name, err)
		}
	}
}

// A crash mid-write leaves a half-written record at the tail. Open must
// keep the durable prefix, drop the torn tail, and leave the file
// appendable.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	for i := 0; i < 3; i++ {
		if err := j.Commit(ChunkRecord{From: i, To: i, Verdict: "UNSAT", Winner: -1}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Hand-corrupt: chop the last record mid-payload (a torn write).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-11]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, path, testManifest())
	if got := j2.Commits(); got != 2 {
		t.Fatalf("committed %d records after torn tail, want 2", got)
	}
	if j2.TruncatedBytes() == 0 {
		t.Fatal("torn tail not reported as truncated")
	}
	// The torn bytes are gone from disk, and appends land cleanly after
	// the surviving prefix.
	if err := j2.Commit(ChunkRecord{From: 9, To: 9, Verdict: "UNSAT", Winner: -1}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3 := mustOpen(t, path, testManifest())
	defer j3.Close()
	recs := j3.Committed()
	if len(recs) != 3 || recs[2].From != 9 {
		t.Fatalf("records after heal+append: %+v", recs)
	}
	if j3.TruncatedBytes() != 0 {
		t.Fatal("healed file still reports truncation")
	}
	// Truncation repairs tails; it must never blank the manifest check.
	j3.Close()
	other := testManifest()
	other.Unwind = 9
	if _, err := Open(path, other); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("err %v after heal, want ErrManifestMismatch", err)
	}
}

// replicaManifest and replicaRecords set every field, so a field the JSON
// round trip dropped or changed would show in the tests below.
var replicaManifest = Manifest{
	ProgramSHA256: HashProgram("void main() {}"), Unwind: 2, Contexts: 5, Rounds: 3,
	Width: 8, Partitions: 16, From: 4, To: 12, ChunkSize: 2,
}

var replicaRecords = []ChunkRecord{
	{From: 4, To: 4, Path: "01", Verdict: "UNKNOWN", Winner: 7, Cause: "memory", Millis: 12,
		TimeoutMillis: 500, Conflicts: 64, MemBudgetMB: 128, Certified: true},
	{From: 5, To: 6, Verdict: VerdictSplit, Winner: -1},
	{From: 7, To: 7, Verdict: "UNSAT", Winner: -1, Millis: 3, Certified: true},
}

// wireCopy passes the manifest and records through encoding/json and back,
// as a replicate stream carries them to a standby.
func wireCopy(t *testing.T, m Manifest, recs []ChunkRecord) (Manifest, []ChunkRecord) {
	t.Helper()
	type wire struct {
		Manifest Manifest
		Records  []ChunkRecord
	}
	data, err := json.Marshal(wire{m, recs})
	if err != nil {
		t.Fatal(err)
	}
	var got wire
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	return got.Manifest, got.Records
}

// The manifest and both kinds of chunk record survive the JSON round trip
// a replicate stream puts them through, field for field.
func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m, recs := wireCopy(t, replicaManifest, replicaRecords)
	if m != replicaManifest {
		t.Fatalf("manifest changed in transit: %+v, want %+v", m, replicaManifest)
	}
	if !slices.Equal(recs, replicaRecords) {
		t.Fatalf("records changed in transit: %+v, want %+v", recs, replicaRecords)
	}
}

// A standby's replica is written by Open and Commit from a manifest and
// records that crossed the wire as JSON. The property that makes it the
// primary's journal: the rewrite is the same file byte for byte, and it
// resumes like the original — a promoted standby keeps committing to it.
func TestReplicaProducesResumableJournal(t *testing.T) {
	dir := t.TempDir()
	primary := filepath.Join(dir, "primary.wal")
	j := mustOpen(t, primary, replicaManifest)
	for _, r := range replicaRecords {
		if err := j.Commit(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	m, recs := wireCopy(t, replicaManifest, replicaRecords)
	replica := filepath.Join(dir, "replica.wal")
	r := mustOpen(t, replica, m)
	for _, rec := range recs {
		if err := r.Commit(rec); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()

	want, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile(replica)
	if err != nil {
		t.Fatal(err)
	}
	if string(have) != string(want) {
		t.Fatalf("rewritten journal differs from the original:\n%q\nwant\n%q", have, want)
	}
	resumed := mustOpen(t, replica, replicaManifest)
	defer resumed.Close()
	if c := resumed.Committed(); !slices.Equal(c, replicaRecords) {
		t.Fatalf("resumed records %+v, want %+v", c, replicaRecords)
	}
	if err := resumed.Commit(ChunkRecord{From: 8, To: 8, Verdict: "SAFE", Winner: -1}); err != nil {
		t.Fatal(err)
	}
}

// A coordinator of an earlier build journaled a cube's answer in the
// run's words. They decode to the status words every writer uses now, so
// the predicates, a resume and a replica meet only those.
func TestLegacyVerdictWordsDecodeToStatusWords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	for _, rec := range []ChunkRecord{
		{From: 0, To: 0, Verdict: "SAFE", Winner: -1, Certified: true},
		{From: 1, To: 1, Verdict: "UNSAFE", Winner: 1, Certified: true},
		{From: 2, To: 2, Verdict: "UNKNOWN", Winner: -1, Cause: "timeout"},
	} {
		if err := j.Commit(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	_, recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range recs {
		got = append(got, r.Verdict)
	}
	if !slices.Equal(got, []string{"UNSAT", "SAT", "UNKNOWN"}) || !recs[0].Unsat() || !recs[1].Sat() {
		t.Fatalf("decoded verdicts %q", got)
	}
}

// A flipped byte, a cut-short frame or an implausible length prefix is
// refused by the record reader, not misparsed; a clean frame reads back
// as the record that was committed.
func TestUnmarshalRejectsCorruptFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	st, err := j.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	rec := ChunkRecord{From: 3, To: 3, Verdict: "UNSAT", Winner: -1, Certified: true}
	if err := j.Commit(rec); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := data[st.Size():]

	typ, body, n, err := readRecord(bytes.NewReader(frame))
	if err != nil || typ != recChunk || n != len(frame) {
		t.Fatalf("clean frame: type %d size %d err %v", typ, n, err)
	}
	var got ChunkRecord
	if err := json.Unmarshal(body, &got); err != nil || got != rec {
		t.Fatalf("clean frame read back as %+v (err %v), want %+v", got, err, rec)
	}

	flipped := slices.Clone(frame)
	flipped[len(flipped)-1] ^= 0x40
	oversized := slices.Clone(frame)
	oversized[3] = 0xff
	for name, bad := range map[string][]byte{
		"flipped byte":     flipped,
		"truncated":        frame[:len(frame)-3],
		"short header":     frame[:5],
		"oversized length": oversized,
	} {
		if _, _, _, err := readRecord(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
}

// The journal's two protocol rules — no chunk record before the manifest,
// no second manifest — hold for any file, a replica included. A file that
// breaks one is refused by Open and Read alike, and Open leaves it as it
// was instead of "healing" it.
func TestReplicaRejectsProtocolViolations(t *testing.T) {
	dir := t.TempDir()
	body, err := json.Marshal(ChunkRecord{From: 0, To: 0, Verdict: "UNSAT", Winner: -1})
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := json.Marshal(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		forge func(j *Journal) error
		want  string
	}{
		"record before manifest": {func(j *Journal) error {
			// Cut the file back to its header and frame a record there.
			if err := j.f.Truncate(int64(len(magic))); err != nil {
				return err
			}
			if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
				return err
			}
			_, err := j.appendRecord(recChunk, body)
			return err
		}, "before manifest"},
		"second manifest": {func(j *Journal) error {
			if err := j.Commit(ChunkRecord{From: 1, To: 1, Verdict: "UNSAT", Winner: -1}); err != nil {
				return err
			}
			_, err := j.appendRecord(recManifest, mbody)
			return err
		}, "duplicate manifest"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".wal")
		j := mustOpen(t, path, testManifest())
		if err := c.forge(j); err != nil {
			t.Fatal(err)
		}
		j.Close()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, testManifest()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Open err %v, want %q", name, err, c.want)
		}
		if _, _, err := Read(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Read err %v, want %q", name, err, c.want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("%s: refused Open changed the file (%d bytes, was %d)", name, len(after), len(before))
		}
	}
}

// A standby killed mid-Commit leaves half a record at the tail of its
// replica. Promotion must degrade to a cold resume from the last durable
// record, and the promoted journal keeps committing after it.
func TestReplicaTornTailDegradesToColdResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replica.wal")
	j := mustOpen(t, path, replicaManifest)
	if err := j.Commit(replicaRecords[0]); err != nil {
		t.Fatal(err)
	}
	durable, err := j.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(replicaRecords[1]); err != nil {
		t.Fatal(err)
	}
	full, err := j.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	// The kill: half of the second record reached the disk.
	torn := durable.Size() + (full.Size()-durable.Size())/2
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, replicaManifest)
	if err != nil {
		t.Fatalf("torn replica refused: %v", err)
	}
	defer r.Close()
	if c := r.Committed(); !slices.Equal(c, replicaRecords[:1]) {
		t.Fatalf("replayed %+v, want only the durable record", c)
	}
	if r.TruncatedBytes() != torn-durable.Size() {
		t.Fatalf("truncated %d bytes, want %d", r.TruncatedBytes(), torn-durable.Size())
	}
	if err := r.Commit(replicaRecords[2]); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := Read(path); err != nil || !slices.Equal(recs, []ChunkRecord{replicaRecords[0], replicaRecords[2]}) {
		t.Fatalf("after heal and commit: %+v (err %v)", recs, err)
	}
}

// A bit flip inside a committed record must not be trusted: everything
// from the corrupt record on is discarded.
func TestCorruptRecordTruncatesSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	var offsets []int64
	for i := 0; i < 3; i++ {
		if err := j.Commit(ChunkRecord{From: i, To: i, Verdict: "UNSAT", Winner: -1}); err != nil {
			t.Fatal(err)
		}
		st, _ := j.f.Stat()
		offsets = append(offsets, st.Size())
	}
	j.Close()

	// Flip one byte inside the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[0]+12] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, path, testManifest())
	defer j2.Close()
	if got := j2.Commits(); got != 1 {
		t.Fatalf("committed %d records after mid-file corruption, want 1", got)
	}
}

func TestNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	if err := os.WriteFile(path, []byte("this is not a journal file at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testManifest()); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err %v, want bad-magic error", err)
	}
}

func TestReadInspectsWithoutManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	if err := j.Commit(ChunkRecord{From: 0, To: 3, Verdict: "SAT", Winner: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	m, recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if m != testManifest() {
		t.Fatalf("manifest %+v", m)
	}
	if len(recs) != 1 || recs[0].Winner != 2 || recs[0].Verdict != "SAT" {
		t.Fatalf("records %+v", recs)
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	j.Close()
	if err := j.Commit(ChunkRecord{Verdict: "UNSAT"}); err == nil {
		t.Fatal("commit after close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestHashProgramStable(t *testing.T) {
	a, b := HashProgram("void main() {}"), HashProgram("void main() {}")
	if a != b || len(a) != 64 {
		t.Fatalf("hash unstable or wrong length: %q vs %q", a, b)
	}
	if HashProgram("void main() {}") == HashProgram("void main() { }") {
		t.Fatal("distinct sources hash equal")
	}
}

// RetryUnder: a budget-exhausted record is terminal under budgets no
// larger than the ones it pinned, and retryable when the exhausted
// budget is lifted or strictly raised.
func TestRetryUnder(t *testing.T) {
	ms := func(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name string
		rec  ChunkRecord
		b    Budget
		want bool
	}{
		{"definite verdicts never retry", ChunkRecord{Verdict: "UNSAT"}, Budget{}, false},
		{"same timeout terminal", ChunkRecord{Cause: "timeout", TimeoutMillis: 500}, Budget{Timeout: ms(500)}, false},
		{"smaller timeout terminal", ChunkRecord{Cause: "timeout", TimeoutMillis: 500}, Budget{Timeout: ms(100)}, false},
		{"raised timeout retries", ChunkRecord{Cause: "timeout", TimeoutMillis: 500}, Budget{Timeout: ms(501)}, true},
		{"lifted timeout retries", ChunkRecord{Cause: "timeout", TimeoutMillis: 500}, Budget{}, true},
		{"unrecorded timeout budget terminal", ChunkRecord{Cause: "timeout"}, Budget{Timeout: ms(900)}, false},
		{"unrecorded budget, lifted now, retries", ChunkRecord{Cause: "timeout"}, Budget{}, true},
		{"same conflicts terminal", ChunkRecord{Cause: "conflict-budget", Conflicts: 64}, Budget{Conflicts: 64}, false},
		{"raised conflicts retries", ChunkRecord{Cause: "conflict-budget", Conflicts: 64}, Budget{Conflicts: 65}, true},
		{"lifted conflicts retries", ChunkRecord{Cause: "conflict-budget", Conflicts: 64}, Budget{}, true},
		{"causes do not cross: timeout ignores conflicts", ChunkRecord{Cause: "timeout", TimeoutMillis: 500}, Budget{Timeout: ms(500), Conflicts: 1 << 30}, false},
		{"same mem budget terminal", ChunkRecord{Cause: "memory", MemBudgetMB: 64}, Budget{MemMB: 64}, false},
		{"smaller mem budget terminal", ChunkRecord{Cause: "memory", MemBudgetMB: 64}, Budget{MemMB: 32}, false},
		{"raised mem budget retries", ChunkRecord{Cause: "memory", MemBudgetMB: 64}, Budget{MemMB: 128}, true},
		{"lifted mem budget retries", ChunkRecord{Cause: "memory", MemBudgetMB: 64}, Budget{}, true},
		{"unrecorded mem budget terminal", ChunkRecord{Cause: "memory"}, Budget{MemMB: 512}, false},
		{"causes do not cross: memory ignores conflicts", ChunkRecord{Cause: "memory", MemBudgetMB: 64}, Budget{Conflicts: 1 << 30, MemMB: 64}, false},
	}
	for _, c := range cases {
		if got := c.rec.RetryUnder(c.b); got != c.want {
			t.Errorf("%s: RetryUnder(%+v) = %v, want %v", c.name, c.b, got, c.want)
		}
	}
}

// Sets: a give-up is terminal only under the budget its cause names,
// and a record the run could not have pinned a budget for — a cause that
// names none — is never terminal; RetryUnder reads the same rule.
func TestBudgetSets(t *testing.T) {
	all := Budget{Timeout: time.Second, Conflicts: 64, MemMB: 512}
	for _, cause := range []string{"timeout", "conflict-budget", "memory"} {
		own := Budget{}
		switch cause {
		case "timeout":
			own.Timeout = all.Timeout
		case "conflict-budget":
			own.Conflicts = all.Conflicts
		case "memory":
			own.MemMB = all.MemMB
		}
		others := Budget{Timeout: all.Timeout - own.Timeout, Conflicts: all.Conflicts - own.Conflicts, MemMB: all.MemMB - own.MemMB}
		if !own.Sets(cause) || !all.Sets(cause) || others.Sets(cause) || (Budget{}).Sets(cause) {
			t.Errorf("%s: Sets under its own budget %v, all %v, the others %v, none %v; want true, true, false, false",
				cause, own.Sets(cause), all.Sets(cause), others.Sets(cause), (Budget{}).Sets(cause))
		}
		rec := ChunkRecord{Verdict: "UNKNOWN", Cause: cause}
		if !all.Pin(&rec) || rec.RetryUnder(all) || !rec.RetryUnder(others) {
			t.Errorf("%s: pinned %+v retries under its own budget (%v) or not under the others (%v)",
				cause, rec, rec.RetryUnder(all), rec.RetryUnder(others))
		}
	}
	for _, cause := range []string{"", "cancelled", "bogus"} {
		rec := ChunkRecord{Verdict: "UNKNOWN", Cause: cause}
		if all.Sets(cause) || all.Pin(&rec) || rec.RetryUnder(Budget{}) {
			t.Errorf("cause %q names a budget", cause)
		}
	}
}

// The on-disk keys of a budget-pinned record are a compatibility
// contract: journals written before Budget existed must keep resuming.
// The golden bytes are what the commit before Budget marshalled for a
// conflict-budget give-up under -chunk-timeout 10m -chunk-conflicts 5
// -mem-budget 4096.
func TestBudgetPinGoldenJSON(t *testing.T) {
	const golden = `{"from":1,"to":1,"verdict":"UNKNOWN","winner":-1,"cause":"conflict-budget","timeout_millis":600000,"conflicts":5,"mem_budget_mb":4096}`
	b := Budget{Timeout: 10 * time.Minute, Conflicts: 5, MemMB: 4096}
	rec := ChunkRecord{From: 1, To: 1, Verdict: "UNKNOWN", Winner: -1, Cause: "conflict-budget"}
	b.Pin(&rec)
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("pinned record marshals to\n%s\nwant\n%s", got, golden)
	}
	var back ChunkRecord
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if back != rec || back.RetryUnder(b) {
		t.Fatalf("golden unmarshals to %+v (retry under its own budget: %v), want %+v terminal", back, back.RetryUnder(b), rec)
	}
}

// OpenRun is the one "refuse an existing journal unless resuming"
// protocol of core.Verify and distrib.Coordinate.
func TestOpenRun(t *testing.T) {
	dir := t.TempDir()
	existing := filepath.Join(dir, "existing.wal")
	mustOpen(t, existing, testManifest()).Close()
	other := testManifest()
	other.Contexts++

	cases := []struct {
		name    string
		path    string
		resume  bool
		m       Manifest
		wantMsg string // "" with a nil wantIs: success
		wantIs  error
	}{
		{"fresh", filepath.Join(dir, "fresh.wal"), false, testManifest(), "", nil},
		{"fresh with resume", filepath.Join(dir, "fresh2.wal"), true, testManifest(), "", nil},
		{"exists without resume", existing, false, testManifest(), "already exists (pass Resume", nil},
		{"exists with resume", existing, true, testManifest(), "", nil},
		{"manifest mismatch", existing, true, other, "", ErrManifestMismatch},
	}
	for _, c := range cases {
		j, err := OpenRun(c.path, c.resume, c.m)
		if j != nil {
			j.Close()
		}
		switch {
		case c.wantIs != nil:
			if !errors.Is(err, c.wantIs) {
				t.Errorf("%s: err %v, want %v", c.name, err, c.wantIs)
			}
		case c.wantMsg != "":
			if err == nil || !strings.Contains(err.Error(), c.wantMsg) {
				t.Errorf("%s: err %v, want one containing %q", c.name, err, c.wantMsg)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// The pinned budgets survive the commit/replay round trip.
func TestBudgetFieldsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j := mustOpen(t, path, testManifest())
	rec := ChunkRecord{
		From: 0, To: 1, Verdict: "UNKNOWN", Winner: -1,
		Cause: "conflict-budget", Millis: 42, TimeoutMillis: 1000, Conflicts: 64,
	}
	if err := j.Commit(rec); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != rec {
		t.Fatalf("replayed %+v, want %+v", recs, rec)
	}
}

// Manifests differing only in the partition subrange must not match:
// index i means different polarity bits under different totals/ranges.
func TestManifestSubrangeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	m := testManifest()
	m.From, m.To = 0, 8
	mustOpen(t, path, m).Close()

	other := m
	other.To = 16
	if _, err := Open(path, other); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("err %v, want ErrManifestMismatch for a different subrange", err)
	}
	same := m
	j, err := Open(path, same)
	if err != nil {
		t.Fatalf("identical subrange refused: %v", err)
	}
	j.Close()
}
