// Package journal implements a crash-safe run journal for long
// verification runs: an append-only, fsync-on-commit write-ahead log
// that records the run manifest (program hash, bounds, partitioning)
// followed by one record per chunk verdict. A restarted run with the
// same manifest skips the committed chunks and re-solves only the rest;
// a run with a different manifest is refused rather than silently mixed.
//
// # File format
//
// The file starts with an 8-byte magic ("PBMCWAL" plus a format version
// byte), then a sequence of length-prefixed, checksummed records:
//
//	[4B little-endian payload length][4B little-endian CRC32C(payload)][payload]
//
// Each payload is one byte of record version, one byte of record type
// (manifest or chunk), and a JSON body. The first record is always the
// manifest. Commit appends one record and fsyncs before returning, so a
// record is either durable or absent — a process killed mid-write leaves
// at most one torn tail record, which Open detects (short frame or CRC
// mismatch) and truncates away instead of trusting.
package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// magic identifies a journal file; the trailing byte is the format
// version, bumped on any incompatible layout change.
var magic = [8]byte{'P', 'B', 'M', 'C', 'W', 'A', 'L', 1}

const (
	recVersion  = 1
	recManifest = 1
	recChunk    = 2

	// maxRecordBytes bounds one record so a corrupt length prefix cannot
	// make Open attempt an enormous allocation.
	maxRecordBytes = 1 << 20
)

// castagnoli is the CRC32C polynomial table (the same checksum SSE4.2
// accelerates; Go's hash/crc32 uses the hardware instruction when
// available).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrManifestMismatch is returned by Open when the existing journal was
// written by a run with different parameters; resuming it would mix
// verdicts computed under different bounds.
var ErrManifestMismatch = errors.New("journal: manifest mismatch")

// ErrSealed is returned by Commit after a write or fsync failure
// (ENOSPC, dying disk) has sealed the journal read-only. The journal
// never half-writes: the failed record's bytes are rolled back to the
// last durable record, so the on-disk prefix remains exactly the
// committed set and a later resume passes torn-tail repair as usual.
// Callers are expected to degrade to journal-less operation rather
// than crash the run.
var ErrSealed = errors.New("journal: sealed after write failure")

// File is the storage a Journal appends to — the subset of *os.File the
// journal uses. It exists so tests can inject failing writers (ENOSPC,
// torn fsync) via OpenFile without touching a real disk.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// Manifest pins the parameters a journal's verdicts are valid under.
// Two runs may share a journal only if every field is equal. It is the
// run's one description: core derives it (core.Prepared.Manifest), and
// the report, the job frame and a worker's run key read it too.
type Manifest struct {
	// ProgramSHA256 is the hex SHA-256 of the formatted program source
	// (see HashProgram); any source change invalidates old verdicts.
	ProgramSHA256 string `json:"program_sha256"`
	// Unwind, Contexts, Rounds, Width are the analysis bounds.
	Unwind   int `json:"unwind"`
	Contexts int `json:"contexts"`
	Rounds   int `json:"rounds,omitempty"`
	Width    int `json:"width"`
	// Partitions is the total trace-space partition count — the full
	// partitioning, not the subset this run analyses: partition index i
	// constrains polarity bits relative to the total, so two runs with
	// equal subranges of different totals must never share a journal.
	Partitions int `json:"partitions"`
	// From/To pin the half-open partition subrange [From, To) the run
	// analyses (distributed mode). Writers normalise the full range to
	// [0, Partitions) so an explicit full range and the default match.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// ChunkSize is the partitions-per-work-unit grouping (0 for
	// per-partition runs).
	ChunkSize int `json:"chunk_size,omitempty"`
}

// HashProgram returns the hex SHA-256 of a program's formatted source.
func HashProgram(source string) string {
	sum := sha256.Sum256([]byte(source))
	return fmt.Sprintf("%x", sum)
}

// ChunkRecord is one committed chunk verdict. From/To are inclusive
// partition indices (From == To for per-partition local runs).
type ChunkRecord struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Path pins the cube's extra split-bit polarities (adaptive cube
	// splitting, partition.Cube.Path); empty for static range chunks.
	// Together with From/To it identifies a node of the cube tree.
	Path    string `json:"path,omitempty"`
	Verdict string `json:"verdict"` // in its writer's spelling: read it through Sat, Unsat, Split
	// Winner is the partition holding the satisfying assignment
	// (Sat records; -1 otherwise).
	Winner int `json:"winner,omitempty"`
	// Cause names the exhausted budget for an UNKNOWN verdict
	// ("timeout" | "conflict-budget" | "memory"); in-flight chunks are
	// never committed, so a journaled UNKNOWN is always a budget verdict.
	Cause string `json:"cause,omitempty"`
	// Millis is the chunk's solve time, kept for resume diagnostics.
	Millis int64 `json:"millis,omitempty"`
	// TimeoutMillis, Conflicts and MemBudgetMB pin the per-chunk budgets
	// a budget-exhausted verdict was computed under (0 = unbounded /
	// unrecorded). A budgeted UNKNOWN is terminal only relative to its
	// budgets: a resume with strictly larger ones re-solves the chunk
	// (see Budget.Pin, RetryUnder) instead of replaying a stale give-up.
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`
	Conflicts     int64 `json:"conflicts,omitempty"`
	MemBudgetMB   int64 `json:"mem_budget_mb,omitempty"`
	// Certified marks a remote verdict whose certificate (RUP proof or
	// satisfying model) the coordinator verified against its own encoding
	// before committing. A distributed resume running with certification
	// enabled re-queues uncertified definite records instead of replaying
	// them, so a lying worker's verdict can never outlive the run that
	// accepted it. Locally solved records (internal/parallel) leave it
	// false: the solving process is its own root of trust.
	Certified bool `json:"certified,omitempty"`
}

// VerdictSplit marks a ChunkRecord that supersedes its cube rather than
// deciding it: the cube named by From/To/Path was split into its two
// child cubes (partition.Cube.Split), which carry the verdict from here
// on. A resume replays SPLIT records to rebuild the cube tree, and any
// later verdict record for a split cube is stale and must be ignored.
// The record is committed BEFORE the children are dispatched, so a crash
// between split and child completion resumes with the children pending.
const VerdictSplit = "SPLIT"

// Split reports whether the record is a cube-split marker.
func (r ChunkRecord) Split() bool { return r.Verdict == VerdictSplit }

// Sat reports a record whose cube holds a counterexample, Unsat one whose
// cube was refuted. Verdict has two spellings on disk, one per writer:
// the in-process runner journals the solver's status ("SAT" / "UNSAT"),
// the coordinator the verdict its workers report ("UNSAFE" / "SAFE");
// both write "UNKNOWN" for a budgeted give-up (see Cause). Only these
// predicates compare the string.
func (r ChunkRecord) Sat() bool   { return r.Verdict == "SAT" || r.Verdict == "UNSAFE" }
func (r ChunkRecord) Unsat() bool { return r.Verdict == "UNSAT" || r.Verdict == "SAFE" }

// Budget is the resource budget every cube of a run is solved under
// (0 = unbounded, field by field). It is declared here because the
// journal is what makes a budget matter past the solve it bounded: a
// give-up record pins it (Pin), and a resumed run compares its own
// against the pin (RetryUnder).
type Budget struct {
	// Timeout bounds a cube's wall-clock solving time; an expired cube
	// ends Unknown with cause "timeout" instead of stalling the run.
	Timeout time.Duration
	// Conflicts bounds a cube's solver conflicts (cause
	// "conflict-budget").
	Conflicts int64
	// MemMB bounds a cube solver's approximate live footprint in MiB. A
	// solver over it first sheds learnt clauses (degrade before dying);
	// if that cannot get it back under, the cube ends Unknown with cause
	// "memory".
	MemMB int64
}

// Pin stamps b onto a budget-exhausted record: the give-up is terminal
// only relative to the budget it was computed under. It reports whether
// the record names an exhausted budget at all — the only undecided
// outcome that is ever journaled: a cube that was cancelled or is still
// in flight exhausted nothing, and is left for a resume to solve.
func (b Budget) Pin(rec *ChunkRecord) bool {
	switch rec.Cause {
	case "timeout", "conflict-budget", "memory": // sat.StopCause.Budgeted
		rec.TimeoutMillis, rec.Conflicts, rec.MemBudgetMB = b.Timeout.Milliseconds(), b.Conflicts, b.MemMB
		return true
	}
	return false
}

// RetryUnder reports whether a budget-exhausted record should be
// re-solved rather than replayed by a run with budget b: true when the
// budget the chunk exhausted has been lifted or strictly raised.
// Definite verdicts and records without a recorded budget are never
// retried — the latter cannot prove the new budget is larger.
func (r ChunkRecord) RetryUnder(b Budget) bool {
	switch r.Cause {
	case "timeout": // sat.CauseTimeout.String()
		ms := b.Timeout.Milliseconds()
		return ms == 0 || (r.TimeoutMillis > 0 && ms > r.TimeoutMillis)
	case "conflict-budget": // sat.CauseConflictBudget.String()
		return b.Conflicts == 0 || (r.Conflicts > 0 && b.Conflicts > r.Conflicts)
	case "memory": // sat.CauseMemory.String()
		return b.MemMB == 0 || (r.MemBudgetMB > 0 && b.MemMB > r.MemBudgetMB)
	}
	return false
}

// Journal is an open run journal. All methods are safe for concurrent
// use; Commit serialises appends internally.
type Journal struct {
	mu        sync.Mutex
	f         File
	path      string
	manifest  Manifest
	committed []ChunkRecord
	truncated int64 // torn-tail bytes dropped by Open (diagnostics)
	// goodEnd is the offset just past the last durable record — the
	// rollback point if a later append fails and seals the journal.
	goodEnd int64
	sealErr error // the write failure that sealed the journal; nil while open for commits
	closed  bool
	parent  *obs.Span
	watch   func(rec ChunkRecord, commits int) // see Observe
}

// Observe registers fn to see every record Commit makes durable, with
// the number committed so far: after the fsync and under the lock that
// orders commits, so in journal order (the coordinator's replication
// stream needs no lock of its own). fn must not call into the journal.
func (j *Journal) Observe(fn func(rec ChunkRecord, commits int)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.watch = fn
	j.mu.Unlock()
}

// SetParent makes each Commit emit a "journal_commit" span covering the
// append + fsync, as a child of p (typically the run's root span, so a
// traced run's tree stays single-rooted). A nil p (the default) keeps
// the journal untraced.
func (j *Journal) SetParent(p *obs.Span) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.parent = p
	j.mu.Unlock()
}

// OpenRun opens the journal of a run that may or may not be a
// continuation: without resume an existing file at path is refused, so
// a fresh run can never silently inherit (or append to) the verdicts of
// an earlier one; with resume, Open's manifest check applies. An empty
// path opens no journal: nil, which Close, SetParent and Observe take.
func OpenRun(path string, resume bool, m Manifest) (*Journal, error) {
	if path == "" {
		return nil, nil
	}
	if !resume {
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("journal: %s already exists (pass Resume to continue it)", path)
		}
	}
	return Open(path, m)
}

// Open opens or creates the journal at path for the given manifest.
//
// A missing or empty file is initialised with the manifest record. An
// existing file is replayed: the manifest record must equal m
// (ErrManifestMismatch otherwise), well-formed chunk records become the
// committed set, and a torn tail — a record cut short or failing its
// CRC, as left by a crash mid-write — is truncated off the file so the
// resumed run appends from the last durable record.
func Open(path string, m Manifest) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j, err := OpenFile(f, path, m)
	if err != nil {
		return nil, err
	}
	// Durability of the file's existence, not just its contents: fsync
	// the parent directory so a newly created journal survives power
	// loss (a create followed only by file fsyncs leaves the directory
	// entry unjournalled on some filesystems). Best-effort — directory
	// fsync is not supported everywhere.
	if j.Commits() == 0 && j.TruncatedBytes() == 0 {
		syncDir(path)
	}
	return j, nil
}

// OpenFile opens a journal over an already-open File — the fault-
// injection seam: tests wrap a real file in a failing writer to
// exercise ENOSPC sealing without filling a disk. The File must be
// positioned at offset 0 and remain owned by the journal (Close closes
// it).
func OpenFile(f File, path string, m Manifest) (*Journal, error) {
	j := &Journal{f: f, path: path, manifest: m}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if err := j.initNew(); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// syncDir fsyncs the directory containing path (best-effort).
func syncDir(path string) {
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	dir.Sync()
	dir.Close()
}

// Read replays the journal at path read-only, without manifest
// validation: the stored manifest and committed records are returned
// as-is (torn tails are skipped, not truncated). Intended for
// inspection and tests.
func Read(path string) (Manifest, []ChunkRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return Manifest{}, nil, err
	}
	defer f.Close()
	m, recs, _, err := scan(f)
	return m, recs, err
}

func (j *Journal) initNew() error {
	if _, err := j.f.Write(magic[:]); err != nil {
		return err
	}
	body, err := json.Marshal(j.manifest)
	if err != nil {
		return err
	}
	n, err := j.appendRecord(recManifest, body)
	if err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.goodEnd = int64(len(magic) + n)
	return nil
}

// replay loads an existing file: manifest check, committed records,
// torn-tail truncation.
func (j *Journal) replay() error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	m, recs, goodEnd, err := scan(j.f)
	if err != nil {
		return err
	}
	if m != j.manifest {
		return fmt.Errorf("%w: journal %s was written for a different run (have %+v, want %+v)",
			ErrManifestMismatch, j.path, m, j.manifest)
	}
	st, err := j.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() > goodEnd {
		// Torn tail: a record the crashed writer never completed. It was
		// never acknowledged, so dropping it loses nothing.
		j.truncated = st.Size() - goodEnd
		if err := j.f.Truncate(goodEnd); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	j.committed = recs
	j.goodEnd = goodEnd
	_, err = j.f.Seek(0, io.SeekEnd)
	return err
}

// scan reads magic, manifest, and chunk records from r, stopping at the
// first torn or corrupt record. goodEnd is the offset just past the last
// well-formed record.
func scan(r io.Reader) (m Manifest, recs []ChunkRecord, goodEnd int64, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return m, nil, 0, fmt.Errorf("journal: not a journal file (short header): %w", err)
	}
	if hdr != magic {
		return m, nil, 0, fmt.Errorf("journal: bad magic %q (format change or not a journal)", hdr[:])
	}
	goodEnd = int64(len(magic))
	sawManifest := false
	for {
		typ, body, n, rerr := readRecord(r)
		if rerr != nil {
			// io.EOF is a clean end; anything else (short frame, CRC
			// mismatch, oversized length) marks the torn tail.
			break
		}
		switch typ {
		case recManifest:
			if sawManifest {
				return m, nil, 0, fmt.Errorf("journal: duplicate manifest record")
			}
			if jerr := json.Unmarshal(body, &m); jerr != nil {
				return m, nil, 0, fmt.Errorf("journal: manifest: %w", jerr)
			}
			sawManifest = true
		case recChunk:
			if !sawManifest {
				return m, nil, 0, fmt.Errorf("journal: chunk record before manifest")
			}
			var rec ChunkRecord
			if jerr := json.Unmarshal(body, &rec); jerr != nil {
				return m, nil, 0, fmt.Errorf("journal: chunk record: %w", jerr)
			}
			recs = append(recs, rec)
		default:
			// Unknown record type from a newer minor version: skip but
			// count it as well-formed (it passed its CRC).
		}
		goodEnd += int64(n)
	}
	if !sawManifest {
		return m, nil, 0, fmt.Errorf("journal: no manifest record (file torn at birth)")
	}
	return m, recs, goodEnd, nil
}

// readRecord reads one framed record, returning its type, JSON body and
// total on-disk size. Any framing violation is an error (the caller
// treats it as the torn tail).
func readRecord(r io.Reader) (typ byte, body []byte, size int, err error) {
	var frame [8]byte
	n, err := io.ReadFull(r, frame[:])
	if err == io.EOF && n == 0 {
		return 0, nil, 0, io.EOF
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("journal: torn frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(frame[0:4])
	sum := binary.LittleEndian.Uint32(frame[4:8])
	if length < 2 || length > maxRecordBytes {
		return 0, nil, 0, fmt.Errorf("journal: implausible record length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("journal: torn payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil, 0, fmt.Errorf("journal: record checksum mismatch")
	}
	if payload[0] != recVersion {
		return 0, nil, 0, fmt.Errorf("journal: unsupported record version %d", payload[0])
	}
	return payload[1], payload[2:], 8 + int(length), nil
}

// appendRecord writes one complete record — the 8-byte header (length +
// CRC32C) followed by the versioned payload — and returns its on-disk
// size; the caller syncs.
func (j *Journal) appendRecord(typ byte, body []byte) (int, error) {
	frame := make([]byte, 8, 10+len(body)) // header placeholder
	frame = append(frame, recVersion, typ)
	frame = append(frame, body...)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-8))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	if _, err := j.f.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// seal marks the journal read-only after a failed append and rolls the
// file back to the last durable record, so the on-disk prefix remains
// exactly the committed set. Rollback is best-effort: if even Truncate
// fails (dead disk), Open's torn-tail repair heals the file on resume.
// Called with j.mu held.
func (j *Journal) seal(cause error) {
	j.sealErr = cause
	_ = j.f.Truncate(j.goodEnd)
	_ = j.f.Sync()
	_, _ = j.f.Seek(0, io.SeekEnd)
}

// SealCause returns the write error that sealed the journal (nil if it
// is not sealed). Once sealed, every Commit returns ErrSealed and the
// committed set no longer grows.
func (j *Journal) SealCause() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sealErr
}

// Commit durably appends one chunk verdict: the record is written and
// fsynced before Commit returns, so a verdict acknowledged to the rest
// of the pipeline survives any subsequent crash. A write or fsync
// failure (ENOSPC, I/O error) seals the journal: the half-written
// record is rolled back, this and every later Commit return an error
// matching ErrSealed, and the file stays resumable.
func (j *Journal) Commit(rec ChunkRecord) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: commit on closed journal")
	}
	if j.sealErr != nil {
		return fmt.Errorf("%w: %v", ErrSealed, j.sealErr)
	}
	sp := j.parent.Child("journal_commit",
		obs.KV("from", rec.From), obs.KV("to", rec.To), obs.KV("verdict", rec.Verdict))
	n, err := j.appendRecord(recChunk, body)
	if err != nil {
		j.seal(err)
		sp.End(obs.KV("error", err.Error()))
		return fmt.Errorf("%w: %v", ErrSealed, err)
	}
	if err := j.f.Sync(); err != nil {
		j.seal(err)
		sp.End(obs.KV("error", err.Error()))
		return fmt.Errorf("%w: %v", ErrSealed, err)
	}
	sp.End()
	j.goodEnd += int64(n)
	j.committed = append(j.committed, rec)
	if j.watch != nil {
		j.watch(rec, len(j.committed))
	}
	return nil
}

// Committed returns the chunk verdicts durably recorded so far (loaded
// ones first, then this process's commits, in order).
func (j *Journal) Committed() []ChunkRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ChunkRecord, len(j.committed))
	copy(out, j.committed)
	return out
}

// Commits returns the number of committed chunk records.
func (j *Journal) Commits() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.committed)
}

// Manifest returns the manifest the journal was opened with.
func (j *Journal) Manifest() Manifest { return j.manifest }

// TruncatedBytes reports how many torn-tail bytes Open dropped (0 for a
// clean file) — surfaced so resumed runs can log that a crash was
// detected and healed.
func (j *Journal) TruncatedBytes() int64 { return j.truncated }

// Close flushes and closes the file. Committed records are already
// durable (Commit fsyncs), so Close after a signal is a formality — but
// a cheap one, and it releases the descriptor. Closing a nil journal
// (a run without one) does nothing.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.sealErr != nil {
		// A sealed journal's disk is already misbehaving; don't let a
		// failing final Sync mask the close.
		return j.f.Close()
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
