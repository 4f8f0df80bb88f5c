package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Streaming replication of the journal.
//
// A record's on-disk framing ([4B length][4B CRC32C][payload]) doubles
// as its wire framing: MarshalManifest / MarshalChunk produce one
// complete frame, which the primary ships as one replicate message, and
// UnmarshalRecord parses one back. A standby coordinator applies each
// received frame verbatim to a local Replica file, so its copy of the
// journal is byte-identical to the primary's and — after a failover —
// resumes through the exact same Open path (manifest check, torn-tail
// truncation) as a cold restart.

// MarshalManifest encodes one manifest record in the journal's framed
// format (length + CRC32C + versioned payload).
func MarshalManifest(m Manifest) ([]byte, error) {
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return frameRecord(recManifest, body), nil
}

// MarshalChunk encodes one chunk record in the journal's framed format.
func MarshalChunk(rec ChunkRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return frameRecord(recChunk, body), nil
}

// UnmarshalRecord parses one framed record as produced by
// MarshalManifest / MarshalChunk. Exactly one of the returned pointers
// is non-nil. Trailing bytes after the frame, a CRC mismatch, or an
// unknown record type are errors: a replication frame is applied
// whole or not at all.
func UnmarshalRecord(frame []byte) (*Manifest, *ChunkRecord, error) {
	r := bytes.NewReader(frame)
	typ, body, n, err := readRecord(r)
	if err != nil {
		return nil, nil, err
	}
	if n != len(frame) {
		return nil, nil, fmt.Errorf("journal: %d trailing bytes after record", len(frame)-n)
	}
	switch typ {
	case recManifest:
		var m Manifest
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, nil, fmt.Errorf("journal: manifest: %w", err)
		}
		return &m, nil, nil
	case recChunk:
		var rec ChunkRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return nil, nil, fmt.Errorf("journal: chunk record: %w", err)
		}
		return nil, &rec, nil
	}
	return nil, nil, fmt.Errorf("journal: unknown record type %d", typ)
}

// Replica is a standby's local, durable copy of a primary's journal,
// grown one validated frame at a time. Apply fsyncs before returning,
// so every acknowledged frame survives a standby crash; a standby
// killed mid-Apply leaves at most one torn tail record, which the
// promotion path's Open repairs exactly as it would on the primary.
type Replica struct {
	f        *os.File
	path     string
	manifest *Manifest
	records  int
}

// CreateReplica creates (or truncates) the replica file at path and
// writes the journal magic. An existing file is discarded: the primary
// streams its full history on connect, and the primary's journal — not
// any stale local state — is the authority on what happened.
func CreateReplica(path string) (*Replica, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	// Make the replica file's directory entry durable too: a standby
	// that acknowledged replicated records must still find its copy
	// after power loss, not just after process death.
	syncDir(path)
	return &Replica{f: f, path: path}, nil
}

// Apply validates one framed record and appends it verbatim, fsynced.
// The first frame must be the manifest; a frame that fails its CRC or
// arrives out of protocol is rejected without touching the file, so a
// corrupt replication stream can never poison the local copy.
func (r *Replica) Apply(frame []byte) error {
	m, rec, err := UnmarshalRecord(frame)
	if err != nil {
		return err
	}
	switch {
	case m != nil && r.manifest != nil:
		return fmt.Errorf("journal: replica got a second manifest record")
	case rec != nil && r.manifest == nil:
		return fmt.Errorf("journal: replica got a chunk record before the manifest")
	}
	if _, err := r.f.Write(frame); err != nil {
		return err
	}
	if err := r.f.Sync(); err != nil {
		return err
	}
	if m != nil {
		r.manifest = m
	} else {
		r.records++
	}
	return nil
}

// Manifest returns the replicated manifest, if one has been applied.
func (r *Replica) Manifest() (Manifest, bool) {
	if r.manifest == nil {
		return Manifest{}, false
	}
	return *r.manifest, true
}

// Records returns the number of chunk records applied.
func (r *Replica) Records() int { return r.records }

// Path returns the replica's file path.
func (r *Replica) Path() string { return r.path }

// Close closes the file. Applied frames are already durable.
func (r *Replica) Close() error { return r.f.Close() }
