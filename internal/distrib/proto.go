package distrib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sat"
)

// maxFrameBytes caps one line-delimited frame so a misbehaving peer
// cannot make the reader buffer an arbitrarily long line.
const maxFrameBytes = 16 << 20 // 16 MiB

// wireTable is the CRC32C (Castagnoli) polynomial used to checksum
// every frame: 8 lowercase hex digits over the JSON payload, prefixed
// to the line as "crc payload\n". TCP's own checksum is too weak to
// catch in-flight corruption on long verification runs, and a corrupt
// frame must be rejected before json.Unmarshal can misread it.
var wireTable = crc32.MakeTable(crc32.Castagnoli)

// RunManifest is journal.Manifest under the name Message embeds it by,
// which leaves the field Manifest to the replication stream.
type RunManifest = journal.Manifest

// Message is the JSON wire format exchanged between coordinator and
// workers, one message per line.
type Message struct {
	// Type is "hello", "welcome", "job", "template", "heartbeat",
	// "result", "cert", "cancel", "replicate", "replicate-ack", or "stop".
	Type string `json:"type"`

	// Hello fields. Role distinguishes a work-seeking peer ("" — a
	// worker) from a standby coordinator ("standby") that wants the
	// journal replication stream instead of jobs.
	WorkerName string `json:"worker_name,omitempty"`
	Role       string `json:"role,omitempty"`

	// Welcome fields: the coordinator answers every hello with its
	// current role ("primary" or "standby", reusing Role) and lease
	// Epoch. Epoch is the split-brain fence — it also rides on every
	// job, and a peer that has seen a higher epoch refuses the lower
	// one: a deposed primary that revives cannot hand out stale work.
	Epoch int64 `json:"epoch,omitempty"`

	// Job fields: the run's manifest (its keys sit in the frame beside
	// these; nil, and so absent, on any other message) and the cube.
	// From/To are the cube's partition range, To inclusive (the paper's
	// --from/--to interface): they shadow the manifest's own from/to,
	// which never travel. Assume holds one list of assumption literals per
	// partition of the range, in order — the partition's own and, for a
	// sub-cube of adaptive splitting, the split literals its path fixes —
	// which the coordinator makes from its encoding: the worker solves
	// under them and knows no program. HeartbeatMillis tells the worker
	// how often to send a heartbeat while the job runs (0: none). A
	// "cancel" message carries JobID only: the coordinator has superseded
	// that in-flight job (split or hedge race lost) and the worker should
	// interrupt its solvers and answer with a cancelled result.
	*RunManifest
	JobID           int         `json:"job_id,omitempty"`
	From            int         `json:"from"`
	To              int         `json:"to"`
	Assume          [][]cnf.Lit `json:"assume,omitempty"`
	HeartbeatMillis int64       `json:"hb_millis,omitempty"`
	// ChunkTimeoutMillis / ChunkConflicts / MemBudgetMB carry the
	// coordinator's journal.Budget to the worker's solver instances (see
	// setBudget, budget), so a poison chunk degrades to a budgeted
	// Unknown instead of eating JobTimeout.
	ChunkTimeoutMillis int64 `json:"chunk_timeout_millis,omitempty"`
	ChunkConflicts     int64 `json:"chunk_conflicts,omitempty"`
	MemBudgetMB        int64 `json:"mem_budget_mb,omitempty"`
	// TemplateSize, on the first job of a connection, declares the run's
	// solver template: the coordinator's snapshot of it
	// (parallel.Template.Snapshot) follows the job as TemplateSize bytes
	// split across "template" frames, and the worker restores its
	// template from them instead of building one. A job of a connection
	// that was sent no template is refused.
	TemplateSize int64 `json:"template_size,omitempty"`
	// Certify is the evidence level the coordinator demands with this
	// job's result: "full" (SAT model + per-partition UNSAT proofs),
	// "model" (SAT model only), or "off"/"" (none).
	Certify string `json:"certify,omitempty"`
	// TraceID / ParentSpan propagate the coordinator's trace across the
	// process boundary: the worker joins TraceID and parents its job
	// span under ParentSpan (an obs span ref, "proc/id"), so per-process
	// span files merge into one tree. Empty when the coordinator is
	// untraced.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`

	// Result fields. Verdict is the job's sat.Status, as its word; Winner
	// is a SAT answer's partition. SolveMillis is the solver's share of Millis, and Stats aggregates
	// the job's per-partition search statistics, so remote search effort
	// reaches the coordinator instead of being dropped at the worker.
	Verdict     string     `json:"verdict,omitempty"`
	Winner      int        `json:"winner,omitempty"`
	Millis      int64      `json:"millis,omitempty"`
	SolveMillis int64      `json:"solve_millis,omitempty"`
	Stats       *sat.Stats `json:"stats,omitempty"`
	Error       string     `json:"error,omitempty"`
	// Restore, on the result of a job for which the worker restored the
	// run's solver template, accounts for it: the time, part of the job's
	// Millis, and the bytes it was restored from.
	Restore *TemplateRestore `json:"restore,omitempty"`
	// Cause names the exhausted budget behind an UNKNOWN verdict
	// ("timeout", "conflict-budget", or "memory"); empty for a retryable
	// Unknown such as worker-side cancellation. A budgeted Unknown is
	// terminal: re-running the same chunk under the same budgets gives
	// up again.
	Cause string `json:"cause,omitempty"`

	// CertSize, on a definite result solved under certification,
	// declares the certificate's total byte size; the certificate
	// follows the result as CertSize bytes of its wire form
	// (encodeCertificate) split across "cert" frames. 0 means no
	// certificate follows.
	CertSize int64 `json:"cert_size,omitempty"`

	// Chunk-frame fields, of "template" and "cert" frames: Seq numbers
	// the frames of one stream from 0 upward and Data carries this
	// frame's slice of the payload. Data is not in the JSON: the line
	// declares its length and CRC32C (DataLen, DataCRC) and the bytes
	// follow the line raw, so that a megabyte of template or
	// certificate is neither base64-expanded nor scanned as a JSON
	// string, which cost more CPU than restoring the template does.
	Seq     int    `json:"seq,omitempty"`
	Data    []byte `json:"-"`
	DataLen int    `json:"data_len,omitempty"`
	DataCRC uint32 `json:"data_crc,omitempty"`

	// Replication fields: the first "replicate" message of a stream
	// carries the primary's journal Manifest (Seq 0), every later one a
	// committed Record, with Seq its position in the journal (1 for the
	// first record). A "replicate-ack" reports in Seq how many messages
	// the standby has durably applied — the primary's replication-lag
	// gauge is messages sent minus the last acked Seq.
	Manifest *journal.Manifest    `json:"manifest,omitempty"`
	Record   *journal.ChunkRecord `json:"record,omitempty"`

	// Heartbeat live-progress fields: cumulative conflicts and
	// propagations across the job's solver instances so far, snapshotted
	// by the solver progress hook while the job is still running.
	// Progress is the job-level search-progress estimate in [0,1] — the
	// minimum over the job's partitions, i.e. how far along its
	// furthest-behind partition is. Parts breaks the same signal out per
	// partition, as the rows of the run report, live on heartbeats and
	// final on the result, feeding the parbmc_partition_* gauges and the
	// report's imbalance table.
	Conflicts    int64                 `json:"conflicts,omitempty"`
	Propagations int64                 `json:"propagations,omitempty"`
	Progress     float64               `json:"progress,omitempty"`
	Parts        []report.PartitionRow `json:"parts,omitempty"`

	// Memory heartbeat fields: the worker's live-heap estimate and its
	// effective memory limit (GOMEMLIMIT or -mem-limit), in bytes, which
	// the coordinator shows as per-worker gauges; MemLimit 0 means the
	// worker runs unbounded. They steer nothing: a worker near its limit
	// sheds its own job when its watchdog trips.
	MemBytes int64 `json:"mem_bytes,omitempty"`
	MemLimit int64 `json:"mem_limit,omitempty"`

	// Spans, on a result, carries the worker's span events for this job
	// (collected via an obs.CollectorSink), so the coordinator's run
	// report embeds the full cross-process trace without shipping files.
	Spans []obs.Event `json:"spans,omitempty"`
}

// setBudget and budget map the run's budget to and from a job frame's
// three wire keys.
func (m *Message) setBudget(b journal.Budget) {
	m.ChunkTimeoutMillis, m.ChunkConflicts, m.MemBudgetMB = b.Timeout.Milliseconds(), b.Conflicts, b.MemMB
}

func (m *Message) budget() journal.Budget {
	return journal.Budget{
		Timeout:   time.Duration(m.ChunkTimeoutMillis) * time.Millisecond,
		Conflicts: m.ChunkConflicts,
		MemMB:     m.MemBudgetMB,
	}
}

// conn wraps a TCP connection with line-delimited JSON framing. Sends
// are serialised by a mutex so a worker's heartbeat goroutine can share
// the connection with its job loop.
type conn struct {
	c        net.Conn
	r        *bufio.Reader
	wmu      sync.Mutex
	w        *bufio.Writer
	to       time.Duration
	maxFrame int
	// muted silently swallows sends while leaving the TCP connection
	// and the read side fully alive — the half-open failure mode the
	// FaultHalfOpen harness injects (a peer that looks connected but
	// whose traffic goes nowhere).
	muted atomic.Bool
}

// mute toggles silent send-swallowing (fault injection only).
func (c *conn) mute(on bool) { c.muted.Store(on) }

func newConn(c net.Conn, timeout time.Duration) *conn {
	return &conn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), to: timeout, maxFrame: maxFrameBytes}
}

func (c *conn) send(m *Message) error { return c.sendChunked(m, "", nil) }

// Bulk bytes — a run's solver template after the first job frame of a
// connection, a certificate after its result — travel as one stream
// format: the frame before them declares their size (TemplateSize,
// CertSize), and they follow as frames of type "template" or "cert" of
// at most chunkData bytes each, numbered from 0, each frame's bytes raw
// after its line (Message.Data).
const chunkData = 8 << 20

// sendChunked sends head and then data as a stream of typ frames, with
// no other sender's message between them: a cancel from the scheduler
// cannot land inside a template.
func (c *conn) sendChunked(head *Message, typ string, data []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.write(head); err != nil {
		return err
	}
	for seq := 0; len(data) > 0; seq++ {
		n := min(chunkData, len(data))
		if err := c.write(&Message{Type: typ, JobID: head.JobID, Seq: seq, Data: data[:n]}); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// errStream marks a chunk stream that breaks its framing: declared over
// its cap, cut short by another frame, or out of sequence. It is the
// sender's fault, where a read error is the wire's.
var errStream = errors.New("broken chunk stream")

// readChunks reads the stream of typ frames of job jobID that a frame
// declared size bytes of, limit at most, off next.
func readChunks(next func() (*Message, error), typ string, jobID int, size, limit int64) ([]byte, error) {
	if size < 0 || size > limit {
		return nil, fmt.Errorf("%w: %d %s bytes declared (cap %d)", errStream, size, typ, limit)
	}
	var data []byte
	for seq := 0; int64(len(data)) < size; seq++ {
		m, err := next()
		if err != nil {
			return nil, fmt.Errorf("%s frame %d: %w", typ, seq, err)
		}
		if m.Type != typ || m.JobID != jobID || m.Seq != seq {
			return nil, fmt.Errorf("%w: expected %s frame %d of job %d, got %q job=%d seq=%d",
				errStream, typ, seq, jobID, m.Type, m.JobID, m.Seq)
		}
		if len(m.Data) == 0 || int64(len(data)+len(m.Data)) > size {
			return nil, fmt.Errorf("%w: %s frames overflow the declared %d bytes", errStream, typ, size)
		}
		if data == nil {
			data = m.Data // a stream of one frame, the common case, is not copied
		} else {
			data = append(data, m.Data...)
		}
	}
	return data, nil
}

// write frames and writes one message, and its Data after it; callers
// hold wmu.
func (c *conn) write(m *Message) error {
	if len(m.Data) > 0 {
		head := *m
		head.DataLen, head.DataCRC = len(m.Data), crc32.Checksum(m.Data, wireTable)
		m = &head
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	line := make([]byte, 0, len(data)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(data, wireTable))
	line = append(line, data...)
	line = append(line, '\n')
	return c.writeRaw(line, m.Data)
}

// sendRaw writes a pre-framed line verbatim. It exists so the fault
// harness can put a deliberately corrupt frame on the wire.
func (c *conn) sendRaw(line []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeRaw(line, nil)
}

// writeRaw writes a framed line and the raw bytes after it.
func (c *conn) writeRaw(line, raw []byte) error {
	if c.muted.Load() {
		return nil // half-open: the bytes vanish, the socket stays up
	}
	if c.to > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(c.to)); err != nil {
			return err
		}
	}
	if _, err := c.w.Write(line); err != nil {
		return err
	}
	if _, err := c.w.Write(raw); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *conn) recv(timeout time.Duration) (*Message, error) {
	if timeout > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	} else if err := c.c.SetReadDeadline(time.Time{}); err != nil {
		return nil, err
	}
	var line []byte
	for {
		frag, err := c.r.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > c.maxFrame {
			return nil, fmt.Errorf("distrib: frame exceeds %d bytes", c.maxFrame)
		}
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
	payload, err := verifyFrame(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("distrib: malformed message: %w", err)
	}
	if m.DataLen != 0 {
		if m.DataLen < 0 || m.DataLen > c.maxFrame {
			return nil, fmt.Errorf("distrib: frame declares %d data bytes (cap %d)", m.DataLen, c.maxFrame)
		}
		m.Data = make([]byte, m.DataLen)
		if _, err := io.ReadFull(c.r, m.Data); err != nil {
			return nil, err
		}
		if got := crc32.Checksum(m.Data, wireTable); got != m.DataCRC {
			return nil, fmt.Errorf("distrib: frame data checksum mismatch (want %08x, got %08x)", m.DataCRC, got)
		}
	}
	return &m, nil
}

// verifyFrame strips and checks the "crc " prefix, rejecting the frame
// before any payload byte reaches the JSON decoder.
func verifyFrame(line []byte) ([]byte, error) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, fmt.Errorf("distrib: frame missing checksum")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("distrib: frame missing checksum")
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, wireTable); got != uint32(want) {
		return nil, fmt.Errorf("distrib: frame checksum mismatch (want %08x, got %08x)", want, got)
	}
	return payload, nil
}

func (c *conn) close() { c.c.Close() }
