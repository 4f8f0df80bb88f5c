package distrib

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

// Message is the JSON wire format exchanged between coordinator and
// workers, one message per line.
type Message struct {
	// Type is "hello", "welcome", "job", "heartbeat", "result", "cert",
	// "cancel", "replicate", "replicate-ack", or "stop".
	Type string `json:"type"`

	// Hello fields. Role distinguishes a work-seeking peer ("" — a
	// worker) from a standby coordinator ("standby") that wants the
	// journal replication stream instead of jobs.
	WorkerName string `json:"worker_name,omitempty"`
	Cores      int    `json:"cores,omitempty"`
	Role       string `json:"role,omitempty"`

	// Welcome fields: the coordinator answers every hello with its
	// current role ("primary" or "standby", reusing Role) and lease
	// Epoch. Epoch is the split-brain fence — it also rides on every
	// job, and a peer that has seen a higher epoch refuses the lower
	// one: a deposed primary that revives cannot hand out stale work.
	Epoch int64 `json:"epoch,omitempty"`

	// Job fields: the program source plus the analysis parameters and
	// the partition range (the paper's --from/--to interface).
	// HeartbeatMillis tells the worker how often to send a heartbeat
	// while the job runs (0: no heartbeats expected).
	JobID           int    `json:"job_id,omitempty"`
	Source          string `json:"source,omitempty"`
	Unwind          int    `json:"unwind,omitempty"`
	Contexts        int    `json:"contexts,omitempty"`
	Width           int    `json:"width,omitempty"`
	Partitions      int    `json:"partitions,omitempty"`
	From            int    `json:"from"`
	To              int    `json:"to"`
	HeartbeatMillis int64  `json:"hb_millis,omitempty"`
	// CubePath refines a single-partition job (From == To) with extra
	// unit assumptions over the canonical partition.SplitLits sequence —
	// the adaptive cube-splitting work unit. Empty for range jobs.
	// A "cancel" message carries JobID only: the coordinator has
	// superseded that in-flight job (split or hedge race lost) and the
	// worker should interrupt its solvers and answer with a cancelled
	// result.
	CubePath string `json:"cube_path,omitempty"`
	// ChunkTimeoutMillis / ChunkConflicts / MemBudgetMB carry the
	// coordinator's journal.Budget to the worker's solver instances (see
	// setBudget, budget), so a poison chunk degrades to a budgeted
	// Unknown instead of eating JobTimeout.
	ChunkTimeoutMillis int64 `json:"chunk_timeout_millis,omitempty"`
	ChunkConflicts     int64 `json:"chunk_conflicts,omitempty"`
	MemBudgetMB        int64 `json:"mem_budget_mb,omitempty"`
	// Certify is the evidence level the coordinator demands with this
	// job's result: "full" (UNSAFE model + per-partition UNSAT proofs),
	// "model" (UNSAFE model only), or "off"/"" (none).
	Certify string `json:"certify,omitempty"`
	// TraceID / ParentSpan propagate the coordinator's trace across the
	// process boundary: the worker joins TraceID and parents its job
	// span under ParentSpan (an obs span ref, "proc/id"), so per-process
	// span files merge into one tree. Empty when the coordinator is
	// untraced.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`

	// Result fields. SolveMillis is the solver's share of Millis, and
	// Stats aggregates the job's per-partition search statistics, so
	// remote search effort reaches the coordinator instead of being
	// dropped at the worker.
	Verdict     string     `json:"verdict,omitempty"`
	Winner      int        `json:"winner,omitempty"`
	Millis      int64      `json:"millis,omitempty"`
	SolveMillis int64      `json:"solve_millis,omitempty"`
	Stats       *sat.Stats `json:"stats,omitempty"`
	Error       string     `json:"error,omitempty"`
	// Template, on the result of the job in which a worker built the
	// run's solver template, accounts for it: its time is part of that
	// job's Millis and SolveMillis, its counters are the template's and
	// no partition's, so they ride here and not in Stats.
	Template *report.TemplateRow `json:"template,omitempty"`
	// Cause names the exhausted budget behind an UNKNOWN verdict
	// ("timeout", "conflict-budget", or "memory"); empty for a retryable
	// Unknown such as worker-side cancellation. A budgeted Unknown is
	// terminal: re-running the same chunk under the same budgets gives
	// up again.
	Cause string `json:"cause,omitempty"`

	// CertSize, on a definite result solved under certification,
	// declares the certificate's total byte size; the certificate
	// follows the result as CertSize bytes of JSON split across "cert"
	// frames. 0 means no certificate follows.
	CertSize int64 `json:"cert_size,omitempty"`

	// Cert-frame fields: Seq numbers the frames of one certificate from
	// 0 upward and Data carries this frame's slice of the payload
	// (base64 under encoding/json). Replication reuses both: a
	// "replicate" message carries one framed journal record in Data with
	// Seq counting records from 0 (manifest first), and a
	// "replicate-ack" reports the standby's durably applied record count
	// in Seq — the primary's replication-lag gauge is commits minus the
	// last acked Seq.
	Seq  int    `json:"seq,omitempty"`
	Data []byte `json:"data,omitempty"`

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

	// Introspection heartbeat fields: job-level solver rates (per
	// second, over the last heartbeat interval) and the hottest
	// partition's live hardness score — the worker-side sampler output
	// that feeds the coordinator's parbmc_worker_*_rate gauges.
	ConflictRate    float64 `json:"conflict_rate,omitempty"`
	DecisionRate    float64 `json:"decision_rate,omitempty"`
	PropagationRate float64 `json:"propagation_rate,omitempty"`
	Hardness        float64 `json:"hardness,omitempty"`

	// Memory heartbeat fields: the worker's live-heap estimate and its
	// effective memory limit (GOMEMLIMIT or -mem-limit), in bytes. The
	// coordinator's backpressure gate keys on the MemBytes/MemLimit
	// ratio; MemLimit 0 means the worker runs unbounded.
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

func (c *conn) send(m *Message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	line := make([]byte, 0, len(data)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(data, wireTable))
	line = append(line, data...)
	line = append(line, '\n')
	return c.sendRaw(line)
}

// sendRaw writes a pre-framed line verbatim. It exists so the fault
// harness can put a deliberately corrupt frame on the wire.
func (c *conn) sendRaw(line []byte) error {
	if c.muted.Load() {
		return nil // half-open: the bytes vanish, the socket stays up
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.to > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(c.to)); err != nil {
			return err
		}
	}
	if _, err := c.w.Write(line); err != nil {
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
