// Package obs is the pipeline-wide observability layer: hierarchical
// timed spans over the verification pipeline (parse → unfold → flatten →
// encode → partition → solve → validate), a concurrency-safe metrics
// registry rendered in Prometheus text exposition format, and an HTTP
// surface (/metrics, /healthz, optional pprof) for the long-running
// binaries.
//
// Everything is nil-safe by design: a nil *Tracer, *Span, *Registry,
// *Counter, *Gauge or *Histogram accepts every call as a no-op, so
// instrumented code paths never branch on "is observability enabled" —
// they simply call through, and the disabled path costs one nil check.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span, emitted to the sink as a single record
// when the span ends. Times are wall-clock; Dur is the span's duration.
type Event struct {
	// Time is the span start time (RFC 3339 with sub-second precision).
	Time time.Time `json:"ts"`
	// Name is the span name (the pipeline phase, e.g. "solve").
	Name string `json:"span"`
	// ID is the span's sequence number, unique within one Tracer.
	ID int64 `json:"id"`
	// Parent is the enclosing span's ID (0 for root spans).
	Parent int64 `json:"parent,omitempty"`
	// DurMicros is the span duration in microseconds.
	DurMicros int64 `json:"dur_us"`
	// Attrs carries span attributes (partition index, verdict, sizes…).
	Attrs map[string]any `json:"attrs,omitempty"`

	// Trace is the run-wide trace ID this span belongs to. All spans of
	// one distributed run — coordinator, standby, and workers — share it,
	// which is what lets their JSONL files merge into one tree.
	Trace string `json:"trace,omitempty"`
	// Proc names the process that emitted the span ("coordinator",
	// worker name, …). ID is only unique per Tracer, so the pair
	// (Proc, ID) — rendered by Ref — is a span's cross-process identity.
	Proc string `json:"proc,omitempty"`
	// Remote is the cross-process parent reference (Ref of a span in
	// another process), set on spans started with StartRemote. It takes
	// precedence over Parent when merging.
	Remote string `json:"remote,omitempty"`
}

// Ref is the span's cross-process identity, "proc/id". Parent references
// across process boundaries (Event.Remote, SpanContext.SpanID) use this
// form.
func (e Event) Ref() string { return fmt.Sprintf("%s/%d", e.Proc, e.ID) }

// ParentRef is the reference of the span's parent: Remote if the parent
// lives in another process, otherwise the in-process parent's Ref, or
// "" for a root span.
func (e Event) ParentRef() string {
	if e.Remote != "" {
		return e.Remote
	}
	if e.Parent != 0 {
		return fmt.Sprintf("%s/%d", e.Proc, e.Parent)
	}
	return ""
}

// SpanContext is the wire-portable identity of a span: enough for
// another process to parent its own spans under it (trace propagation).
// The zero value means "no context": StartRemote with it degrades to a
// plain root span.
type SpanContext struct {
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// NewTraceID returns a fresh random 64-bit trace ID in hex.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the wall clock; uniqueness only matters within
		// one operator's set of runs, not cryptographically.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Sink receives completed span events. Implementations must be safe for
// concurrent use: spans end from whatever goroutine ran the phase.
type Sink interface {
	Emit(e Event)
}

// JSONLSink writes one JSON object per line to w, serialised by a mutex.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink wraps w in a line-delimited JSON sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes the event as one JSON line. Encoding errors are dropped:
// tracing must never fail the pipeline. Nil-safe like CollectorSink.
func (s *JSONLSink) Emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// CollectorSink buffers events in memory. Workers use one per job to
// ship the job's span tree back to the coordinator inside the result
// message, and report-writing binaries use one to embed their own spans
// in the run report.
type CollectorSink struct {
	mu     sync.Mutex
	events []Event
}

// NewCollectorSink builds an empty in-memory sink.
func NewCollectorSink() *CollectorSink { return &CollectorSink{} }

// Emit appends the event. Nil-safe: a nil collector drops it, so a
// typed-nil *CollectorSink reaching MultiSink degrades to a no-op sink
// instead of a panic.
func (s *CollectorSink) Emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events snapshots the collected events in emission order.
func (s *CollectorSink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// multiSink fans one event out to several sinks.
type multiSink struct{ sinks []Sink }

func (m *multiSink) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

// MultiSink combines sinks, skipping nils. It returns nil when nothing
// remains (so NewTracer(MultiSink(maybeNil, maybeNil)) stays the
// disabled fast path), and the sole survivor unwrapped when only one
// does.
func MultiSink(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multiSink{sinks: live}
}

// Tracer hands out hierarchical spans and forwards completed spans to
// its sink. The zero of *Tracer (nil) is the disabled tracer: Start
// returns a nil span and every span method is a no-op — the fast path
// used when no -trace-out flag is given.
type Tracer struct {
	sink  Sink
	now   func() time.Time
	seq   atomic.Int64
	proc  string
	trace string
}

// NewTracer builds a tracer emitting to sink, with a fresh random trace
// ID (override with WithTraceID to join an existing trace). A nil sink
// yields a nil tracer, so callers can pass an unconditional
// NewTracer(maybeNil).
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, now: time.Now, trace: NewTraceID()}
}

// WithProc sets the tracer's process name, the Proc stamped on every
// emitted event (and half of each span's cross-process Ref). It returns
// the tracer for chaining and must be called before spans start.
func (t *Tracer) WithProc(name string) *Tracer {
	if t != nil {
		t.proc = name
	}
	return t
}

// WithTraceID replaces the tracer's trace ID — used by processes that
// join a trace started elsewhere. Empty IDs are ignored, so callers can
// pass a maybe-empty wire field unconditionally.
func (t *Tracer) WithTraceID(id string) *Tracer {
	if t != nil && id != "" {
		t.trace = id
	}
	return t
}

// TraceID returns the tracer's trace ID ("" on a nil tracer).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.trace
}

// Sink returns the tracer's sink (nil on a nil tracer). Exposed so one
// process can tee a long-lived sink with a per-job collector.
func (t *Tracer) Sink() Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// WithClock replaces the tracer's time source (tests inject a
// deterministic clock). It returns the tracer for chaining.
func (t *Tracer) WithClock(now func() time.Time) *Tracer {
	if t != nil && now != nil {
		t.now = now
	}
	return t
}

// Start opens a root span. On a nil tracer it returns a nil span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	return t.startSpan(name, 0, "", "", attrs)
}

// StartRemote opens a span parented under a span in another process,
// identified by the SpanContext carried over the wire. The span joins
// the remote trace (its events carry parent.TraceID) and its merge
// parent is parent.SpanID. A zero context degrades to a plain root
// span, so callers forward maybe-empty wire fields unconditionally.
func (t *Tracer) StartRemote(name string, parent SpanContext, attrs ...Attr) *Span {
	if parent.SpanID == "" {
		sp := t.startSpan(name, 0, "", parent.TraceID, attrs)
		return sp
	}
	return t.startSpan(name, 0, parent.SpanID, parent.TraceID, attrs)
}

func (t *Tracer) startSpan(name string, parent int64, remote, trace string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	if trace == "" {
		trace = t.trace
	}
	sp := &Span{
		tr:     t,
		name:   name,
		id:     t.seq.Add(1),
		parent: parent,
		remote: remote,
		trace:  trace,
		start:  t.now(),
	}
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	return sp
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any
}

// KV builds an attribute.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span is one timed region. All methods are nil-safe.
type Span struct {
	tr     *Tracer
	name   string
	id     int64
	parent int64
	remote string // cross-process parent Ref ("" for local spans)
	trace  string // trace ID (inherited from the tracer or a remote parent)
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// Child opens a sub-span of s. Children inherit s's trace, so a whole
// subtree started under a remote parent stays in the remote trace.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(name, s.id, "", s.trace, attrs)
}

// Context returns the span's wire-portable identity, for a peer process
// to parent its spans under via StartRemote. Nil-safe: a nil span
// yields the zero context, which StartRemote treats as "no parent".
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{
		TraceID: s.trace,
		SpanID:  fmt.Sprintf("%s/%d", s.tr.proc, s.id),
	}
}

// SetAttr records an attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End closes the span, emitting one event to the tracer's sink. Extra
// attributes are merged in first. End is idempotent: only the first
// call emits.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	for _, a := range attrs {
		s.SetAttr(a.Key, a.Value)
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrsCopy := s.attrs
	s.mu.Unlock()
	end := s.tr.now()
	s.tr.sink.Emit(Event{
		Time:      s.start,
		Name:      s.name,
		ID:        s.id,
		Parent:    s.parent,
		DurMicros: end.Sub(s.start).Microseconds(),
		Attrs:     attrsCopy,
		Trace:     s.trace,
		Proc:      s.tr.proc,
		Remote:    s.remote,
	})
}

// Record emits a finished child span of s that began when s did and
// lasted dur: for a serial first step of s that the code running it
// timed itself, out of the tracer's reach, and reported afterwards.
func (s *Span) Record(name string, dur time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	e := Event{
		Time:      s.start,
		Name:      name,
		ID:        s.tr.seq.Add(1),
		Parent:    s.id,
		DurMicros: dur.Microseconds(),
		Trace:     s.trace,
		Proc:      s.tr.proc,
	}
	if len(attrs) > 0 {
		e.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			e.Attrs[a.Key] = a.Value
		}
	}
	s.tr.sink.Emit(e)
}

// Timed runs fn inside a span named name under parent (parent may be
// nil, in which case the span is nil too and only fn's cost remains).
func Timed(parent *Span, name string, fn func()) {
	sp := parent.Child(name)
	fn()
	sp.End()
}
