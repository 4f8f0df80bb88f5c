package distrib

import (
	"sort"
	"sync"
	"time"

	"repro/internal/partition"
)

// WorkerHealth tracks one worker across its connections. Workers are
// keyed by the name they report in hello (falling back to the remote
// address when unnamed), so a reconnecting worker accumulates into one
// entry.
type WorkerHealth struct {
	Name        string
	Connections int
	Jobs        int
	Failures    int
	// CertRejections counts results whose certificate the coordinator
	// rejected — evidence the worker lied or corrupted its proof.
	CertRejections int
	// Untrusted marks a worker whose certificate was rejected: its
	// verdicts can no longer be believed, so the coordinator refuses its
	// future connections for the rest of the run.
	Untrusted bool
	LastSeen  time.Time
}

// HealthRegistry is the coordinator's view of every worker that ever
// said hello. It is exported so cmd/coordinator can share one instance
// between Coordinate and its /healthz HTTP endpoint (pass it through
// CoordinatorOptions.Health); Snapshot is safe to call concurrently with
// a live run.
type HealthRegistry struct {
	mu      sync.Mutex
	workers map[string]*WorkerHealth
}

// NewHealthRegistry builds an empty registry.
func NewHealthRegistry() *HealthRegistry {
	return &HealthRegistry{workers: make(map[string]*WorkerHealth)}
}

// connected records a completed hello and returns the registry key for
// the connection's subsequent events.
func (r *HealthRegistry) connected(name, addr string) string {
	key := name
	if key == "" {
		key = addr
	}
	r.seen(key, func(w *WorkerHealth) { w.Connections++ })
	return key
}

// seen applies one event to a worker, its first making its entry, and
// stamps it seen now.
func (r *HealthRegistry) seen(key string, apply func(w *WorkerHealth)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[key]
	if w == nil {
		w = &WorkerHealth{Name: key}
		r.workers[key] = w
	}
	apply(w)
	w.LastSeen = time.Now()
}

func (r *HealthRegistry) touch(key string)   { r.seen(key, func(*WorkerHealth) {}) } // a heartbeat
func (r *HealthRegistry) jobDone(key string) { r.seen(key, func(w *WorkerHealth) { w.Jobs++ }) }
func (r *HealthRegistry) failed(key string)  { r.seen(key, func(w *WorkerHealth) { w.Failures++ }) }

// certRejected records a rejected certificate, a failed attempt too, and
// marks the worker untrusted: one proven lie is enough to stop believing
// a peer whose whole job is to report verdicts.
func (r *HealthRegistry) certRejected(key string) {
	r.seen(key, func(w *WorkerHealth) { w.CertRejections++; w.Failures++; w.Untrusted = true })
}

// isUntrusted reports whether a worker has been quarantined for a
// rejected certificate.
func (r *HealthRegistry) isUntrusted(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[key]
	return w != nil && w.Untrusted
}

// Snapshot returns value copies sorted by name. It may be called
// concurrently with a live run (the /healthz endpoint does).
func (r *HealthRegistry) Snapshot() []WorkerHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerHealth, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ChunkFailure is one entry of the coordinator's structured failure log:
// a chunk that exhausted its attempt budget and was quarantined instead
// of being reassigned forever. A quarantined chunk caps the run's
// verdict at Unknown.
type ChunkFailure struct {
	Chunk    partition.Cube
	Attempts int      // failed attempts (== the budget when quarantined)
	Errors   []string // one reason per failed attempt, oldest first
}

// chunkTracker counts assignments and failures per cube and decides
// quarantine against the attempt budget.
type chunkTracker struct {
	mu     sync.Mutex
	budget int
	stats  map[partition.Cube]*chunkStat
}

type chunkStat struct {
	assigned int
	failed   int
	errors   []string
}

func newChunkTracker(budget int) *chunkTracker {
	return &chunkTracker{budget: budget, stats: make(map[partition.Cube]*chunkStat)}
}

func (t *chunkTracker) get(ch partition.Cube) *chunkStat {
	s := t.stats[ch]
	if s == nil {
		s = &chunkStat{}
		t.stats[ch] = s
	}
	return s
}

func (t *chunkTracker) assigned(ch partition.Cube) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.get(ch).assigned++
}

// failed records a failed attempt and reports whether the chunk has now
// exhausted its budget and must be quarantined.
func (t *chunkTracker) failed(ch partition.Cube, reason string) (quarantined bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.get(ch)
	s.failed++
	s.errors = append(s.errors, reason)
	return s.failed >= t.budget
}

// attempts returns assignment counts per chunk.
func (t *chunkTracker) attempts() map[partition.Cube]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[partition.Cube]int, len(t.stats))
	for ch, s := range t.stats {
		out[ch] = s.assigned
	}
	return out
}

// failureLog returns the quarantined chunks sorted by partition range.
func (t *chunkTracker) failureLog() []ChunkFailure {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []ChunkFailure
	for ch, s := range t.stats {
		if s.failed >= t.budget {
			out = append(out, ChunkFailure{Chunk: ch, Attempts: s.failed, Errors: s.errors})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Chunk.From != out[j].Chunk.From {
			return out[i].Chunk.From < out[j].Chunk.From
		}
		return out[i].Chunk.Path < out[j].Chunk.Path
	})
	return out
}
