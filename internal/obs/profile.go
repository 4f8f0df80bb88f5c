package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
)

// ProfileEntry describes one captured pprof profile.
type ProfileEntry struct {
	// Phase is the bracketed phase name ("encode", "solve", ...).
	Phase string
	// Kind is "cpu" or "heap".
	Kind string
	// Path is the file the profile was written to.
	Path string
	// Bytes is the profile's size on disk.
	Bytes int64
}

// Profiler captures per-phase pprof profiles: StartPhase begins a CPU
// profile, EndPhase stops it and snapshots the heap, both written under
// the profiler's directory as <prefix>_<phase>.{cpu,heap}.pprof. The
// run report indexes the entries so the evidence for each phase is one
// `go tool pprof` away.
//
// The Go runtime allows a single active CPU profile per process, which
// matches the pipeline's phase structure (phases are sequential); a
// StartPhase racing an active capture records no CPU profile for that
// phase but still snapshots the heap at EndPhase. All methods are
// nil-safe no-ops on a nil *Profiler, so instrumented paths never
// branch on "is profiling enabled".
type Profiler struct {
	dir    string
	prefix string

	mu      sync.Mutex
	cpu     map[string]*os.File // phase → active CPU profile file
	entries []ProfileEntry
	errs    []error
}

// NewProfiler creates the capture directory (if needed) and returns a
// profiler writing <prefix>_<phase>.{cpu,heap}.pprof files into it.
func NewProfiler(dir, prefix string) (*Profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profile dir: %w", err)
	}
	return &Profiler{dir: dir, prefix: prefix, cpu: make(map[string]*os.File)}, nil
}

func (p *Profiler) path(phase, kind string) string {
	return filepath.Join(p.dir, fmt.Sprintf("%s_%s.%s.pprof", p.prefix, phase, kind))
}

// StartPhase begins the CPU profile bracketing the named phase.
func (p *Profiler) StartPhase(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := os.Create(p.path(phase, "cpu"))
	if err != nil {
		p.errs = append(p.errs, err)
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another phase's capture is still running (or profiling is
		// already active in-process): skip CPU for this phase.
		f.Close()
		os.Remove(f.Name())
		p.errs = append(p.errs, fmt.Errorf("obs: cpu profile %q: %w", phase, err))
		return
	}
	p.cpu[phase] = f
}

// EndPhase closes the phase's bracket: stops its CPU profile (if one is
// active) and writes a heap snapshot.
func (p *Profiler) EndPhase(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.cpu[phase]; ok {
		pprof.StopCPUProfile()
		f.Close()
		delete(p.cpu, phase)
		p.record(phase, "cpu", f.Name())
	}
	hf, err := os.Create(p.path(phase, "heap"))
	if err != nil {
		p.errs = append(p.errs, err)
		return
	}
	runtime.GC() // a heap snapshot after GC reflects live retention, not garbage
	if err := pprof.WriteHeapProfile(hf); err != nil {
		p.errs = append(p.errs, fmt.Errorf("obs: heap profile %q: %w", phase, err))
	}
	hf.Close()
	p.record(phase, "heap", hf.Name())
}

func (p *Profiler) record(phase, kind, path string) {
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	p.entries = append(p.entries, ProfileEntry{Phase: phase, Kind: kind, Path: path, Bytes: size})
}

// Entries returns the captured profiles, sorted by phase then kind.
// Nil-safe.
func (p *Profiler) Entries() []ProfileEntry {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfileEntry, len(p.entries))
	copy(out, p.entries)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Err returns the first capture error, if any (profiling is best-effort:
// errors never fail the run, but the caller can surface them).
func (p *Profiler) Err() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	return nil
}
