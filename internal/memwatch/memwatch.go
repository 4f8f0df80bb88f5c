// Package memwatch is the process-level memory watchdog: it samples the
// Go heap at a fixed cadence and trips a callback once before the
// process would be OOM-killed, giving the solver layer a chance to shed
// its biggest allocations (cancel the active job and drop its solvers)
// instead of dying without a trace.
//
// The watchdog deliberately watches *live heap after the last GC* plus
// the currently allocated spans, not the OS RSS: Go's allocator rarely
// returns freed spans to the kernel promptly, so RSS overestimates
// pressure long after the solver has shrunk. The limit defaults to the
// runtime's own soft memory limit (GOMEMLIMIT) when one is set — the
// same number the kernel-adjacent deployment knob already pins — and
// the trip fires at a fraction of it, early enough that the abort path
// (interrupt, unwind, free) completes while allocation headroom
// remains.
package memwatch

import (
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Watchdog.
type Options struct {
	// LimitBytes is the memory ceiling being protected. 0 means inherit
	// the runtime's soft memory limit (GOMEMLIMIT); if neither is set
	// the watchdog is inert and Start returns a no-op handle.
	LimitBytes int64
	// TripFraction is the fill fraction of LimitBytes at which OnTrip
	// fires (default 0.9). Tripping at 100% would leave the abort path
	// no allocation headroom to run in.
	TripFraction float64
	// Interval is the sampling cadence (default 250ms).
	Interval time.Duration
	// OnTrip is called exactly once, from the sampling goroutine, when
	// usage first crosses the threshold. Required for a live watchdog.
	OnTrip func(usedBytes, limitBytes int64)
}

// Watchdog samples heap usage until stopped. The zero value is not
// usable; construct via Start.
type Watchdog struct {
	opts    Options
	used    atomic.Int64
	tripped atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// heapSample reads the live-heap gauge from runtime/metrics:
// /memory/classes/heap/objects (live + dead-but-unswept objects) plus
// the unused span tail the allocator holds ready. This is the quantity
// GOMEMLIMIT itself is enforced against, minus the non-heap classes,
// which for this workload (clause arenas, watch lists, trails — all
// heap) are noise.
var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// HeapBytes returns the current live-heap estimate the watchdog
// samples, usable standalone (worker heartbeats report it even when no
// limit is set).
func HeapBytes() int64 {
	samples := make([]metrics.Sample, len(heapSamples))
	copy(samples, heapSamples)
	metrics.Read(samples)
	var total uint64
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			total += s.Value.Uint64()
		}
	}
	return int64(total)
}

// RuntimeLimit returns the runtime's soft memory limit (GOMEMLIMIT) or
// 0 when effectively unlimited. SetMemoryLimit(-1) is a read.
func RuntimeLimit() int64 {
	lim := debug.SetMemoryLimit(-1)
	if lim <= 0 || lim == int64(^uint64(0)>>1) {
		return 0 // math.MaxInt64 is the runtime's "no limit" sentinel
	}
	return lim
}

// Start launches the watchdog. With no explicit limit and no GOMEMLIMIT
// it returns an inert handle: Used still samples, Trip never fires.
func Start(opts Options) *Watchdog {
	if opts.LimitBytes == 0 {
		opts.LimitBytes = RuntimeLimit()
	}
	if opts.TripFraction <= 0 || opts.TripFraction > 1 {
		opts.TripFraction = 0.9
	}
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	w := &Watchdog{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	w.used.Store(HeapBytes())
	go w.run()
	return w
}

func (w *Watchdog) run() {
	defer close(w.done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	threshold := int64(float64(w.opts.LimitBytes) * w.opts.TripFraction)
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			used := HeapBytes()
			w.used.Store(used)
			if threshold > 0 && used >= threshold && !w.tripped.Swap(true) {
				if w.opts.OnTrip != nil {
					w.opts.OnTrip(used, w.opts.LimitBytes)
				}
			}
		}
	}
}

// Used returns the last sampled live-heap estimate in bytes.
func (w *Watchdog) Used() int64 { return w.used.Load() }

// Limit returns the effective limit in bytes (0: inert watchdog).
func (w *Watchdog) Limit() int64 { return w.opts.LimitBytes }

// Stop ends sampling and waits for the goroutine to exit. Idempotent.
func (w *Watchdog) Stop() {
	w.once.Do(func() { close(w.stop) })
	<-w.done
}
