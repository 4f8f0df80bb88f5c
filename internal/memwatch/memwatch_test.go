package memwatch

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestHeapBytesSane(t *testing.T) {
	got := HeapBytes()
	if got <= 0 {
		t.Fatalf("HeapBytes() = %d, want > 0", got)
	}
	if got > 64<<30 {
		t.Fatalf("HeapBytes() = %d, implausibly large for a test process", got)
	}
}

// TestWatchdogTripsOnHog grows a synthetic allocation hog until the
// watchdog — armed with a limit just above the current heap — fires,
// and checks the trip is delivered exactly once with sane numbers.
func TestWatchdogTripsOnHog(t *testing.T) {
	base := HeapBytes()
	limit := base + 64<<20 // trip threshold at 90%: base + ~57 MiB
	var trips atomic.Int32
	var tripUsed, tripLimit atomic.Int64
	w := Start(Options{
		LimitBytes:   limit,
		Interval:     5 * time.Millisecond,
		TripFraction: 0.9,
		OnTrip: func(used, lim int64) {
			trips.Add(1)
			tripUsed.Store(used)
			tripLimit.Store(lim)
		},
	})
	defer w.Stop()

	// The hog: retained 1 MiB slabs, written so the pages are real.
	var hog [][]byte
	deadline := time.Now().Add(10 * time.Second)
	for trips.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never tripped: used %d / limit %d", w.Used(), limit)
		}
		slab := make([]byte, 1<<20)
		for i := range slab {
			slab[i] = byte(i)
		}
		hog = append(hog, slab)
		time.Sleep(time.Millisecond)
	}
	hog = nil
	_ = hog

	// The trip is one-shot even though sampling continues over budget.
	time.Sleep(50 * time.Millisecond)
	if got := trips.Load(); got != 1 {
		t.Fatalf("OnTrip fired %d times, want exactly 1", got)
	}
	if tripLimit.Load() != limit {
		t.Fatalf("trip reported limit %d, want %d", tripLimit.Load(), limit)
	}
	if used := tripUsed.Load(); used < int64(float64(limit)*0.9)-1<<20 {
		t.Fatalf("trip reported used %d, below the 90%% threshold of %d", used, limit)
	}
}

// TestWatchdogInertWithoutLimit: no explicit limit and no GOMEMLIMIT
// means the watchdog samples but never trips.
func TestWatchdogInertWithoutLimit(t *testing.T) {
	if RuntimeLimit() != 0 {
		t.Skip("GOMEMLIMIT set in the environment; inertness not testable")
	}
	w := Start(Options{
		Interval: time.Millisecond,
		OnTrip:   func(used, lim int64) { t.Error("inert watchdog tripped") },
	})
	defer w.Stop()
	time.Sleep(20 * time.Millisecond)
	if w.Used() <= 0 {
		t.Fatalf("inert watchdog should still sample; Used() = %d", w.Used())
	}
	if w.Limit() != 0 {
		t.Fatalf("Limit() = %d, want 0", w.Limit())
	}
}

func TestStopIdempotent(t *testing.T) {
	w := Start(Options{Interval: time.Millisecond})
	w.Stop()
	w.Stop()
}
