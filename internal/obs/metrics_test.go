package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Add adds n (may be negative). Nothing but these tests moves a gauge
// both ways: a live count is a view of its owner (GaugeFunc).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_seconds", "help", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	h.Observe(1.5)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q", sb.String())
	}
}

func TestInstrumentsAreIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs_total", "jobs", "worker", "w1")
	b := r.Counter("jobs_total", "jobs", "worker", "w1")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("jobs_total", "jobs", "worker", "w2")
	if a == other {
		t.Fatal("different labels must return a different series")
	}
	a.Inc()
	if b.Value() != 1 || other.Value() != 0 {
		t.Fatalf("series not independent: a=%d other=%d", b.Value(), other.Value())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("dual", "help")
}

// TestWritePrometheusGolden pins the exact text exposition output.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("parbmc_jobs_total", "Completed jobs.").Add(7)
	r.Counter("parbmc_jobs_total", "Completed jobs.", "worker", "w1").Add(3)
	r.Gauge("parbmc_chunks_remaining", "Chunks not yet proven safe.").Set(5)
	h := r.Histogram("parbmc_solve_seconds", "Per-job solve wall time.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(42)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP parbmc_chunks_remaining Chunks not yet proven safe.
# TYPE parbmc_chunks_remaining gauge
parbmc_chunks_remaining 5
# HELP parbmc_jobs_total Completed jobs.
# TYPE parbmc_jobs_total counter
parbmc_jobs_total 7
parbmc_jobs_total{worker="w1"} 3
# HELP parbmc_solve_seconds Per-job solve wall time.
# TYPE parbmc_solve_seconds histogram
parbmc_solve_seconds_bucket{le="0.1"} 1
parbmc_solve_seconds_bucket{le="1"} 3
parbmc_solve_seconds_bucket{le="10"} 3
parbmc_solve_seconds_bucket{le="+Inf"} 4
parbmc_solve_seconds_sum 43.05
parbmc_solve_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines the
// way concurrent solver instances would; run under -race this is the
// data-race certificate for the lock-free update paths.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				r.Counter("conflicts_total", "h").Inc()
				r.Counter("jobs_total", "h", "worker", worker).Inc()
				r.Gauge("active", "h").Add(1)
				r.Gauge("active", "h").Add(-1)
				r.Histogram("solve_seconds", "h", nil).Observe(float64(i) / 100)
				if i%50 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("conflicts_total", "h").Value(); got != workers*iters {
		t.Fatalf("conflicts_total: got %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("active", "h").Value(); got != 0 {
		t.Fatalf("active gauge: got %d, want 0", got)
	}
	var total int64
	for _, w := range []string{"a", "b", "c", "d"} {
		total += r.Counter("jobs_total", "h", "worker", w).Value()
	}
	if total != workers*iters {
		t.Fatalf("jobs_total sum: got %d, want %d", total, workers*iters)
	}
}

// TestViews: a view renders like the instrument it stands for, in both
// WritePrometheus and Samples; registering it again replaces its func; a
// labelled view with no series renders nothing; and its func is called
// outside the registry's locks, so it may use the registry itself.
func TestViews(t *testing.T) {
	r := NewRegistry()
	n := int64(3)
	r.CounterFunc("parbmc_jobs_total", "Completed jobs.", func() int64 { return n })
	r.GaugeFunc("parbmc_workers", "Workers.", func() int64 { return 2 })
	r.CounterFuncBy("parbmc_failures_total", "Failures per worker.", "worker",
		func() map[string]int64 { return map[string]int64{"w2": 1, "w1": 4} })
	r.CounterFuncBy("parbmc_empty_total", "No series yet.", "worker",
		func() map[string]int64 { return nil })
	n = 5 // read at render, not at registration
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP parbmc_failures_total Failures per worker.
# TYPE parbmc_failures_total counter
parbmc_failures_total{worker="w1"} 4
parbmc_failures_total{worker="w2"} 1
# HELP parbmc_jobs_total Completed jobs.
# TYPE parbmc_jobs_total counter
parbmc_jobs_total 5
# HELP parbmc_workers Workers.
# TYPE parbmc_workers gauge
parbmc_workers 2
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if s := r.Samples("parbmc_failures_total"); len(s) != 2 || s[0] != (Sample{`worker="w1"`, 4}) || s[1] != (Sample{`worker="w2"`, 1}) {
		t.Fatalf("samples %+v", s)
	}

	r.CounterFunc("parbmc_jobs_total", "Completed jobs.", func() int64 { return 9 })
	if s := r.Samples("parbmc_jobs_total"); len(s) != 1 || s[0].Value != 9 {
		t.Fatalf("re-registered view reads %+v, want 9", s)
	}

	// Inside its func a view creates an instrument (the registry's lock)
	// and reads itself (its family's lock) through Samples.
	var nested atomic.Bool
	r.GaugeFunc("parbmc_workers", "Workers.", func() int64 {
		if nested.CompareAndSwap(false, true) {
			r.Counter("parbmc_scrapes_total", "Scrapes.").Inc()
			defer nested.Store(false)
			return int64(r.Samples("parbmc_workers")[0].Value) + 1
		}
		return 6
	})
	if s := r.Samples("parbmc_workers"); len(s) != 1 || s[0].Value != 7 {
		t.Fatalf("view that reads the registry: %+v, want 7", s)
	}
}

func TestViewInstrumentMismatchPanics(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"view over instrument": func(r *Registry) {
			r.Counter("dual_total", "help")
			r.CounterFunc("dual_total", "help", func() int64 { return 0 })
		},
		"instrument over view": func(r *Registry) {
			r.CounterFunc("dual_total", "help", func() int64 { return 0 })
			r.Counter("dual_total", "help")
		},
		"gauge view over counter view": func(r *Registry) {
			r.CounterFunc("dual_total", "help", func() int64 { return 0 })
			r.GaugeFunc("dual_total", "help", func() int64 { return 0 })
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			register(NewRegistry())
		})
	}
}

// TestLabelValuesEscaped: the text format knows three escapes in a label
// value — backslash, double quote and line feed — and no other; a tab
// or a non-ASCII letter stands for itself. LabelValue reads the value
// back.
func TestLabelValuesEscaped(t *testing.T) {
	const name = "a\tb\"c\\d\ne \\n ä"
	r := NewRegistry()
	r.Counter("x_total", "help", "worker", name).Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if line := "x_total{worker=\"a\tb\\\"c\\\\d\\ne \\\\n ä\"} 1\n"; !strings.HasSuffix(sb.String(), line) {
		t.Fatalf("rendered\n%s\nwant the line\n%s", sb.String(), line)
	}
	if got := LabelValue(r.Samples("x_total")[0].Labels); got != name {
		t.Fatalf("LabelValue reads %q, want %q", got, name)
	}
}
