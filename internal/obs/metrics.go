package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe metrics registry rendered in the
// Prometheus text exposition format. Metric instruments are created once
// (idempotently: re-requesting the same name+labels returns the same
// instrument) and updated lock-free with atomics; only creation and
// rendering take the registry lock.
//
// A view (CounterFunc, GaugeFunc, CounterFuncBy) reads a count another
// structure keeps, from a func, whenever the registry renders. Registering
// a view again replaces its func; the func is called outside the
// registry's locks, so it may take its owner's; Samples and
// WritePrometheus render a view like any other family.
//
// A nil *Registry returns nil instruments, whose update methods are
// no-ops — instrumented code never checks whether metrics are enabled.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name string
	help string
	typ  string // "counter" | "gauge" | "histogram"

	mu     sync.Mutex
	series map[string]metric // keyed by rendered label string
	order  []string          // insertion order of label keys for rendering
	read   func() []Sample   // a view's values; nil for a family of instruments
}

type metric interface {
	write(w io.Writer, name, labels string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the family name: one of
// instruments when read is nil, else a view, whose func read replaces
// the one it had. A nil registry has none.
func (r *Registry) family(name, help, typ string, read func() []Sample) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	switch {
	case f == nil:
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric), read: read}
		r.families[name] = f
	case f.typ != typ || (f.read == nil) != (read == nil):
		panic(fmt.Sprintf("obs: metric %q re-registered as another type, or a view as an instrument (was %s)", name, f.typ))
	case read != nil:
		f.mu.Lock()
		f.read = read
		f.mu.Unlock()
	}
	return f
}

// CounterFunc registers name as a counter whose value is f(), read when
// the registry is rendered.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.family(name, help, "counter", func() []Sample { return []Sample{{Value: float64(f())}} })
}

// GaugeFunc registers name as a gauge whose value is f(), read when the
// registry is rendered.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.family(name, help, "gauge", func() []Sample { return []Sample{{Value: float64(f())}} })
}

// CounterFuncBy registers name as a counter family with the one label
// label: f returns each series' label value and count, read when the
// registry is rendered, in the order of the label values. A family f
// returns no series of renders nothing, as one whose first series was
// not created yet.
func (r *Registry) CounterFuncBy(name, help, label string, f func() map[string]int64) {
	r.family(name, help, "counter", func() []Sample {
		var out []Sample
		for v, n := range f() {
			out = append(out, Sample{Labels: labelString([]string{label, v}), Value: float64(n)})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
		return out
	})
}

// The text format knows exactly three escapes in a label value:
// backslash, double quote and line feed. Any other byte, a tab or a
// non-ASCII letter, stands for itself.
var (
	labelEscaper   = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// labelString renders "k1=\"v1\",k2=\"v2\"" with keys in the given order
// (pairs is alternating key, value).
func labelString(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, pairs[i], labelEscaper.Replace(pairs[i+1]))
	}
	return b.String()
}

// LabelValue is the value of a series of one label, read back from its
// Sample.Labels (`key="value"`).
func LabelValue(labels string) string {
	_, v, _ := strings.Cut(labels, `="`)
	return labelUnescaper.Replace(strings.TrimSuffix(v, `"`))
}

func (f *family) get(labels string, mk func() metric) metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.series[labels]
	if m == nil {
		m = mk()
		f.series[labels] = m
		f.order = append(f.order, labels)
	}
	return m
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Counter returns (creating if needed) the counter name with the given
// label pairs (alternating key, value).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, "counter", nil)
	return f.get(labelString(labels), func() metric { return &Counter{} }).(*Counter)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, float64(c.v.Load()))
}

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Gauge returns (creating if needed) the gauge name with the given
// label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, "gauge", nil)
	return f.get(labelString(labels), func() metric { return &Gauge{} }).(*Gauge)
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, float64(g.v.Load()))
}

// Histogram is a fixed-bucket cumulative histogram. Observations and
// rendering are lock-free (atomics only).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }

// FloatGauge is a settable float64, for fractional signals such as the
// [0,1] search-progress estimate.
type FloatGauge struct{ v atomicFloat }

// FloatGauge returns (creating if needed) the float gauge name with the
// given label pairs. It shares the "gauge" family type, so a name must
// be used consistently as either Gauge or FloatGauge.
func (r *Registry) FloatGauge(name, help string, labels ...string) *FloatGauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, "gauge", nil)
	return f.get(labelString(labels), func() metric { return &FloatGauge{} }).(*FloatGauge)
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.store(v)
}

// Value reads the gauge.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

func (g *FloatGauge) write(w io.Writer, name, labels string) {
	writeSample(w, name, labels, g.v.load())
}

// Sample is one series of a scalar metric family, as read back by
// Samples: the rendered label string (`k="v",…`, "" for unlabelled) and
// the current value.
type Sample struct {
	Labels string
	Value  float64
}

// Samples reads the current values of every series in the scalar family
// name (counter or gauge; histograms return nil), in insertion order, or
// a view's in its own. It lets binaries fold registry state into
// non-Prometheus surfaces such as the /healthz JSON. A nil registry or
// unknown name yields nil.
func (r *Registry) Samples(name string) []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	f.mu.Lock()
	if read := f.read; read != nil {
		f.mu.Unlock()
		return read()
	}
	defer f.mu.Unlock()
	var out []Sample
	for _, labels := range f.order {
		switch m := f.series[labels].(type) {
		case *Counter:
			out = append(out, Sample{Labels: labels, Value: float64(m.Value())})
		case *Gauge:
			out = append(out, Sample{Labels: labels, Value: float64(m.Value())})
		case *FloatGauge:
			out = append(out, Sample{Labels: labels, Value: m.Value()})
		}
	}
	return out
}

// Unregister removes one series (the given label pairs) from the family
// name, so departed label values (an evicted worker, say) stop being
// rendered with their last reading forever. Removing the last series
// keeps the family registered: re-requesting the same name+labels later
// creates a fresh zero-valued instrument. Holders of the old instrument
// pointer may keep updating it harmlessly — it is simply no longer
// rendered. A nil registry or unknown family/series is a no-op.
func (r *Registry) Unregister(name string, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return
	}
	key := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[key]; !ok {
		return
	}
	delete(f.series, key)
	for i, l := range f.order {
		if l == key {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

// DefaultDurationBuckets are upper bounds in seconds suited to solver
// phase and job durations (1ms … ~2min).
var DefaultDurationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 30, 120}

// Histogram returns (creating if needed) the histogram name with the
// given bucket upper bounds (nil: DefaultDurationBuckets) and label
// pairs. Bounds are fixed by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultDurationBuckets
	}
	f := r.family(name, help, "histogram", nil)
	return f.get(labelString(labels), func() metric {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds))
		return h
	}).(*Histogram)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.add(v)
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := fmt.Sprintf("le=%q", formatFloat(b))
		writeSample(w, name+"_bucket", joinLabels(labels, le), float64(cum))
	}
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(h.count.Load()))
	writeSample(w, name+"_sum", labels, h.sum.load())
	writeSample(w, name+"_count", labels, float64(h.count.Load()))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%g", v)
	}
	return fmt.Sprintf("%v", v)
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
	} else {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	}
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name, series in insertion order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		read := f.read
		series := make([]string, len(f.order))
		copy(series, f.order)
		metrics := make([]metric, len(series))
		for i, labels := range series {
			metrics[i] = f.series[labels]
		}
		f.mu.Unlock()
		var samples []Sample
		if read != nil {
			if samples = read(); len(samples) == 0 {
				continue
			}
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range samples {
			writeSample(w, f.name, s.Labels, s.Value)
		}
		for i, labels := range series {
			metrics[i].write(w, f.name, labels)
		}
	}
}
