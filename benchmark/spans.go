package main

import "time"

// Span is one timed call into a layer, recorded by the harness around
// the call (nothing inside the program under test is instrumented).
// Start and End are nanoseconds since the recorder was created; Parent
// is the index of the enclosing span in the recorder, -1 for a root.
// Spans of one job share its Job name.
type Span struct {
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Recorder keeps spans in memory; the parent process writes them out
// when the run ends. It is used from one goroutine only.
type Recorder struct {
	t0    time.Time
	Spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *Recorder) begin(name, job string, parent int) int {
	r.Spans = append(r.Spans, Span{Name: name, Job: job, Start: int64(time.Since(r.t0)), Parent: parent})
	return len(r.Spans) - 1
}

// end closes span i and returns its duration.
func (r *Recorder) end(i int) time.Duration {
	r.Spans[i].End = int64(time.Since(r.t0))
	return time.Duration(r.Spans[i].End - r.Spans[i].Start)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children of one span are recorded
// sequentially by the harness, so they never overlap each other.
func selfTimes(spans []Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				self[s.Parent] -= time.Duration(hi - lo)
			}
		}
	}
	return self
}
