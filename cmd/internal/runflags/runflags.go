// Package runflags declares, once, the command-line flag groups that
// parbmc, coordinator, worker and satsolve share — the per-cube budget,
// the split policy, -journal/-resume and the flight recorder — and opens
// and closes the tracer, report recorder, profiler and pprof server
// behind the last group. A flag's name, type, default and destination are fixed
// here; its help text stays with the binary, whose unit of work (a
// partition, a chunk on a worker) it names.
package runflags

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/report"
)

// Budget registers -chunk-timeout, -chunk-conflicts and -mem-budget.
func Budget(fs *flag.FlagSet, b *journal.Budget, timeout, conflicts, mem string) {
	fs.DurationVar(&b.Timeout, "chunk-timeout", 0, timeout)
	fs.Int64Var(&b.Conflicts, "chunk-conflicts", 0, conflicts)
	MemBudget(fs, &b.MemMB, mem)
}

// MemBudget registers -mem-budget alone: satsolve has one solver's
// memory to bound and no chunks.
func MemBudget(fs *flag.FlagSet, mb *int64, usage string) {
	fs.Int64Var(mb, "mem-budget", 0, usage)
}

// Split registers -split-depth, -split-grace and -split-hardness.
func Split(fs *flag.FlagSet, s *partition.SplitPolicy, depth, grace, hardness string) {
	fs.IntVar(&s.Depth, "split-depth", 0, depth)
	fs.DurationVar(&s.Grace, "split-grace", 0, grace)
	fs.Float64Var(&s.Hardness, "split-hardness", 0, hardness)
}

// Journal registers -journal and -resume.
func Journal(fs *flag.FlagSet, path *string, resume *bool, pathUsage, resumeUsage string) {
	fs.StringVar(path, "journal", "", pathUsage)
	fs.BoolVar(resume, "resume", false, resumeUsage)
}

// Recorder is a process's flight recorder: the values of the
// -trace-out, -report, -profile-dir and -pprof-addr flags, and, between
// Open and Close, what they switch on. Each part stays nil — the
// zero-overhead fast path of its type — when its flag is unset.
type Recorder struct {
	TraceOut, ReportOut, ProfileDir, PprofAddr string

	// Tracer writes spans to -trace-out as JSONL and, with -report, also
	// into the report, so the report embeds its own span tree.
	Tracer   *obs.Tracer
	Report   *report.Recorder
	Profiler *obs.Profiler

	proc      string
	stderr    io.Writer
	traceFile *os.File
	spans     *obs.CollectorSink
	pprof     *http.Server
	stop      chan struct{}
	wg        sync.WaitGroup
}

// RecorderUsage holds the help text of the flight-recorder flags; a flag
// whose text is empty is one the binary does not have.
type RecorderUsage struct {
	TraceOut, Report, ProfileDir, PprofAddr string
}

// Flags registers the flight-recorder flags the binary has.
func (r *Recorder) Flags(fs *flag.FlagSet, u RecorderUsage) {
	for _, f := range []struct {
		dst         *string
		name, usage string
	}{
		{&r.TraceOut, "trace-out", u.TraceOut},
		{&r.ReportOut, "report", u.Report},
		{&r.ProfileDir, "profile-dir", u.ProfileDir},
		{&r.PprofAddr, "pprof-addr", u.PprofAddr},
	} {
		if f.usage != "" {
			fs.StringVar(f.dst, f.name, "", f.usage)
		}
	}
}

// Open switches on what the flags ask for, for the process named proc.
// A trace file or profile directory that cannot be created is an error.
// A -pprof-addr that cannot be bound is not: the observability surface
// must not abort a verification run, so the failure is reported on
// stderr, once, when the listener gives up.
func (r *Recorder) Open(proc string, stderr io.Writer) error {
	r.proc, r.stderr = proc, stderr
	if r.ProfileDir != "" {
		var err error
		if r.Profiler, err = obs.NewProfiler(r.ProfileDir, proc); err != nil {
			return err
		}
	}
	if r.PprofAddr != "" {
		var errc <-chan error
		r.pprof, errc = obs.Serve(r.PprofAddr, obs.NewMux(obs.MuxOptions{Pprof: true}))
		r.stop = make(chan struct{})
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			select {
			case err := <-errc:
				fmt.Fprintf(stderr, "%s: pprof server: %v\n", proc, err)
			case <-r.stop:
			}
		}()
	}
	var fileSink, collSink obs.Sink // stay untyped-nil unless their flag is set
	if r.TraceOut != "" {
		var err error
		if r.traceFile, err = os.Create(r.TraceOut); err != nil {
			r.Close()
			return err
		}
		fileSink = obs.NewJSONLSink(r.traceFile)
	}
	if r.ReportOut != "" {
		r.Report = report.NewRecorder()
		r.spans = obs.NewCollectorSink()
		collSink = r.spans
	}
	r.Tracer = obs.NewTracer(obs.MultiSink(fileSink, collSink)).WithProc(proc)
	return nil
}

// ProfileErr surfaces a failed profile capture on stderr; profiling is
// best-effort and never fails the run.
func (r *Recorder) ProfileErr() {
	if err := r.Profiler.Err(); err != nil {
		fmt.Fprintf(r.stderr, "%s: profile capture: %v\n", r.proc, err)
	}
}

// WriteReport completes the -report file with the captured profiles and
// the collected spans and writes it, reporting whether it did; without
// -report it does nothing.
func (r *Recorder) WriteReport() bool {
	if r.Report == nil {
		return false
	}
	var profiles []report.ProfileRecord
	for _, e := range r.Profiler.Entries() {
		profiles = append(profiles, report.ProfileRecord{Phase: e.Phase, Kind: e.Kind, Path: e.Path, Bytes: e.Bytes})
	}
	r.Report.AddProfiles(profiles)
	r.Report.AddSpans(r.spans.Events())
	if err := r.Report.WriteFile(r.ReportOut); err != nil {
		fmt.Fprintf(r.stderr, "%s: write report: %v\n", r.proc, err)
		return false
	}
	return true
}

// Close stops the pprof server and closes the trace file.
func (r *Recorder) Close() {
	if r.pprof != nil {
		r.pprof.Close()
		close(r.stop)
		r.wg.Wait()
		r.pprof = nil
	}
	if r.traceFile != nil {
		r.traceFile.Close()
		r.traceFile = nil
	}
}
