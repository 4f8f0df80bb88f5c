// Package runflags runs the process around the four binaries — parbmc,
// coordinator, worker and satsolve: it parses their flags, turns SIGINT
// and SIGTERM into the run's context, opens and closes the flight
// recorder and writes the run report whatever the outcome. It also
// declares, once, the flag groups they share — the per-cube budget, the
// split policy, -journal/-resume and the flight recorder. A flag's name,
// type, default and destination are fixed here; its help text stays with
// the binary, whose unit of work (a partition, a chunk on a worker) it
// names.
package runflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/report"
)

// Main runs a binary under a context that SIGINT and SIGTERM cancel —
// SIGTERM, the polite kill, stops a run the way Ctrl-C does — and
// returns the exit code run returns, or 2 after printing run's error as
// "<name>: <err>" on stderr.
func Main(name string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error)) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 2
	}
	return code
}

// Process is one run of a binary: its flags, its flight recorder and
// where it prints.
type Process struct {
	Name           string
	Flags          *flag.FlagSet
	Rec            Recorder
	Stdout, Stderr io.Writer
	// ReportLine prints "<Name>: run report written to <path>" on Stdout
	// once the -report file is written.
	ReportLine bool

	args     []string
	reported bool
}

// New starts a process for args. Its flag set is named args[0], so that
// -h prints "Usage of <args[0]>:".
func New(name string, args []string, stdout, stderr io.Writer) *Process {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Process{Name: name, Flags: fs, Stdout: stdout, Stderr: stderr, args: args[1:]}
}

// Run parses the arguments, opens the recorder, runs body, writes the
// report — with body's error as a warning — and closes the recorder. It
// returns body's exit code, or 2 with body's error. -h returns 0 and a
// bad flag 2, after the flag package has printed the usage.
func (p *Process) Run(ctx context.Context, body func(context.Context) (int, error)) (int, error) {
	if err := p.Flags.Parse(p.args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}
	if err := p.Rec.Open(p.Name, p.Stderr); err != nil {
		return 2, err
	}
	defer p.Rec.Close()
	code, err := body(ctx)
	// Profiling is best-effort and never fails the run.
	if perr := p.Rec.Profiler.Err(); perr != nil {
		fmt.Fprintf(p.Stderr, "%s: profile capture: %v\n", p.Name, perr)
	}
	if err != nil {
		code = 2
		p.Rec.Report.Warn(err.Error())
	}
	p.WriteReport()
	return code, err
}

// WriteReport writes the -report file, once: Run does whatever the
// outcome, and a body that prints after it may do it first.
func (p *Process) WriteReport() {
	if !p.reported && p.Rec.WriteReport() && p.ReportLine {
		fmt.Fprintf(p.Stdout, "%s: run report written to %s\n", p.Name, p.Rec.ReportOut)
	}
	p.reported = true
}

// Serve serves h on addr until stop is called. A failed bind does not
// abort the run — the observability surface must not abort a
// verification — but is reported on stderr, once, as
// "<proc>: <what> server: <err>".
func Serve(addr string, h http.Handler, proc, what string, stderr io.Writer) (stop func()) {
	srv, errc := obs.Serve(addr, h)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		select {
		case err := <-errc:
			fmt.Fprintf(stderr, "%s: %s server: %v\n", proc, what, err)
		case <-quit:
		}
	}()
	return func() {
		srv.Close()
		close(quit)
		<-done
	}
}

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

// Split registers -split-depth and -split-grace.
func Split(fs *flag.FlagSet, s *partition.SplitPolicy, depth, grace string) {
	fs.IntVar(&s.Depth, "split-depth", 0, depth)
	fs.DurationVar(&s.Grace, "split-grace", 0, grace)
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
	stopPprof func()
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
// A trace file or profile directory that cannot be created is an error;
// a -pprof-addr that cannot be bound is reported on stderr (see Serve).
func (r *Recorder) Open(proc string, stderr io.Writer) error {
	r.proc, r.stderr = proc, stderr
	if r.ProfileDir != "" {
		var err error
		if r.Profiler, err = obs.NewProfiler(r.ProfileDir, proc); err != nil {
			return err
		}
	}
	if r.PprofAddr != "" {
		r.stopPprof = Serve(r.PprofAddr, obs.NewMux(obs.MuxOptions{Pprof: true}), proc, "pprof", stderr)
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
	if r.stopPprof != nil {
		r.stopPprof()
		r.stopPprof = nil
	}
	if r.traceFile != nil {
		r.traceFile.Close()
		r.traceFile = nil
	}
}
