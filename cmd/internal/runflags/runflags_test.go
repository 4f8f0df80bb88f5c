package runflags

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

// lineWriter hands every write to a channel, so the test waits on the
// report itself rather than on a clock.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

// A -pprof-addr that cannot be bound must not abort the run, and must
// not pass silently either: Open succeeds, the failure is reported on
// stderr exactly once, and the rest of the recorder works.
func TestPprofBindFailureIsReported(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	stderr := make(lineWriter, 4)
	rec := Recorder{PprofAddr: taken.Addr().String(), ReportOut: t.TempDir() + "/run.report.json"}
	if err := rec.Open("parbmc", stderr); err != nil {
		t.Fatalf("Open aborted on a pprof bind failure: %v", err)
	}
	select {
	case line := <-stderr:
		if !strings.HasPrefix(line, "parbmc: pprof server:") || !strings.Contains(line, taken.Addr().String()) {
			t.Fatalf("stderr %q, want the bind failure for %s", line, taken.Addr())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bind failure never reported")
	}
	if rec.Tracer == nil || rec.Report == nil {
		t.Fatal("the recorder's other parts did not open")
	}
	if !rec.WriteReport() {
		t.Fatal("report not written")
	}
	rec.Close()
	select {
	case line := <-stderr:
		t.Fatalf("reported again: %q", line)
	default:
	}
}

// The lifecycle's exit codes: -h is 0 and a bad flag 2, both after the
// flag package's usage under the name args[0]; a body's error is 2 and
// still leaves a report, which carries it as a warning.
func TestRunExitCodes(t *testing.T) {
	path := t.TempDir() + "/run.report.json"
	failed := errors.New("the body failed")
	for _, c := range []struct {
		args   []string
		code   int
		err    error
		stderr string
	}{
		{[]string{"./bin", "-h"}, 0, nil, "Usage of ./bin:"},
		{[]string{"./bin", "-nope"}, 2, nil, "flag provided but not defined: -nope"},
		{[]string{"./bin", "-report", path}, 2, failed, ""},
	} {
		var stderr strings.Builder
		proc := New("bin", c.args, io.Discard, &stderr)
		proc.Rec.Flags(proc.Flags, RecorderUsage{Report: "report"})
		code, err := proc.Run(context.Background(), func(context.Context) (int, error) { return 0, failed })
		if code != c.code || err != c.err || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%v: exit %d, %v, stderr %q; want %d, %v, %q", c.args, code, err, stderr.String(), c.code, c.err, c.stderr)
		}
	}
	rep, err := report.Load(path)
	if err != nil || len(rep.Warnings) != 1 || rep.Warnings[0] != failed.Error() {
		t.Fatalf("report of the failed body: %+v, %v", rep, err)
	}
}
