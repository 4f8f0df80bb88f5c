package runflags

import (
	"net"
	"strings"
	"testing"
	"time"
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
