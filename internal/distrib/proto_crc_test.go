package distrib

import (
	"net"
	"strings"
	"testing"
	"time"
)

// pipePair returns two framed ends of an in-memory connection.
func pipePair(t *testing.T) (*conn, *conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return newConn(a, time.Second), newConn(b, time.Second)
}

func TestFrameChecksumRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		_ = ca.send(&Message{Type: "hello", WorkerName: "w", Epoch: 3})
	}()
	m, err := cb.recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != "hello" || m.WorkerName != "w" || m.Epoch != 3 {
		t.Fatalf("message %+v", m)
	}
}

// A frame whose payload no longer matches its checksum must be rejected
// before the JSON decoder ever sees it — even when the payload is
// syntactically valid JSON that would decode into a plausible message.
func TestFrameChecksumRejectsCorruptPayload(t *testing.T) {
	ca, cb := pipePair(t)
	go func() {
		// A valid checksum for a different payload: simulates in-flight
		// bit corruption of the verdict field.
		_ = ca.sendRaw([]byte(`00000000 {"type":"result","job_id":1,"verdict":"UNSAT"}` + "\n"))
	}()
	_, err := cb.recv(5 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("err %v, want checksum mismatch", err)
	}
}

// Frames without the checksum prefix (old peers, garbage injection) are
// rejected with a distinct error.
func TestFrameChecksumRejectsMissingPrefix(t *testing.T) {
	for _, line := range []string{
		`{"type":"hello"}` + "\n",          // bare JSON, no checksum
		"x\n",                              // too short to carry a checksum
		`zzzzzzzz {"type":"hello"}` + "\n", // prefix is not hex
	} {
		ca, cb := pipePair(t)
		go func() { _ = ca.sendRaw([]byte(line)) }()
		_, err := cb.recv(5 * time.Second)
		if err == nil || !strings.Contains(err.Error(), "missing checksum") {
			t.Fatalf("line %q: err %v, want missing-checksum", line, err)
		}
	}
}

func TestVerifyFrameDirect(t *testing.T) {
	payload, err := verifyFrame([]byte("00000000 "))
	if err != nil || len(payload) != 0 {
		t.Fatalf("empty payload: %q, %v", payload, err)
	}
	if _, err := verifyFrame([]byte("deadbeef x")); err == nil {
		t.Fatal("wrong checksum accepted")
	}
}
