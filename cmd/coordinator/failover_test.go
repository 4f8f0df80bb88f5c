package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/sat"
)

// waitForFile polls until path exists and pred over its content holds.
func waitForFile(t *testing.T, path string, timeout time.Duration, pred func([]byte) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && pred(data) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never reached the expected state", path)
}

// Hot-standby failover across real processes: primary and standby
// coordinators share a lease file, one worker knows both addresses,
// and the primary is SIGKILLed mid-run — while results and their
// certificate streams are in flight — after two of four chunks
// committed. The standby must take over from its live-replicated
// journal and finish with the same certified SAFE verdict a
// failure-free run produces, with the single worker process never
// restarting.
func TestHAFailoverAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds binaries")
	}
	dir := t.TempDir()
	coordBin, workerBin := buildBinaries(t, dir)
	progPath := filepath.Join(dir, "fib.mt")
	if err := os.WriteFile(progPath, []byte(fibSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	leasePath := filepath.Join(dir, "lease.json")
	jnlA := filepath.Join(dir, "a.wal")
	jnlB := filepath.Join(dir, "b.wal")
	commonArgs := []string{
		"-i", progPath,
		"-unwind", "1", "-contexts", "3", "-partitions", "4", "-chunk", "1",
		"-lease", leasePath, "-lease-ttl", "1s",
	}

	// Primary A.
	coordA := exec.Command(coordBin, append([]string{
		"-listen", "127.0.0.1:0", "-journal", jnlA, "-holder", "alpha"}, commonArgs...)...)
	outA, err := coordA.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coordA.Stderr = os.Stderr
	if err := coordA.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordA.Process.Kill()
	lcA := capture(outA)
	listenA := lcA.waitLine(t, "listening on", 30*time.Second)
	addrA := strings.Fields(listenA)[3]
	// A must hold the lease before B starts, so roles are deterministic.
	waitForFile(t, leasePath, 30*time.Second, func(data []byte) bool {
		return bytes.Contains(data, []byte(`"holder":"alpha"`))
	})

	// Standby B.
	coordB := exec.Command(coordBin, append([]string{
		"-listen", "127.0.0.1:0", "-journal", jnlB, "-holder", "beta"}, commonArgs...)...)
	outB, err := coordB.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coordB.Stderr = os.Stderr
	if err := coordB.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordB.Process.Kill()
	lcB := capture(outB)
	listenB := lcB.waitLine(t, "listening on", 30*time.Second)
	addrB := strings.Fields(listenB)[3]
	// B's replica file appearing proves the replication stream is live.
	waitForFile(t, jnlB, 30*time.Second, func([]byte) bool { return true })

	// One worker, both addresses, one process for the whole scenario.
	// The stall at job 2 freezes the run with exactly two committed
	// chunks, giving the kill a deterministic window; jobs stream
	// results *and* full certificates, so the SIGKILL lands amid
	// certificate traffic.
	worker := exec.Command(workerBin,
		"-connect", addrA+","+addrB, "-name", "w0",
		"-reconnect", "20", "-backoff", "50ms", "-reconnect-timeout", "60s",
		"-fault-stall", "2", "-stall-for", "3s")
	var wout bytes.Buffer
	worker.Stdout = &wout
	worker.Stderr = os.Stderr
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	defer worker.Process.Kill()

	// Wait for two durable records on the primary, then SIGKILL it: no
	// stop messages, no journal close, no lease release.
	waitUntil := time.Now().Add(60 * time.Second)
	for {
		if _, recs, err := journal.Read(jnlA); err == nil && len(recs) >= 2 {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("primary journal never reached 2 committed chunks")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := coordA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = coordA.Wait()

	// The standby must promote and finish the run on its own.
	if err := coordB.Wait(); err != nil {
		t.Fatalf("standby coordinator: %v\n%s", err, lcB.text())
	}
	if err := worker.Wait(); err != nil {
		t.Fatalf("worker (must survive the failover without restarting): %v\n%s", err, wout.String())
	}

	out := lcB.text()
	if !strings.Contains(out, "verdict: SAFE") {
		t.Fatalf("failover verdict differs from a failure-free run:\n%s", out)
	}
	if !strings.Contains(out, "coverage: 4/4 chunks decided") {
		t.Fatalf("standby did not decide all chunks:\n%s", out)
	}
	if !strings.Contains(out, "0 certificates rejected") {
		t.Fatalf("certification line missing or rejections recorded:\n%s", out)
	}
	if !strings.Contains(wout.String(), "done,") {
		t.Fatalf("worker did not end with a clean stop:\n%s", wout.String())
	}

	// The promoted journal is consistent and fully certified: all four
	// chunks, every verdict SAFE with a verified certificate.
	m, recs, err := journal.Read(jnlB)
	if err != nil {
		t.Fatalf("standby journal: %v", err)
	}
	if m.Partitions != 4 {
		t.Fatalf("standby journal manifest %+v", m)
	}
	if len(recs) != 4 {
		t.Fatalf("standby journal has %d records, want 4:\n%+v", len(recs), recs)
	}
	seen := map[int]bool{}
	for _, rec := range recs {
		if rec.Verdict != sat.Unsat.String() || !rec.Certified {
			t.Fatalf("record %+v, want certified UNSAT", rec)
		}
		seen[rec.From] = true
	}
	if len(seen) != 4 {
		t.Fatalf("journal covers %v, want all 4 chunks", seen)
	}
}
