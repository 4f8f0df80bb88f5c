package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/prog"
)

// haFastOpts are coordinator knobs for failover tests: small chunks,
// tight heartbeats, and a journal so the standby has something to
// replicate.
func haFastOpts(t *testing.T, dir string) CoordinatorOptions {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
		JournalPath: filepath.Join(dir, "journal"),
	})
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// waitLeaseHolder polls until the lease file names the holder.
func waitLeaseHolder(t *testing.T, path, holder string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, exists, err := ReadLease(path)
		if err == nil && exists && st.Holder == holder && !st.Expired(time.Now()) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("lease at %s never held by %s", path, holder)
}

// The tentpole end-to-end scenario: the primary is killed mid-run with
// no farewell, the standby takes over from its live-replicated journal,
// and the worker — one Work call, never restarted — re-homes to the
// standby and finishes the run. The verdict matches a failure-free run
// (this program is Safe in 4/4 chunks) and every decided chunk is in
// the standby's journal, certified.
func TestHAFailoverOnKilledPrimary(t *testing.T) {
	p := prog.MustParse(fibSrc)
	dir := t.TempDir()
	leasePath := filepath.Join(dir, "lease.json")
	lnA, lnB := listen(t), listen(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()

	optsA := haFastOpts(t, filepath.Join(dir, "a"))
	optsA.Faults = &CoordinatorFaultPlan{KillAfterJobs: 2}
	optsA.Metrics = obs.NewRegistry()
	optsB := haFastOpts(t, filepath.Join(dir, "b"))
	optsB.Metrics = obs.NewRegistry()
	stateB := &HAState{}

	haA := HAOptions{LeasePath: leasePath, Holder: "alpha", Addr: addrA, LeaseTTL: 400 * time.Millisecond}
	haB := HAOptions{LeasePath: leasePath, Holder: "beta", Addr: addrB, LeaseTTL: 400 * time.Millisecond, State: stateB}

	ctx := context.Background()
	errA := make(chan error, 1)
	go func() {
		_, err := RunHA(ctx, lnA, p, optsA, haA)
		errA <- err
	}()
	// B must start as standby, so wait until A holds the lease.
	waitLeaseHolder(t, leasePath, "alpha")
	type outcome struct {
		res *CoordinatorResult
		err error
	}
	resB := make(chan outcome, 1)
	go func() {
		res, err := RunHA(ctx, lnB, p, optsB, haB)
		resB <- outcome{res, err}
	}()

	// One worker, both endpoints, one call: zero restarts by construction.
	jobs, werr := Work(ctx, addrA+","+addrB, WorkerOptions{
		Name: "w0", MaxReconnects: 10,
		ReconnectBackoff: 25 * time.Millisecond,
		ReconnectTimeout: 60 * time.Second,
	})
	if werr != nil {
		t.Fatalf("worker: %v (after %d jobs)", werr, jobs)
	}
	if jobs < 2 {
		t.Fatalf("worker completed %d jobs, want >= 2 (it must have served both primaries)", jobs)
	}

	if err := <-errA; !errors.Is(err, ErrPrimaryKilled) {
		t.Fatalf("primary A returned %v, want ErrPrimaryKilled", err)
	}
	var b outcome
	select {
	case b = <-resB:
	case <-time.After(60 * time.Second):
		t.Fatal("standby never finished the run")
	}
	if b.err != nil {
		t.Fatalf("standby: %v", b.err)
	}
	if b.res.Verdict != core.Safe {
		t.Fatalf("standby verdict %v, want Safe (same as a failure-free run)", b.res.Verdict)
	}
	if b.res.ChunksDecided != 4 {
		t.Fatalf("chunks decided %d, want 4", b.res.ChunksDecided)
	}
	if b.res.Resumed+b.res.Jobs != 4 {
		t.Fatalf("resumed %d + jobs %d != 4: the standby must re-solve exactly what was not replicated",
			b.res.Resumed, b.res.Jobs)
	}

	// The standby really promoted: epoch 2, role primary, one failover.
	role, epoch, _ := stateB.Role()
	if role != RolePrimary || epoch != 2 {
		t.Fatalf("standby state role=%s epoch=%d, want primary at epoch 2", role, epoch)
	}
	if got := optsB.Metrics.Counter("parbmc_coordinator_failovers_total", "").Value(); got != 1 {
		t.Fatalf("failovers counter %d, want 1", got)
	}

	// The promoted journal is complete and certified: 4 records, all
	// chunks, every definite verdict carrying a verified certificate.
	m, recs, err := journal.Read(optsB.JournalPath)
	if err != nil {
		t.Fatalf("read standby journal: %v", err)
	}
	if m.Partitions != 4 {
		t.Fatalf("journal manifest %+v", m)
	}
	if len(recs) != 4 {
		t.Fatalf("standby journal has %d records, want 4", len(recs))
	}
	seen := map[int]bool{}
	for _, rec := range recs {
		if rec.Verdict != sat.Unsat.String() || !rec.Certified {
			t.Fatalf("journal record %+v, want certified UNSAT", rec)
		}
		seen[rec.From] = true
	}
	if len(seen) != 4 {
		t.Fatalf("journal covers chunks %v, want all 4", seen)
	}

	// The failover instruments render on a real /metrics endpoint, not
	// just through the in-process registry handles.
	srvB := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: optsB.Metrics}))
	defer srvB.Close()
	bodyB := scrape(t, srvB.URL)
	if v, ok := metricValue(bodyB, "parbmc_coordinator_failovers_total"); !ok || v != 1 {
		t.Fatalf("scraped failovers: got %v (present %v), want 1\n%s", v, ok, bodyB)
	}
	if v, ok := metricValue(bodyB, "parbmc_standby_replicated_records"); !ok || v < 1 {
		t.Fatalf("scraped standby replicated records: got %v (present %v), want >= 1", v, ok)
	}
	srvA := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: optsA.Metrics}))
	defer srvA.Close()
	if _, ok := metricValue(scrape(t, srvA.URL), "parbmc_replication_lag_records"); !ok {
		t.Fatal("primary never exposed parbmc_replication_lag_records for its standby")
	}
}

// fakeCoordinator accepts one connection, answers hello with the given
// welcome, and then closes.
func fakeCoordinator(t *testing.T, welcome *Message) string {
	t.Helper()
	ln := listen(t)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				wc := newConn(c, 5*time.Second)
				defer wc.close()
				if m, err := wc.recv(5 * time.Second); err != nil || m.Type != "hello" {
					return
				}
				_ = wc.send(welcome)
			}()
		}
	}()
	return ln.Addr().String()
}

// Split-brain fence: once a worker has served epoch 5, a revived
// coordinator presenting epoch 3 is refused outright — the session
// fails with ErrStaleEpoch rather than accepting stale work.
func TestWorkerRefusesStaleEpoch(t *testing.T) {
	high := fakeCoordinator(t, &Message{Type: "welcome", Role: RolePrimary, Epoch: 5})
	low := fakeCoordinator(t, &Message{Type: "welcome", Role: RolePrimary, Epoch: 3})
	_, err := Work(context.Background(), high+","+low, WorkerOptions{
		Name: "w0", MaxReconnects: 1, ReconnectBackoff: 5 * time.Millisecond,
	})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err %v, want ErrStaleEpoch", err)
	}
}

// A worker that reaches only standbys keeps probing without burning
// MaxReconnects, and ReconnectTimeout is what finally bounds it.
func TestWorkerStandbyOnlyBoundedByReconnectTimeout(t *testing.T) {
	standby := fakeCoordinator(t, &Message{Type: "welcome", Role: RoleStandby, Epoch: 1})
	start := time.Now()
	_, err := Work(context.Background(), standby, WorkerOptions{
		Name: "w0", MaxReconnects: 1,
		ReconnectBackoff: 5 * time.Millisecond,
		ReconnectTimeout: 300 * time.Millisecond,
	})
	if err == nil || !errors.Is(err, errStandby) {
		t.Fatalf("err %v, want the reconnect budget to expire on errStandby", err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond || elapsed > 10*time.Second {
		t.Fatalf("gave up after %v, want just past the 300ms budget", elapsed)
	}
}

// Half-open connection: the socket stays up but the worker's
// heartbeats and result silently vanish. The heartbeat grace — not the
// 10-minute job timeout — must evict the connection, and the run
// completes after the worker reconnects.
func TestHalfOpenEvictedByHeartbeatGrace(t *testing.T) {
	p := prog.MustParse(fibSrc)
	opts := fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 1,
	})
	opts.JobTimeout = 10 * time.Minute // must never be what fires here
	addr, resCh := startCoordinator(t, p, opts)
	start := time.Now()
	jobs, err := Work(context.Background(), addr, WorkerOptions{
		Name: "flaky", MaxReconnects: 5,
		ReconnectBackoff: 20 * time.Millisecond,
		Faults:           &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultHalfOpen}}},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	res := waitResult(t, resCh)
	if res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if res.Reassigned < 1 {
		t.Fatalf("reassigned %d, want >= 1 (the muted job's chunk)", res.Reassigned)
	}
	if elapsed := time.Since(start); elapsed >= opts.JobTimeout {
		t.Fatalf("run took %v: JobTimeout fired instead of HeartbeatGrace", elapsed)
	}
	var flaky *WorkerHealth
	for i := range res.Workers {
		if res.Workers[i].Name == "flaky" {
			flaky = &res.Workers[i]
		}
	}
	if flaky == nil || flaky.Failures < 1 {
		t.Fatalf("worker health %+v, want a recorded eviction", res.Workers)
	}
	_ = jobs
}

// A replication stream that breaks — a frame failing its wire CRC, a
// record before the manifest, a second manifest — is abandoned without
// poisoning the local replica: it holds the manifest and the records
// applied before the bad message and nothing after it, a journal the
// standby can cold-resume from. Each stream goes on past the bad
// message, so a standby that kept applying would be caught.
func TestStandbyAbandonsCorruptReplicationStream(t *testing.T) {
	man := journal.Manifest{
		ProgramSHA256: journal.HashProgram("prog"),
		Unwind:        1, Contexts: 3, Partitions: 4,
		From: 0, To: 4, ChunkSize: 1,
	}
	manifest := &Message{Type: "replicate", Manifest: &man}
	rec := func(from int) *Message {
		return &Message{Type: "replicate", Seq: from + 1, Record: &journal.ChunkRecord{
			From: from, To: from, Verdict: sat.Unsat.String(), Winner: -1, Certified: true,
		}}
	}
	send := func(m *Message) func(*conn) error { return func(wc *conn) error { return wc.send(m) } }
	// corrupt frames rec(1) as conn.send does, under a checksum it fails.
	corrupt := func(wc *conn) error {
		data, err := json.Marshal(rec(1))
		if err != nil {
			return err
		}
		return wc.sendRaw(fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(data, wireTable)^1, data))
	}
	cases := []struct {
		name   string
		stream []func(*conn) error
		want   []int // the replica's records, by From; nil: no replica at all
	}{
		{"wire CRC mismatch", []func(*conn) error{send(manifest), send(rec(0)), corrupt, send(rec(2))}, []int{0}},
		{"record before manifest", []func(*conn) error{send(rec(0)), send(manifest)}, nil},
		{"second manifest", []func(*conn) error{send(manifest), send(rec(0)), send(manifest), send(rec(1))}, []int{0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "journal")
			tailScripted(t, jpath, c.stream)
			if c.want == nil {
				if _, err := os.Stat(jpath); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("stat replica: %v, want no replica from a stream without a manifest", err)
				}
				return
			}
			gotMan, recs, err := journal.Read(jpath)
			if err != nil {
				t.Fatalf("replica is not a readable journal: %v", err)
			}
			if gotMan != man {
				t.Fatalf("replica manifest %+v, want %+v", gotMan, man)
			}
			var froms []int
			for _, r := range recs {
				froms = append(froms, r.From)
			}
			if !slices.Equal(froms, c.want) {
				t.Fatalf("replica records %+v, want those of chunks %v, applied before the bad message", recs, c.want)
			}
			// And it cold-resumes: Open accepts it and counts the commits.
			j, err := journal.Open(jpath, man)
			if err != nil {
				t.Fatalf("cold resume from replica: %v", err)
			}
			defer j.Close()
			if j.Commits() != len(c.want) {
				t.Fatalf("resumed commits %d, want %d", j.Commits(), len(c.want))
			}
		})
	}
}

// tailScripted runs tailPrimary against a fake primary that welcomes the
// standby and plays stream to it, and waits for tailPrimary to return.
func tailScripted(t *testing.T, jpath string, stream []func(*conn) error) {
	t.Helper()
	ln := listen(t)
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		wc := newConn(c, 5*time.Second)
		defer wc.close()
		if m, err := wc.recv(5 * time.Second); err != nil || m.Type != "hello" || m.Role != RoleStandby {
			return
		}
		_ = wc.send(&Message{Type: "welcome", Role: RolePrimary, Epoch: 1})
		for _, step := range stream {
			_ = step(wc)
		}
		// Keep the conn open: tailPrimary must walk away on its own.
		for {
			if _, err := wc.recv(5 * time.Second); err != nil {
				return
			}
		}
	}()
	ha := HAOptions{
		LeasePath: filepath.Join(filepath.Dir(jpath), "lease.json"),
		Holder:    "beta", StandbyPoll: 100 * time.Millisecond, State: &HAState{},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tailPrimary(context.Background(), ln.Addr().String(), jpath, ha)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("tailPrimary did not abandon the broken stream")
	}
}
