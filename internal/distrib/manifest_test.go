package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/prog"
)

// Asked for more partitions than the encoding supports (unwind 1,
// contexts 3: at most 4), both executors run the 4 there are: core.Verify
// and Coordinate answer SAFE over 4 chunks, certified or not, and their
// journals pin the same run — bounds defaulted alike, Width left unset
// here — but for the chunk size and the range, which are each executor's
// own.
func TestCappedPartitionCountAgreesAcrossExecutors(t *testing.T) {
	p := prog.MustParse(fibSrc)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.wal")
	local, err := core.Verify(context.Background(), p, core.Options{Unwind: 1, Contexts: 3, Partitions: 16, JournalPath: localPath})
	if err != nil || local.Verdict != core.Safe || local.Partitions != 4 {
		t.Fatalf("in process: %+v, %v; want SAFE over 4 partitions", local, err)
	}
	lm, _, err := journal.Read(localPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{CertifyFull, CertifyOff} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(dir, mode+".wal")
			addr, resCh := startCoordinator(t, p, fastFailureOpts(CoordinatorOptions{
				Unwind: 1, Contexts: 3, Partitions: 16, ChunkSize: 1,
				Certify: CertifyPolicy{Mode: mode}, JournalPath: path,
			}))
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// A worker that dials after the run ended is not this test's business.
					_, _ = Work(context.Background(), addr, WorkerOptions{Name: fmt.Sprintf("w%d", i), Cores: 1})
				}()
			}
			res := waitResult(t, resCh)
			wg.Wait()
			if res.Verdict != core.Safe || res.ChunksTotal != 4 || res.ChunksDecided != 4 || res.Drained {
				t.Fatalf("verdict %v, %d/%d chunks decided, drained %v; want SAFE over 4 chunks",
					res.Verdict, res.ChunksDecided, res.ChunksTotal, res.Drained)
			}
			cm, _, err := journal.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if cm.Partitions != 4 || cm.ChunkSize != 1 {
				t.Fatalf("coordinator's journal manifest %+v: want 4 partitions in chunks of 1", cm)
			}
			cm.ChunkSize, cm.From, cm.To = lm.ChunkSize, lm.From, lm.To
			if cm != lm {
				t.Fatalf("journal manifests disagree: coordinator %+v, core %+v", cm, lm)
			}
		})
	}
}

// olderJob is a job frame as a build from before the run manifest
// declared it, keys and all.
type olderJob struct {
	Type               string `json:"type"`
	JobID              int    `json:"job_id,omitempty"`
	Source             string `json:"source,omitempty"`
	Unwind             int    `json:"unwind,omitempty"`
	Contexts           int    `json:"contexts,omitempty"`
	Width              int    `json:"width,omitempty"`
	Partitions         int    `json:"partitions,omitempty"`
	From               int    `json:"from"`
	To                 int    `json:"to"`
	CubePath           string `json:"cube_path,omitempty"`
	ChunkTimeoutMillis int64  `json:"chunk_timeout_millis,omitempty"`
	ChunkConflicts     int64  `json:"chunk_conflicts,omitempty"`
	MemBudgetMB        int64  `json:"mem_budget_mb,omitempty"`
	Certify            string `json:"certify,omitempty"`
}

// The job frame carries the run manifest without changing the wire:
// either side of that change reads the other's job frames with the same
// values, no other message grows a manifest key, and the replication
// stream's manifest keeps its key. What did change the wire is the
// template: an old frame, which no template precedes, decodes and is
// refused by the worker, by name — coordinator and workers run one
// build.
func TestJobFrameWireCompatible(t *testing.T) {
	p := prog.MustParse(fibSrc)
	source := prog.Format(p)
	opts := CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 16, Certify: CertifyPolicy{Mode: CertifyOff}}
	if err := opts.setDefaults(); err != nil {
		t.Fatal(err)
	}
	opts.Budget.Timeout, opts.Budget.Conflicts, opts.Budget.MemMB = time.Minute, 1000, 64
	prep, err := prepareRun(p, &opts)
	if err != nil {
		t.Fatal(err)
	}
	man := prep.Manifest()

	t.Run("new frame, old reader", func(t *testing.T) {
		job := jobFrame(&opts, man, source)
		job.JobID, job.From, job.To, job.CubePath, job.Certify = 3, 2, 2, "01", CertifyFull
		data, err := json.Marshal(&job)
		if err != nil {
			t.Fatal(err)
		}
		var got olderJob
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		want := olderJob{
			Type: "job", JobID: 3, Source: source, Unwind: 1, Contexts: 3, Width: 8, Partitions: 4,
			From: 2, To: 2, CubePath: "01", ChunkTimeoutMillis: 60000, ChunkConflicts: 1000, MemBudgetMB: 64,
			Certify: CertifyFull,
		}
		if got != want {
			t.Fatalf("an old worker reads %+v, want %+v", got, want)
		}
	})

	old := olderJob{Type: "job", JobID: 1, Source: source, Unwind: 1, Contexts: 3, Partitions: 4, From: 1, To: 1, Certify: CertifyFull}
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("old frame, new worker", func(t *testing.T) {
		var m Message
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.RunManifest == nil || m.Unwind != 1 || m.Contexts != 3 || m.Partitions != 4 || m.From != 1 || m.To != 1 {
			t.Fatalf("the old frame decodes to %+v (manifest %+v)", m, m.RunManifest)
		}
		// A coordinator of that build sends the job and no template before
		// it: the worker, which builds none, refuses the job and
		// says why.
		reply, cert := (&worker{opts: WorkerOptions{Cores: 1}}).runJob(context.Background(), &m, nil, nil, nil)
		if !strings.Contains(reply.Error, "no solver template") || reply.Verdict != "" || cert != nil {
			t.Fatalf("old frame: verdict %q, error %q, certificate %+v", reply.Verdict, reply.Error, cert)
		}
	})

	t.Run("a hash that is not the source's", func(t *testing.T) {
		var m Message
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		m.ProgramSHA256 = journal.HashProgram("another program")
		reply, cert := (&worker{opts: WorkerOptions{Cores: 1}}).runJob(context.Background(), &m, nil, nil, nil)
		if !strings.Contains(reply.Error, "names program") || cert != nil {
			t.Fatalf("a frame naming another program ran: %+v", reply)
		}
	})

	t.Run("other messages", func(t *testing.T) {
		for _, m := range []*Message{
			{Type: "heartbeat", JobID: 1, Conflicts: 5},
			{Type: "result", JobID: 1, Verdict: core.Safe.String(), Winner: -1},
			{Type: "replicate", Manifest: &man},
		} {
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(data, &keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"program_sha256", "unwind", "contexts", "width", "partitions", "chunk_size"} {
				if _, ok := keys[k]; ok {
					t.Errorf("a %s message carries the job key %q: %s", m.Type, k, data)
				}
			}
			var back Message
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if back.RunManifest != nil {
				t.Errorf("a %s message decodes with a run manifest: %s", m.Type, data)
			}
			if m.Type == "replicate" && (back.Manifest == nil || *back.Manifest != man) {
				t.Errorf("the replication stream's first message lost its manifest under the key \"manifest\": %s", data)
			}
		}
	})
}
