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

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
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

// olderJob is a job frame as a build from before the worker ran no front
// end declared it: the program's source beside the run manifest's keys,
// and a cube path in place of the cube's literals.
type olderJob struct {
	Type               string `json:"type"`
	JobID              int    `json:"job_id,omitempty"`
	Source             string `json:"source,omitempty"`
	ProgramSHA256      string `json:"program_sha256,omitempty"`
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

// A job frame carries the run manifest, the budget and the cube — its
// range and one list of assumption literals per partition, the path's
// split literals included — and not the program: a worker never sees
// it. The frame's keys are pinned; an old frame, which no template
// precedes, decodes and is refused by the worker, by name — coordinator
// and workers run one build; and a frame's literals are outside input,
// refused when they are no literals of the template's variables.
func TestJobFrameWireCompatible(t *testing.T) {
	p := prog.MustParse(fibSrc)
	opts := CoordinatorOptions{Unwind: 1, Contexts: 3, Partitions: 16, Certify: CertifyPolicy{Mode: CertifyOff}}
	if err := opts.setDefaults(); err != nil {
		t.Fatal(err)
	}
	opts.Budget.Timeout, opts.Budget.Conflicts, opts.Budget.MemMB = time.Minute, 1000, 64
	v, data := derivedVerifier(t, p, opts)
	man := v.prep.Manifest()
	cube := partition.Cube{From: 2, To: 2, Path: "01"}

	t.Run("new frame, old reader", func(t *testing.T) {
		job := jobFor(t, v, opts, cube)
		job.JobID = 3
		wire, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		var got olderJob
		if err := json.Unmarshal(wire, &got); err != nil {
			t.Fatal(err)
		}
		want := olderJob{
			Type: "job", JobID: 3, ProgramSHA256: man.ProgramSHA256, Unwind: 1, Contexts: 3, Width: 8, Partitions: 4,
			From: 2, To: 2, ChunkTimeoutMillis: 60000, ChunkConflicts: 1000, MemBudgetMB: 64, Certify: CertifyFull,
		}
		if got != want {
			t.Fatalf("an old worker reads %+v, want %+v", got, want)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(wire, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"source", "cube_path"} {
			if _, ok := keys[k]; ok {
				t.Errorf("the job frame carries %q: %s", k, wire)
			}
		}
		// The partition's own literal and the two split literals its path
		// fixes, as the coordinator's checks rebuild them.
		lits, err := v.prep.Partitions()[2].CubeAssumptions("01", v.prep.SplitLits())
		if err != nil || len(lits) != 4 {
			t.Fatalf("cube %s: %v, %v", cube.Key(), lits, err)
		}
		if want, _ := json.Marshal([][]cnf.Lit{lits}); string(keys["assume"]) != string(want) {
			t.Fatalf("the job frame assumes %s, want %s", keys["assume"], want)
		}
	})

	old := olderJob{Type: "job", JobID: 1, Source: prog.Format(p), Unwind: 1, Contexts: 3, Partitions: 4, From: 1, To: 1, Certify: CertifyFull}
	oldWire, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("old frame, new worker", func(t *testing.T) {
		var m Message
		if err := json.Unmarshal(oldWire, &m); err != nil {
			t.Fatal(err)
		}
		if m.RunManifest == nil || m.Unwind != 1 || m.Contexts != 3 || m.Partitions != 4 || m.From != 1 || m.To != 1 {
			t.Fatalf("the old frame decodes to %+v (manifest %+v)", m, m.RunManifest)
		}
		// A coordinator of that build sends the job and no template before
		// it: the worker, which builds none, refuses the job and
		// says why.
		reply, cert := (&worker{opts: WorkerOptions{Cores: 1}}).runJob(context.Background(), &m, nil, nil)
		if !strings.Contains(reply.Error, "no solver template") || reply.Verdict != "" || cert != nil {
			t.Fatalf("old frame: verdict %q, error %q, certificate %+v", reply.Verdict, reply.Error, cert)
		}
	})

	t.Run("literals the template does not have", func(t *testing.T) {
		vars := v.prep.Vars()
		for name, edit := range map[string]func(m *Message){
			"literal 0":                func(m *Message) { m.Assume[0][0] = 0 },
			"literal 1":                func(m *Message) { m.Assume[0][0] = 1 },
			"negative literal":         func(m *Message) { m.Assume[0][0] = -4 },
			"a variable past the last": func(m *Message) { m.Assume[0][0] = cnf.PosLit(cnf.Var(vars + 1)) },
			"one list for two":         func(m *Message) { m.To = 3 },
			"two lists for one":        func(m *Message) { m.Assume = append(m.Assume, m.Assume[0]) },
			"a range past the run's":   func(m *Message) { m.From, m.To = 4, 4 },
			"a frame with no manifest": func(m *Message) { m.RunManifest = nil },
		} {
			m := jobFor(t, v, opts, cube)
			edit(m)
			reply, cert := shippedWorker(data).runJob(context.Background(), m, nil, nil)
			if reply.Error == "" || reply.Verdict != "" || cert != nil {
				t.Errorf("%s: verdict %q, error %q, certificate %+v", name, reply.Verdict, reply.Error, cert)
			}
		}
	})

	t.Run("other messages", func(t *testing.T) {
		for _, m := range []*Message{
			{Type: "heartbeat", JobID: 1, Conflicts: 5},
			{Type: "result", JobID: 1, Verdict: sat.Unsat.String(), Winner: -1},
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
