package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/sat"
	"repro/internal/weakmem"
	"repro/prog"
)

// JobRow is what a child reports for one job. Det holds counters that
// must be identical on every run of the same code, whatever the seed;
// Layers holds timings and other measured values. Keys are per-layer
// metric names, plus a few helper keys the parent derives ratios from.
type JobRow struct {
	Job     string  `json:"job"`
	Verdict string  `json:"verdict"`
	WallS   float64 `json:"wall_s"`
	// Fail is empty for a job that succeeded; the oracle check is added
	// by the parent, so the child never needs expected.json.
	Fail   string             `json:"fail,omitempty"`
	Det    map[string]float64 `json:"det"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// PassResult is the single JSON document a child prints.
type PassResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Pass     int      `json:"pass"`
	Traced   bool     `json:"traced"`
	Jobs     []JobRow `json:"jobs"`
	Spans    []Span   `json:"spans,omitempty"`
}

// runPass executes one pass of a workload in this process: the timed,
// untraced form calls only the top-level entry points; the traced form
// walks the same pipeline one public call per layer (walk.go).
func runPass(w Workload, smoke bool, seed int64, pass int, traced bool) (*PassResult, error) {
	jobs, err := passJobs(w, smoke, seed, pass)
	if err != nil {
		return nil, err
	}
	// Source texts are the generated inputs; making them is not part of
	// any job's time.
	srcs := make([]string, len(jobs))
	for i, j := range jobs {
		if srcs[i], err = programSource(j.Prog); err != nil {
			return nil, err
		}
	}
	scratch, err := os.MkdirTemp("", fmt.Sprintf("pbench-%d-%d-", seed, pass))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	res := &PassResult{Workload: w.Name, Seed: seed, Pass: pass, Traced: traced}
	var rec *Recorder
	if traced {
		rec = newRecorder()
	}
	for i, j := range jobs {
		var row JobRow
		switch {
		case w.Distrib:
			row = runDistribJob(j, srcs[i], w.Workers, scratch, rec)
		case traced:
			row = walkJob(j, srcs[i], w.Workers, rec)
		default:
			row = runJob(j, srcs[i], w.Workers)
		}
		res.Jobs = append(res.Jobs, row)
		// Collect between jobs, off the clock: the tool runs one analysis
		// per process, so a job must not inherit the previous job's
		// garbage — it would make memory and GC work depend on job order.
		runtime.GC()
	}
	if rec != nil {
		res.Spans = rec.Spans
	}
	return res, nil
}

// runJob is source text → verdict through prog.Parse + core.Verify,
// exactly as cmd/parbmc drives them.
func runJob(j Job, src string, workers int) JobRow {
	row := JobRow{Job: j.Name, Det: map[string]float64{}}
	start := time.Now()
	res, err := func() (*core.Result, error) {
		p, err := prog.Parse(src)
		if err != nil {
			return nil, err
		}
		if j.TSO > 0 {
			if p, err = weakmem.TransformTSO(p, j.TSO); err != nil {
				return nil, err
			}
		}
		return core.Verify(context.Background(), p, core.Options{
			Unwind: j.Unwind, Contexts: j.Contexts, Partitions: j.Partitions, Cores: workers,
		})
	}()
	row.WallS = time.Since(start).Seconds()
	if err != nil {
		row.Verdict, row.Fail = "ERROR", err.Error()
		return row
	}
	row.Verdict = res.Verdict.String()
	if res.Verdict == core.Unsafe && res.Violation == nil {
		row.Fail = "UNSAFE without a replayed violation"
	}
	row.Det["vc.vars"] = float64(res.Vars)
	row.Det["vc.clauses"] = float64(res.Clauses)
	row.Det["partition.count"] = float64(res.Partitions)
	// With more than one partition a SAT answer cancels the siblings at
	// a point that depends on timing, so only complete refutations (and
	// single-instance runs) have repeatable search counters.
	if res.Verdict == core.Safe || len(res.Instances) == 1 {
		satCounters(row.Det, res.Instances)
	}
	return row
}

// satCounters sums the instances' search counters; the peak footprint
// is the largest instance's, since it is a level, not a total.
func satCounters(det map[string]float64, instances []parallel.InstanceResult) {
	var st sat.Stats
	var peak int64
	for _, in := range instances {
		st.Add(in.Stats)
		peak = max(peak, in.Stats.PeakMemBytes)
	}
	searchCounters(det, st)
	det["sat.peak_bytes"] = float64(peak)
}

func searchCounters(det map[string]float64, st sat.Stats) {
	det["sat.conflicts"] = float64(st.Conflicts)
	det["sat.propagations"] = float64(st.Propagations)
	det["sat.decisions"] = float64(st.Decisions)
	det["sat.restarts"] = float64(st.Restarts)
	det["sat.learnt_deleted"] = float64(st.LearntDeleted)
}

// runDistribJob is source text → verdict through a coordinator and
// `workers` one-core workers in this process, talking over real
// 127.0.0.1 TCP: chunk size 1, no splitting, no hedging, so the job
// list — and with it every counter — is the same on every run. With a
// recorder, one span is put around the whole run; the distributed layer
// is otherwise measured by the counts it returns itself.
func runDistribJob(j Job, src string, workers int, scratch string, rec *Recorder) JobRow {
	row := JobRow{Job: j.Name, Det: map[string]float64{}, Layers: map[string]float64{}}
	opts := distrib.CoordinatorOptions{
		Unwind: j.Unwind, Contexts: j.Contexts, Partitions: j.Partitions, ChunkSize: 1,
		Certify: distrib.CertifyPolicy{Mode: distrib.CertifyFull},
	}
	if j.NoCert {
		opts.Certify.Mode = distrib.CertifyOff
	} else {
		opts.JournalPath = filepath.Join(scratch, j.Name+".wal")
	}
	span := -1
	if rec != nil {
		span = rec.begin("distrib.coordinate_work", j.Name, -1)
	}
	start := time.Now()
	res, err := func() (*distrib.CoordinatorResult, error) {
		p, err := prog.Parse(src)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		workErrs := make([]error, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, workErrs[i] = distrib.Work(ctx, ln.Addr().String(), distrib.WorkerOptions{
					Name: fmt.Sprintf("w%d", i), Cores: 1,
				})
			}(i)
		}
		res, err := distrib.Coordinate(ctx, ln, p, opts)
		if err != nil {
			cancel() // a failed coordinator must not leave workers dialling
		}
		wg.Wait()
		if err != nil {
			return nil, err
		}
		for _, werr := range workErrs {
			if werr != nil {
				return nil, fmt.Errorf("worker: %w", werr)
			}
		}
		return res, nil
	}()
	row.WallS = time.Since(start).Seconds()
	if rec != nil {
		rec.end(span)
	}
	if err != nil {
		row.Verdict, row.Fail = "ERROR", err.Error()
		return row
	}
	row.Verdict = res.Verdict.String()
	switch {
	case !j.NoCert && res.Certified < res.ChunksTotal:
		row.Fail = fmt.Sprintf("%d of %d chunks certified", res.Certified, res.ChunksTotal)
	case res.CertRejected > 0:
		row.Fail = fmt.Sprintf("%d certificates rejected", res.CertRejected)
	case res.Reassigned > 0:
		row.Fail = fmt.Sprintf("%d chunks reassigned", res.Reassigned)
	case len(res.Quarantined) > 0:
		row.Fail = fmt.Sprintf("%d chunks quarantined", len(res.Quarantined))
	}
	row.Det["partition.count"] = float64(res.ChunksTotal)
	row.Det["distrib.jobs"] = float64(res.Jobs)
	row.Det["distrib.reassigned"] = float64(res.Reassigned)
	row.Det["distrib.cert_rejected"] = float64(res.CertRejected)
	// No sat.peak_bytes here: RemoteStats sums the peaks of jobs that
	// never coexist.
	searchCounters(row.Det, res.RemoteStats)
	row.Layers["distrib.wall_s"] = res.Wall.Seconds()
	row.Layers["distrib.solve_s"] = float64(res.SolveMillis) / 1000
	row.Layers["distrib.certify_s"] = float64(res.CertifyMillis) / 1000
	if opts.JournalPath != "" {
		_, recs, err := journal.Read(opts.JournalPath)
		if err != nil && row.Fail == "" {
			row.Fail = "journal read back: " + err.Error()
		}
		row.Det["journal.commits"] = float64(len(recs))
	}
	return row
}
