package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bv"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/flatten"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/internal/trace"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/internal/weakmem"
	"repro/prog"
)

// walkJob is the traced form of runJob: instead of core.Verify the
// harness makes the layer calls itself, in core.Verify's order, one
// span around each. That it is the same pipeline is checked, not
// assumed: the parent requires its verdict and every deterministic
// counter to equal the untraced pass's.
func walkJob(j Job, src string, workers int, rec *Recorder) JobRow {
	row := JobRow{Job: j.Name, Det: map[string]float64{}, Layers: map[string]float64{}}
	var enc *vc.Encoded
	var fp *flatten.Program
	jobSpan := rec.begin("job", j.Name, -1)
	// layer runs f under a span and adds its duration to the layer
	// metric; covered sums what the layer spans account for.
	var covered time.Duration
	layer := func(parent int, span, metric string, f func() error) error {
		s := rec.begin(span, j.Name, parent)
		err := f()
		d := rec.end(s)
		covered += d
		row.Layers[metric] += d.Seconds()
		return err
	}
	err := func() (err error) {
		var p *prog.Program
		if err = layer(jobSpan, "prog.Parse", "prog.parse_s", func() error {
			p, err = prog.Parse(src)
			return err
		}); err != nil {
			return err
		}
		if j.TSO > 0 {
			if err = layer(jobSpan, "weakmem.TransformTSO", "weakmem.transform_s", func() error {
				p, err = weakmem.TransformTSO(p, j.TSO)
				return err
			}); err != nil {
				return err
			}
		}
		// The "core.Verify" span stands for the call the untraced pass
		// makes; what its children do not cover is glue.
		verify := rec.begin("core.Verify", j.Name, jobSpan)
		defer func() { row.Layers["core.verify_s"] = rec.end(verify).Seconds() }()

		var up *unfold.Program
		if err = layer(verify, "unfold.Unfold", "unfold.s", func() error {
			up, err = unfold.Unfold(p, unfold.Options{Unwind: j.Unwind})
			return err
		}); err != nil {
			return err
		}
		if err = layer(verify, "flatten.Flatten", "flatten.s", func() error {
			fp, err = flatten.Flatten(up)
			return err
		}); err != nil {
			return err
		}
		if err = layer(verify, "vc.Encode", "vc.encode_s", func() error {
			enc, err = vc.Encode(fp, vc.Options{Width: 8, Contexts: j.Contexts})
			return err
		}); err != nil {
			return err
		}
		var parts []partition.Partition
		if err = layer(verify, "partition.Make", "partition.make_s", func() error {
			parts, err = partition.Make(enc, j.Partitions)
			return err
		}); err != nil {
			return err
		}
		row.Det["partition.count"] = float64(len(parts))

		f := enc.Formula()
		var status sat.Status
		var model []bool
		if len(parts) == 1 {
			var solver *sat.Solver
			_ = layer(verify, "sat.NewFromFormula", "sat.load_s", func() error {
				solver = sat.NewFromFormula(f, sat.Options{})
				return nil
			})
			if err = layer(verify, "sat.Solver.Solve", "sat.search_s", func() error {
				status, err = solver.Solve(parts[0].Assumptions...)
				return err
			}); err != nil {
				return err
			}
			d := row.Layers["sat.search_s"]
			if status == sat.Sat {
				row.Layers["sat.search_sat_s"] = d
				model = solver.Model()
			} else {
				row.Layers["sat.search_unsat_s"] = d
			}
			searchCounters(row.Det, solver.Stats())
			row.Det["sat.peak_bytes"] = float64(solver.Stats().PeakMemBytes)
		} else {
			var pres *parallel.Result
			if err = layer(verify, "parallel.Solve", "parallel.solve_s", func() error {
				pres, err = parallel.Solve(context.Background(), f, parts, parallel.Options{Workers: workers})
				return err
			}); err != nil {
				return err
			}
			status, model = pres.Status, pres.Model
			// Per-instance numbers come from the result, not from spans:
			// the instances run concurrently inside the one call.
			var busy, slowest time.Duration
			for _, in := range pres.Instances {
				busy += in.Time
				slowest = max(slowest, in.Time)
			}
			row.Layers["parallel.busy_s"] = busy.Seconds()
			row.Layers["parallel.slowest_s"] = slowest.Seconds()
			row.Layers["sat.search_s"] = busy.Seconds()
			if status == sat.Unsat {
				row.Layers["sat.search_unsat_s"] = busy.Seconds()
				satCounters(row.Det, pres.Instances)
			} else {
				row.Layers["sat.search_sat_s"] = busy.Seconds()
			}
		}
		switch status {
		case sat.Unsat:
			row.Verdict = core.Safe.String()
		case sat.Sat:
			row.Verdict = core.Unsafe.String()
			return layer(verify, "trace.Decode+Validate", "trace.decode_validate_s", func() error {
				viol, verr := trace.Validate(enc, trace.Decode(enc, model))
				if verr == nil && viol == nil {
					row.Fail = "UNSAFE without a replayed violation"
				}
				return verr
			})
		default:
			row.Verdict = core.Unknown.String()
		}
		return nil
	}()
	wall := rec.end(jobSpan)
	row.WallS = wall.Seconds()
	if err != nil {
		row.Verdict, row.Fail = "ERROR", err.Error()
		return row
	}
	// Glue is what no layer span accounts for: the self time of the job
	// span plus that of the span standing for core.Verify.
	row.Layers["core.glue_s"] = (wall - covered).Seconds()

	// Sizes are counted after the job's clock has stopped.
	f := enc.Formula()
	row.Det["vc.vars"] = float64(f.NumVars)
	row.Det["vc.clauses"] = float64(f.NumClauses())
	short := 0
	for _, c := range f.Clauses {
		if len(c) <= 3 {
			short++
		}
	}
	row.Det["cnf.short_clauses"] = float64(short)
	steps := 0
	for _, th := range fp.Threads {
		for _, b := range th.Blocks {
			steps += len(b)
		}
	}
	row.Det["flatten.steps"] = float64(steps)
	return row
}

// Extras are measurements the traced run makes once, outside any job's
// clock: they need work no untraced pass does (a second solve, a
// simplifier run, a proof check), so they would otherwise count as
// tracing overhead. Keys are per-layer metric names.
type Extras struct {
	Det    map[string]float64 `json:"det"`
	Layers map[string]float64 `json:"layers"`
	Spans  []Span             `json:"spans"`
}

func runExtras(w Workload, smoke bool) (*Extras, error) {
	jobs, err := passJobs(w, smoke, 0, 0)
	if err != nil {
		return nil, err
	}
	x := &Extras{Det: map[string]float64{}, Layers: map[string]float64{}}
	rec := newRecorder()
	timed := func(span, job, metric string, f func() error) error {
		s := rec.begin(span, job, -1)
		err := f()
		x.Layers[metric] += rec.end(s).Seconds()
		return err
	}
	switch w.Name {
	case "proof_1core":
		// The opt-in -preprocess path on the same formulas.
		var before, after int
		for _, j := range jobs {
			enc, _, err := encodeJob(j, 0, 0)
			if err != nil {
				return nil, err
			}
			s := sat.NewSimplifier()
			s.FreezeLits(decoderLits(enc)...)
			_ = timed("sat.Simplifier.Simplify", j.Name, "sat.simplify_s", func() error {
				simplified, _ := s.Simplify(enc.Formula())
				before += enc.Formula().NumClauses()
				after += simplified.NumClauses()
				return nil
			})
		}
		x.Det["sat.simplify_clause_ratio"] = float64(after) / float64(before)
	case "proof_partitioned":
		// The same formulas at one partition: the denominator of the
		// wasted-work ratio.
		for _, j := range jobs {
			enc, _, err := encodeJob(j, 0, 0)
			if err != nil {
				return nil, err
			}
			solver := sat.NewFromFormula(enc.Formula(), sat.Options{})
			if err := timed("sat.Solver.Solve(1 partition)", j.Name, "parallel.baseline_s", func() error {
				_, err := solver.Solve()
				return err
			}); err != nil {
				return nil, err
			}
			x.Det["parallel.baseline_conflicts"] += float64(solver.Stats().Conflicts)
		}
	case "distrib_loopback":
		// What a worker does for one chunk: a full core.Verify of a
		// one-partition range with the proof kept, then the check the
		// coordinator makes of that proof against its own encoding.
		j := jobs[0]
		for _, cand := range jobs {
			if !cand.NoCert {
				j = cand
			}
		}
		src, err := programSource(j.Prog)
		if err != nil {
			return nil, err
		}
		var res *core.Result
		if err := timed("worker-style core.Verify(1 chunk)", j.Name, "distrib.job_verify_s", func() error {
			p, err := prog.Parse(src)
			if err != nil {
				return err
			}
			res, err = core.Verify(context.Background(), p, core.Options{
				Unwind: j.Unwind, Contexts: j.Contexts, Partitions: j.Partitions,
				From: 0, To: 1, Cores: 1, KeepProofs: true,
			})
			return err
		}); err != nil {
			return nil, err
		}
		x.Layers["distrib.job_encode_s"] = res.EncodeTime.Seconds()
		if len(res.Instances) != 1 || res.Instances[0].Proof == nil {
			return nil, fmt.Errorf("extras: chunk job %s kept no proof", j.Name)
		}
		proof := res.Instances[0].Proof
		x.Det["sat.proof_lemmas"] = float64(proof.NumLemmas())
		enc, parts, err := encodeJob(j, 0, 1)
		if err != nil {
			return nil, err
		}
		if err := timed("sat.CheckRUP", j.Name, "sat.proof_check_s", func() error {
			return sat.CheckRUP(enc.Formula(), parts[0].Assumptions, proof)
		}); err != nil {
			return nil, err
		}
		ms, err := journalCommitMillis(rec)
		if err != nil {
			return nil, err
		}
		x.Layers["journal.commit_ms"] = ms
	}
	x.Spans = rec.Spans
	return x, nil
}

// encodeJob builds a job's formula and the partitions [from, to) of it
// (0, 0 for all) through core's own front-half helpers.
func encodeJob(j Job, from, to int) (*vc.Encoded, []partition.Partition, error) {
	src, err := programSource(j.Prog)
	if err != nil {
		return nil, nil, err
	}
	p, err := prog.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	opts := core.Options{Unwind: j.Unwind, Contexts: j.Contexts, Partitions: j.Partitions, From: from, To: to}
	enc, _, _, err := core.EncodeProgram(p, opts)
	if err != nil {
		return nil, nil, err
	}
	parts, _, err := core.MakePartitions(enc, opts)
	return enc, parts, err
}

// journalCommitMillis is the median of 64 Commit calls (write + fsync)
// on a scratch journal.
func journalCommitMillis(rec *Recorder) (float64, error) {
	dir, err := os.MkdirTemp("", "pbench-journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	jnl, err := journal.Open(filepath.Join(dir, "scratch.wal"), journal.Manifest{
		ProgramSHA256: journal.HashProgram("scratch"), Unwind: 1, Contexts: 1, Width: 8, Partitions: 64,
	})
	if err != nil {
		return 0, err
	}
	defer jnl.Close()
	var ms []float64
	for i := 0; i < 64; i++ {
		s := rec.begin("journal.Commit", "scratch", -1)
		err := jnl.Commit(journal.ChunkRecord{From: i, To: i + 1, Verdict: sat.Unsat.String(), Winner: -1, Certified: true})
		d := rec.end(s)
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	return median(ms), nil
}

// decoderLits is every literal whose variable the simplifier must keep:
// the partitioning variables and all the trace decoder reads — the set
// core.Verify freezes under Options.Preprocess.
func decoderLits(enc *vc.Encoded) []cnf.Lit {
	var out []cnf.Lit
	add := func(vs ...bv.Vec) {
		for _, v := range vs {
			out = append(out, v...)
		}
	}
	add(enc.TidVecs...)
	add(enc.CsVecs...)
	for _, v := range enc.Nondet {
		add(v)
	}
	for _, v := range enc.InitScalars {
		add(v)
	}
	for _, vs := range enc.InitArrays {
		add(vs...)
	}
	return out
}
