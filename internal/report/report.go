// Package report builds the self-contained flight-recorder artifact of
// one verification run: a manifest pinning what was verified, the
// per-partition timeline (conflicts, propagations, search progress,
// verdict, certification state), periodic metrics snapshots, and the
// merged span tree. A run writes the report as one JSON file; `parbmc
// report` renders it — with any extra per-process span files merged
// in — as a human-readable summary whose centrepiece is the partition
// imbalance table, the evidence base for adaptive partitioning.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
)

// Manifest pins what one run verified and how it was split.
type Manifest struct {
	Program    string `json:"program,omitempty"`
	ProgramSHA string `json:"program_sha,omitempty"`
	Unwind     int    `json:"unwind,omitempty"`
	Contexts   int    `json:"contexts,omitempty"`
	Rounds     int    `json:"rounds,omitempty"`
	Width      int    `json:"width,omitempty"`
	Partitions int    `json:"partitions,omitempty"`
	// Mode is "local" or "distributed".
	Mode string `json:"mode,omitempty"`
	// TraceID is the run's trace ID; span files sharing it merge into
	// this report's tree.
	TraceID string `json:"trace_id,omitempty"`
}

// PartitionRow is the one description of a partition's outcome: what a
// worker sends for it, live on heartbeats and final on results, what the
// coordinator's metrics read, and the row of the report file, whose JSON
// keys these are. core.PartitionRow builds it from a finished instance
// and the distributed worker's heartbeat from a live sample; Worker,
// Certified and a job-wide Cause are the coordinator's to stamp.
type PartitionRow struct {
	Partition    int    `json:"partition"`
	Verdict      string `json:"verdict,omitempty"`
	Cause        string `json:"cause,omitempty"`
	Worker       string `json:"worker,omitempty"`
	Conflicts    int64  `json:"conflicts,omitempty"`
	Propagations int64  `json:"propagations,omitempty"`
	Decisions    int64  `json:"decisions,omitempty"`
	Restarts     int64  `json:"restarts,omitempty"`
	// ElimVars and Simplified are the variables eliminated and the
	// original clauses removed by the solver's simplification pass:
	// zero for a search that ended before the pass was due.
	ElimVars   int64 `json:"elim_vars,omitempty"`
	Simplified int64 `json:"simplified,omitempty"`
	// Progress is the partition's last search-progress estimate in
	// [0,1] (sat.Solver.ProgressEstimate).
	Progress    float64 `json:"progress,omitempty"`
	SolveMillis int64   `json:"solve_millis,omitempty"`
	Certified   bool    `json:"certified,omitempty"`
	// Hardness is the partition's hardness score (sat.Hardness: conflict
	// rate × (1 − progress slope)) — live over the last heartbeat
	// interval while running, whole-run once finished. The hottest
	// partitions are the split candidates for adaptive partitioning.
	Hardness float64 `json:"hardness,omitempty"`
	// ConflictRate is the partition's conflicts/second over the same
	// interval.
	ConflictRate float64 `json:"conflict_rate,omitempty"`
}

// TemplateRow is the run's template solver: the formula loaded once —
// and, with several partitions to solve, simplified once — from which
// every partition's solver was cloned. Its time and its eliminations
// belong to the run and appear in no partition's row.
type TemplateRow struct {
	Millis       int64 `json:"millis"`
	ClausesIn    int   `json:"clauses_in"`
	ClausesOut   int   `json:"clauses_out"`
	ElimVars     int64 `json:"elim_vars,omitempty"`
	Simplified   int64 `json:"simplified,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	// Cubes is the number of cubes solved on the template or a clone.
	Cubes int `json:"cubes"`
}

// CubeRow is one cube-tree node's final entry: a work unit the
// scheduler dispatched (a chunk, or a sub-cube born from a split) and
// what became of it. A Verdict of "SPLIT" marks an interior node whose
// two children carry its partition range onward.
type CubeRow struct {
	// Key is the cube's canonical name: "i" for one partition, "i-j"
	// for a range, "i/path" for a refined single partition.
	Key  string `json:"key"`
	From int    `json:"from"`
	To   int    `json:"to"`
	Path string `json:"path,omitempty"`
	// Worker is who produced the accepted verdict (for SPLIT: who was
	// running the cube when it was split out from under them).
	Worker  string `json:"worker,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Cause   string `json:"cause,omitempty"`
	// Hardness is the live hardness reading that made it a split victim
	// (SPLIT rows only).
	Hardness    float64 `json:"hardness,omitempty"`
	SolveMillis int64   `json:"solve_millis,omitempty"`
	Certified   bool    `json:"certified,omitempty"`
	// Hedged marks a verdict won by a speculative duplicate dispatch;
	// Stolen marks a split whose child was taken by a different worker
	// than the straggler's.
	Hedged bool `json:"hedged,omitempty"`
	Stolen bool `json:"stolen,omitempty"`
}

// ProfileRecord indexes one captured pprof profile in the run report,
// so `parbmc report` can point at the evidence for each phase.
type ProfileRecord struct {
	// Phase is the bracketed pipeline phase ("encode", "solve", ...).
	Phase string `json:"phase"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// Path is the profile file written under the run's -profile-dir.
	Path string `json:"path"`
	// Bytes is the profile's size on disk.
	Bytes int64 `json:"bytes,omitempty"`
}

// Snapshot is one periodic metrics capture: the full Prometheus text
// rendering of the run's registry at AtMillis since run start.
type Snapshot struct {
	AtMillis int64  `json:"at_millis"`
	Metrics  string `json:"metrics"`
}

// Report is the complete flight-recorder artifact.
type Report struct {
	Manifest   Manifest `json:"manifest"`
	Verdict    string   `json:"verdict,omitempty"`
	WallMillis int64    `json:"wall_millis,omitempty"`
	// Template is the solver template of an in-process run (nil for a
	// distributed one, whose workers each build their own).
	Template   *TemplateRow   `json:"template,omitempty"`
	Partitions []PartitionRow `json:"partitions,omitempty"`
	// Cubes is the run's cube tree in scheduling order: the static
	// chunks plus every sub-cube adaptive splitting created, each with
	// its fate (verdict, SPLIT, hedged win). Empty for runs that never
	// split or hedged nothing — the partition table already covers them.
	Cubes     []CubeRow  `json:"cubes,omitempty"`
	Snapshots []Snapshot `json:"snapshots,omitempty"`
	// Profiles indexes the pprof CPU/heap captures of the run's phases
	// (populated when the process ran with -profile-dir).
	Profiles []ProfileRecord `json:"profiles,omitempty"`
	// Spans are the span events collected in-process during the run
	// (coordinator-side for distributed runs, plus worker spans shipped
	// back in result messages). Extra JSONL files merge in at render
	// time.
	Spans []obs.Event `json:"spans,omitempty"`
	// Warnings are degradation notices the run survived but the reader
	// must know about — a sealed journal (lost crash resumability), a
	// fleet that aborted chunks on memory. Rendered prominently.
	Warnings []string `json:"warnings,omitempty"`
}

// Recorder accumulates a Report while a run executes. All methods are
// nil-safe no-ops on a nil *Recorder, so instrumented paths never
// branch on "is reporting enabled". Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	rep   Report
	rows  map[int]*PartitionRow
	cubes []CubeRow
	start time.Time
}

// NewRecorder builds an empty recorder; the snapshot clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{rows: make(map[int]*PartitionRow), start: time.Now()}
}

// SetManifest records what the run verifies.
func (r *Recorder) SetManifest(m Manifest) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Manifest = m
	r.mu.Unlock()
}

// SetVerdict records the run outcome and wall time.
func (r *Recorder) SetVerdict(verdict string, wall time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Verdict = verdict
	r.rep.WallMillis = wall.Milliseconds()
	r.mu.Unlock()
}

// SetTemplate records the run's solver template.
func (r *Recorder) SetTemplate(row TemplateRow) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep.Template = &row
	r.mu.Unlock()
}

// AddProfiles appends captured-profile index entries.
func (r *Recorder) AddProfiles(recs []ProfileRecord) {
	if r == nil || len(recs) == 0 {
		return
	}
	r.mu.Lock()
	r.rep.Profiles = append(r.rep.Profiles, recs...)
	r.mu.Unlock()
}

// Merge folds one update of a partition — a worker's heartbeat or its
// final result — into the partition's row. Counters, the progress
// estimate and the solve time only move forward, so a late heartbeat or
// a solver that never hit the progress cadence (zeros) cannot regress a
// row; verdict, cause and worker are the latest named. Hardness and
// conflict rate are a level over one interval, not a counter: the latest
// pair wins — it legitimately falls as a partition closes in on its
// verdict — and an all-zero pair, a heartbeat before the second sample,
// is no reading at all.
func (r *Recorder) Merge(row PartitionRow) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.rows[row.Partition]
	if cur == nil {
		cur = &PartitionRow{Partition: row.Partition}
		r.rows[row.Partition] = cur
	}
	if row.Verdict != "" {
		cur.Verdict = row.Verdict
	}
	if row.Cause != "" {
		cur.Cause = row.Cause
	}
	if row.Worker != "" {
		cur.Worker = row.Worker
	}
	cur.Conflicts = max(cur.Conflicts, row.Conflicts)
	cur.Propagations = max(cur.Propagations, row.Propagations)
	cur.Decisions = max(cur.Decisions, row.Decisions)
	cur.Restarts = max(cur.Restarts, row.Restarts)
	cur.ElimVars = max(cur.ElimVars, row.ElimVars)
	cur.Simplified = max(cur.Simplified, row.Simplified)
	cur.Progress = max(cur.Progress, row.Progress)
	cur.SolveMillis = max(cur.SolveMillis, row.SolveMillis)
	if row.Certified {
		cur.Certified = true
	}
	if row.Hardness != 0 || row.ConflictRate != 0 {
		cur.Hardness, cur.ConflictRate = row.Hardness, row.ConflictRate
	}
}

// CubeFinish appends one cube-tree node's final entry (an accepted
// verdict, or the SPLIT that replaced the cube with its children).
// Entries keep arrival order — the order the tree evolved in.
func (r *Recorder) CubeFinish(row CubeRow) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cubes = append(r.cubes, row)
	r.mu.Unlock()
}

// Warn records one degradation notice. Duplicate messages collapse to
// the first occurrence: a seal that degrades a thousand commits is one
// fact, not a thousand lines.
func (r *Recorder) Warn(msg string) {
	if r == nil || msg == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.rep.Warnings {
		if w == msg {
			return
		}
	}
	r.rep.Warnings = append(r.rep.Warnings, msg)
}

// AddSpans appends span events (a worker's collected job spans, or the
// run's own collector at shutdown).
func (r *Recorder) AddSpans(events []obs.Event) {
	if r == nil || len(events) == 0 {
		return
	}
	r.mu.Lock()
	r.rep.Spans = append(r.rep.Spans, events...)
	r.mu.Unlock()
}

// Snapshot captures the registry's current Prometheus rendering, stamped
// with the elapsed time since the recorder was built.
func (r *Recorder) Snapshot(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	at := time.Since(r.start).Milliseconds()
	r.mu.Lock()
	r.rep.Snapshots = append(r.rep.Snapshots, Snapshot{AtMillis: at, Metrics: buf.String()})
	r.mu.Unlock()
}

// Build assembles the report: partition rows sorted by index, spans and
// snapshots in arrival order.
func (r *Recorder) Build() *Report {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.rep
	rep.Partitions = make([]PartitionRow, 0, len(r.rows))
	for _, row := range r.rows {
		rep.Partitions = append(rep.Partitions, *row)
	}
	sort.Slice(rep.Partitions, func(i, j int) bool {
		return rep.Partitions[i].Partition < rep.Partitions[j].Partition
	})
	rep.Cubes = append([]CubeRow(nil), r.cubes...)
	rep.Spans = append([]obs.Event(nil), rep.Spans...)
	rep.Snapshots = append([]Snapshot(nil), rep.Snapshots...)
	rep.Profiles = append([]ProfileRecord(nil), rep.Profiles...)
	rep.Warnings = append([]string(nil), rep.Warnings...)
	return &rep
}

// WriteFile writes the built report as indented JSON at path.
func (r *Recorder) WriteFile(path string) error {
	if r == nil {
		return fmt.Errorf("report: nil recorder")
	}
	data, err := json.MarshalIndent(r.Build(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report written by Recorder.WriteFile.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("report: parse %s: %w", path, err)
	}
	return &rep, nil
}

// Render writes the human-readable summary: manifest header, the
// partition imbalance table, the merged span tree's shape, and the
// slowest spans. extraSpans are additional per-process span event sets
// (worker -trace-out files) merged into the tree alongside the report's
// own spans.
func Render(w io.Writer, rep *Report, extraSpans ...[]obs.Event) {
	m := rep.Manifest
	fmt.Fprintf(w, "Run report: %s (%s)\n", orUnknown(m.Program), orUnknown(m.Mode))
	if m.ProgramSHA != "" {
		fmt.Fprintf(w, "  program sha: %s\n", m.ProgramSHA)
	}
	fmt.Fprintf(w, "  bounds: unwind=%d contexts=%d width=%d partitions=%d\n",
		m.Unwind, m.Contexts, m.Width, m.Partitions)
	if m.TraceID != "" {
		fmt.Fprintf(w, "  trace: %s\n", m.TraceID)
	}
	if rep.Verdict != "" {
		fmt.Fprintf(w, "Verdict: %s in %d ms\n", rep.Verdict, rep.WallMillis)
	}
	if len(rep.Warnings) > 0 {
		fmt.Fprintf(w, "\nWARNINGS (%d):\n", len(rep.Warnings))
		for _, msg := range rep.Warnings {
			fmt.Fprintf(w, "  ! %s\n", msg)
		}
	}

	if t := rep.Template; t != nil {
		fmt.Fprintf(w, "\nTemplate: %d ms, clauses %d -> %d, elim-vars %d, simplified %d, propagations %d, cloned for %d cubes\n",
			t.Millis, t.ClausesIn, t.ClausesOut, t.ElimVars, t.Simplified, t.Propagations, t.Cubes)
	}

	fmt.Fprintf(w, "\nPartition imbalance (%d partitions):\n", len(rep.Partitions))
	if len(rep.Partitions) == 0 {
		fmt.Fprintln(w, "  (no per-partition data recorded)")
	} else {
		renderPartitionTable(w, rep.Partitions)
	}

	if len(rep.Cubes) > 0 {
		fmt.Fprintf(w, "\nCube tree (%d nodes, scheduling order):\n", len(rep.Cubes))
		renderCubeTree(w, rep.Cubes)
	}

	tree := obs.Merge(append([][]obs.Event{rep.Spans}, extraSpans...)...)
	total := tree.Size()
	fmt.Fprintf(w, "\nSpan tree: %d spans, %d roots, %d orphans\n",
		total, len(tree.Roots), len(tree.Orphans))
	if total > 0 {
		fmt.Fprintln(w, "\nSlowest spans:")
		for _, n := range tree.Slowest(8) {
			fmt.Fprintf(w, "  %10s  %-16s %s%s\n",
				time.Duration(n.DurMicros)*time.Microsecond, n.Name,
				procTag(n.Proc), attrTag(n.Attrs))
		}
	}

	if len(rep.Snapshots) > 0 {
		last := rep.Snapshots[len(rep.Snapshots)-1]
		fmt.Fprintf(w, "\nMetrics snapshots: %d (last at %d ms, %d series lines)\n",
			len(rep.Snapshots), last.AtMillis, strings.Count(last.Metrics, "\n"))
		renderPropagationRates(w, last.Metrics)
	}

	if len(rep.Profiles) > 0 {
		fmt.Fprintf(w, "\nCaptured profiles (%d):\n", len(rep.Profiles))
		for _, p := range rep.Profiles {
			fmt.Fprintf(w, "  %-10s %-5s %8d B  %s\n", p.Phase, p.Kind, p.Bytes, p.Path)
		}
	}
}

// renderPropagationRates sets the coordinator's proof checkers beside
// the workers' solvers, in propagations per second of their own busy
// time, from the counters of a distributed run's last snapshot: whether
// certifying a verdict runs at the speed of finding it.
func renderPropagationRates(w io.Writer, metrics string) {
	rate := func(what, props, seconds string) {
		n, _ := sampleValue(metrics, props)
		secs, _ := sampleValue(metrics, seconds)
		if n > 0 && secs > 0 {
			fmt.Fprintf(w, "  %s: %.1f M propagations/s (%.0f in %.2f s)\n", what, n/secs/1e6, n, secs)
		}
	}
	rate("workers' solvers", "parbmc_remote_propagations_total", "parbmc_coordinator_job_solve_seconds_sum")
	rate("coordinator's proof checkers", "parbmc_coordinator_certify_propagations_total", "parbmc_coordinator_certify_seconds_sum")
}

// sampleValue finds the unlabelled series name in a Prometheus text
// rendering.
func sampleValue(metrics, name string) (float64, bool) {
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

func renderPartitionTable(w io.Writer, rows []PartitionRow) {
	fmt.Fprintf(w, "  %9s  %-8s %-16s %10s %13s %9s %10s %9s %9s %9s %s\n",
		"partition", "verdict", "worker", "conflicts", "propagations", "elim-vars", "simplified", "progress", "solve-ms", "hardness", "flags")
	var minMs, maxMs int64 = -1, 0
	minProg, maxProg := 1.0, 0.0
	minHard, maxHard := -1.0, 0.0
	hardest := -1
	for _, r := range rows {
		flags := ""
		if r.Certified {
			flags = "certified"
		}
		if r.Cause != "" {
			if flags != "" {
				flags += ","
			}
			flags += r.Cause
		}
		fmt.Fprintf(w, "  %9d  %-8s %-16s %10d %13d %9d %10d %9.3f %9d %9.1f %s\n",
			r.Partition, orUnknown(r.Verdict), orDash(r.Worker),
			r.Conflicts, r.Propagations, r.ElimVars, r.Simplified, r.Progress, r.SolveMillis, r.Hardness, flags)
		if minMs < 0 || r.SolveMillis < minMs {
			minMs = r.SolveMillis
		}
		if r.SolveMillis > maxMs {
			maxMs = r.SolveMillis
		}
		if r.Progress < minProg {
			minProg = r.Progress
		}
		if r.Progress > maxProg {
			maxProg = r.Progress
		}
		if minHard < 0 || r.Hardness < minHard {
			minHard = r.Hardness
		}
		if r.Hardness >= maxHard {
			if r.Hardness > maxHard || hardest < 0 {
				hardest = r.Partition
			}
			maxHard = r.Hardness
		}
	}
	if len(rows) > 1 {
		ratio := "inf"
		if minMs > 0 {
			ratio = fmt.Sprintf("%.1f", float64(maxMs)/float64(minMs))
		} else if maxMs == 0 {
			ratio = "1.0"
		}
		fmt.Fprintf(w, "  imbalance: solve-ms max/min = %s, progress spread = %.3f\n",
			ratio, maxProg-minProg)
		if minHard < 0 {
			minHard = 0
		}
		fmt.Fprintf(w, "  hardness: max = %.1f (partition %d), min = %.1f, spread = %.1f — hottest partition is the next split candidate\n",
			maxHard, hardest, minHard, maxHard-minHard)
	}
}

// renderCubeTree prints the cube rows indented by tree depth. Rows
// arrive in scheduling order, so every SPLIT precedes its children; the
// children's depth is derived by re-splitting the parent exactly as the
// scheduler did.
func renderCubeTree(w io.Writer, rows []CubeRow) {
	depth := map[string]int{}
	for _, r := range rows {
		d := depth[r.Key]
		var flags []string
		if r.Verdict == "SPLIT" {
			flags = append(flags, fmt.Sprintf("hardness=%.1f", r.Hardness))
		}
		if r.Stolen {
			flags = append(flags, "stolen")
		}
		if r.Hedged {
			flags = append(flags, "hedged")
		}
		if r.Certified {
			flags = append(flags, "certified")
		}
		if r.Cause != "" {
			flags = append(flags, r.Cause)
		}
		fmt.Fprintf(w, "  %s%-16s %-8s %-16s %8d ms  %s\n",
			strings.Repeat("  ", d), r.Key, orUnknown(r.Verdict), orDash(r.Worker),
			r.SolveMillis, strings.Join(flags, ","))
		if r.Verdict == "SPLIT" {
			c := partition.Cube{From: r.From, To: r.To, Path: r.Path}
			left, right := c.Split()
			depth[left.Key()] = d + 1
			depth[right.Key()] = d + 1
		}
	}
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func procTag(proc string) string {
	if proc == "" {
		return ""
	}
	return "proc=" + proc
}

func attrTag(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, attrs[k])
	}
	return b.String()
}
