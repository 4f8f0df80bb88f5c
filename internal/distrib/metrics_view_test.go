package distrib

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/prog"
)

// parseExposition reads a /metrics body by the rules of the Prometheus
// text format, line by line, and returns each sample's value keyed by
// its series as rendered (`name` or `name{labels}`). A line the format
// does not allow — a label value with an escape other than \\, \" and
// \n, say — fails the test, as it fails a Prometheus scrape.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		series, v, err := parseSample(line)
		if err != nil {
			t.Errorf("line %d %q: %v", n+1, line, err)
			continue
		}
		if series != "" {
			out[series] = v
		}
	}
	return out
}

// parseSample parses one exposition line; a comment yields "".
func parseSample(line string) (series string, v float64, err error) {
	if rest, ok := strings.CutPrefix(line, "# "); ok {
		kind, rest, _ := strings.Cut(rest, " ")
		name, _, _ := strings.Cut(rest, " ")
		if (kind == "HELP" || kind == "TYPE") && !validName(name, true) {
			return "", 0, fmt.Errorf("bad metric name %q", name)
		}
		return "", 0, nil
	}
	end := strings.IndexAny(line, "{ ")
	if end < 0 || !validName(line[:end], true) {
		return "", 0, fmt.Errorf("bad metric name")
	}
	i := end
	if line[i] == '{' {
		for i++; line[i] != '}'; {
			eq := strings.IndexByte(line[i:], '=')
			if eq < 0 || !validName(line[i:i+eq], false) || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
				return "", 0, fmt.Errorf("bad label at byte %d", i)
			}
			for i += eq + 2; i < len(line) && line[i] != '"'; i++ {
				if line[i] == '\\' {
					if i++; i == len(line) || !strings.ContainsRune(`\"n`, rune(line[i])) {
						return "", 0, fmt.Errorf("invalid escape in label value at byte %d", i)
					}
				}
			}
			if i++; i >= len(line) {
				return "", 0, fmt.Errorf("unterminated label value")
			}
			if line[i] == ',' {
				i++
			} else if line[i] != '}' {
				return "", 0, fmt.Errorf("expected , or } at byte %d", i)
			}
		}
		i++
	}
	fields := strings.Fields(line[i:])
	if len(fields) != 1 || !strings.HasPrefix(line[i:], " ") {
		return "", 0, fmt.Errorf("want one value after the series")
	}
	v, err = strconv.ParseFloat(fields[0], 64)
	return line[:i], v, err
}

func validName(s string, colon bool) bool {
	for i, c := range s {
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9' || colon && c == ':') {
			return false
		}
	}
	return s != ""
}

// TestMetricsAreViewsOfTheRun runs a journaled primary that a standby
// tails, through a reassign (a worker that drops its job), a rejected
// certificate (a worker that flips its verdict) and a split with a steal
// (a straggler), and then holds every series that repeats a count of the
// run to the count's owner: CoordinatorResult (the tally and the
// scheduler's fold), each WorkerHealth, the journal, and the standby's
// HAState.
func TestMetricsAreViewsOfTheRun(t *testing.T) {
	p := prog.MustParse(fibSrc)
	dir := t.TempDir()
	leasePath := filepath.Join(dir, "lease.json")
	lnA, lnB := listen(t), listen(t)
	addrA := lnA.Addr().String()

	opts := fastFailureOpts(CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2,
		Split: partition.SplitPolicy{Depth: 2, Grace: 250 * time.Millisecond},
	})
	optsA, optsB := opts, opts
	optsA.JournalPath, optsA.Metrics = filepath.Join(dir, "a.wal"), obs.NewRegistry()
	optsB.JournalPath, optsB.Metrics = filepath.Join(dir, "b.wal"), obs.NewRegistry()
	stateB := &HAState{}
	haA := HAOptions{LeasePath: leasePath, Holder: "alpha", Addr: addrA, LeaseTTL: 2 * time.Second}
	haB := HAOptions{LeasePath: leasePath, Holder: "beta", Addr: lnB.Addr().String(), LeaseTTL: 2 * time.Second, State: stateB}

	resA := make(chan *CoordinatorResult, 1)
	go func() {
		res, err := RunHA(context.Background(), lnA, p, optsA, haA)
		if err != nil {
			t.Errorf("primary: %v", err)
		}
		resA <- res
	}()
	waitLeaseHolder(t, leasePath, "alpha")
	ctxB, stopB := context.WithCancel(context.Background())
	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		_, _ = RunHA(ctxB, lnB, p, optsB, haB)
	}()
	t.Cleanup(func() { stopB(); <-doneB })
	// The workers wait for the standby, so that it tails the whole run.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if s := optsA.Metrics.Samples("parbmc_standbys_connected"); len(s) == 1 && s[0].Value == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby never attached to the primary")
		}
	}

	// The liar and the dropper each run alone, so each is handed a cube.
	_, _ = runWorker(t, addrA, "liar", &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultFlipVerdict}}}, 0)
	_, _ = runWorker(t, addrA, "dropper", &FaultPlan{Events: []FaultEvent{{Job: 0, Kind: FaultDrop}}}, 0)
	wait := startWorkerPair(t, addrA, SlowAt(2*time.Second, 0))
	var res *CoordinatorResult
	select {
	case res = <-resA:
	case <-time.After(90 * time.Second):
		t.Fatal("the run did not finish")
	}
	wait()
	if res == nil {
		t.FailNow()
	}
	if res.Verdict != core.Safe || res.Reassigned < 2 || res.CertRejected < 1 || res.Splits < 1 || res.Steals < 1 {
		t.Fatalf("the faults did not all happen: verdict %v, reassigned %d, rejected %d, splits %d, steals %d",
			res.Verdict, res.Reassigned, res.CertRejected, res.Splits, res.Steals)
	}
	_, recs, err := journal.Read(optsA.JournalPath)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: optsA.Metrics}))
	defer srv.Close()
	got := parseExposition(t, scrape(t, srv.URL))
	want := map[string]int64{
		"parbmc_coordinator_certify_lemmas_total":        res.CertifyWork.Lemmas,
		"parbmc_coordinator_certify_chain_clauses_total": res.CertifyWork.ChainClauses,
		"parbmc_remote_decisions_total":                  res.RemoteStats.Decisions,
		"parbmc_remote_conflicts_total":                  res.RemoteStats.Conflicts,
		"parbmc_remote_propagations_total":               res.RemoteStats.Propagations,
		"parbmc_remote_restarts_total":                   res.RemoteStats.Restarts,
		"parbmc_remote_learnt_total":                     res.RemoteStats.Learnt,
		"parbmc_remote_learnt_deleted_total":             res.RemoteStats.LearntDeleted,
	}
	for series, n := range map[string]int{
		"parbmc_coordinator_chunks_total":                res.ChunksTotal,
		"parbmc_coordinator_chunks_remaining":            res.ChunksTotal - res.ChunksDecided - len(res.Exhausted) - len(res.Quarantined),
		"parbmc_cube_tree_depth":                         res.MaxCubeDepth,
		"parbmc_coordinator_chunks_resumed_total":        res.Resumed,
		"parbmc_cubes_split_total":                       res.Splits,
		"parbmc_steals_total":                            res.Steals,
		"parbmc_chunks_hedged_total":                     res.Hedges,
		"parbmc_results_superseded_total":                res.Superseded,
		"parbmc_coordinator_reassigned_total":            res.Reassigned,
		"parbmc_chunks_memory_aborted_total":             res.MemoryAborted,
		"parbmc_coordinator_certificates_verified_total": res.Certified,
		"parbmc_coordinator_certificates_rejected_total": res.CertRejected,
		"parbmc_coordinator_quarantined_total":           len(res.Quarantined),
		"parbmc_journal_commits_total":                   len(recs),
		"parbmc_coordinator_workers_active":              0,
	} {
		want[series] = int64(n)
	}
	if res.JournalSealed {
		want["parbmc_journal_sealed"] = 1
	} else {
		want["parbmc_journal_sealed"] = 0
	}
	for i, n := range res.RemoteStats.LBDHist {
		bound := "+Inf"
		if i < len(sat.LBDBounds) {
			bound = strconv.Itoa(sat.LBDBounds[i])
		}
		want[`parbmc_lbd_bucket{le="`+bound+`"}`] = n
	}
	var jobs int64
	for _, w := range res.Workers {
		jobs += int64(w.Jobs)
		label := `{worker="` + w.Name + `"}`
		want["parbmc_worker_jobs_total"+label] = int64(w.Jobs)
		want["parbmc_worker_failures_total"+label] = int64(w.Failures)
		want["parbmc_worker_certificates_rejected_total"+label] = int64(w.CertRejections)
	}
	want["parbmc_coordinator_jobs_total"] = jobs
	for series, n := range want {
		// A counter's series appears with its first count: none is 0.
		if v := got[series]; v != float64(n) {
			t.Errorf("%s = %v, its owner says %d", series, v, n)
		}
	}

	// The standby is sent every commit before the primary says stop: wait
	// for the last, stop the standby, and hold its gauge to its state.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, _, n := stateB.Role(); n == len(recs) {
			break
		}
	}
	stopB()
	<-doneB
	_, _, replicated := stateB.Role()
	var body strings.Builder
	optsB.Metrics.WritePrometheus(&body)
	if v := parseExposition(t, body.String())["parbmc_standby_replicated_records"]; v != float64(replicated) {
		t.Errorf("parbmc_standby_replicated_records = %v, the standby's state says %d", v, replicated)
	}
	if replicated != len(recs) {
		t.Errorf("the standby replicated %d records of the primary's %d", replicated, len(recs))
	}
}

// TestScrapeEscapesWorkerNames: a worker names itself in its hello,
// unchecked, and the name becomes a label value. One with a tab, a quote
// and a backslash must still render a scrape every line of which the text
// format allows, and decode back to the name.
func TestScrapeEscapesWorkerNames(t *testing.T) {
	const name = "w\t\"x\\"
	reg := obs.NewRegistry()
	addr, resCh := startCoordinator(t, prog.MustParse(fibSrc), CoordinatorOptions{
		Unwind: 1, Contexts: 3, Partitions: 4, ChunkSize: 2, Metrics: reg,
	})
	if _, err := runWorker(t, addr, name, nil, 0); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if res := waitResult(t, resCh); res.Verdict != core.Safe {
		t.Fatalf("verdict %v", res.Verdict)
	}
	srv := httptest.NewServer(obs.NewMux(obs.MuxOptions{Registry: reg}))
	defer srv.Close()
	parseExposition(t, scrape(t, srv.URL))
	samples := reg.Samples("parbmc_worker_jobs_total")
	if len(samples) != 1 {
		t.Fatalf("worker job series: %+v", samples)
	}
	if got := obs.LabelValue(samples[0].Labels); got != name {
		t.Fatalf("label %s decodes to %q, want %q", samples[0].Labels, got, name)
	}
}
