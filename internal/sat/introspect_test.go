package sat

import "testing"

// TestStatsAddLaws locks in the aggregation laws documented on
// Stats.Add: counters sum (including the introspection fields),
// MaxDepth and Progress take the maximum.
func TestStatsAddLaws(t *testing.T) {
	a := Stats{
		Decisions: 10, Conflicts: 5, Propagations: 100, Restarts: 2,
		MaxDepth: 7, Backjumps: 3, Learnt: 4, LearntLits: 40,
		Minimised: 6, Simplified: 1, ElimVars: 2,
		LearntDeleted: 3, LearntDB: 9, Progress: 0.25,
		MemBytes: 1 << 20, PeakMemBytes: 2 << 20, MemShrinks: 1,
	}
	a.LBDHist = LBDHistogram{1, 2, 0, 0, 0, 0, 0, 0, 1}
	b := Stats{
		Decisions: 1, Conflicts: 2, Propagations: 3, Restarts: 4,
		MaxDepth: 5, Backjumps: 6, Learnt: 7, LearntLits: 8,
		Minimised: 9, Simplified: 10, ElimVars: 11,
		LearntDeleted: 12, LearntDB: 13, Progress: 0.75,
		MemBytes: 3 << 20, PeakMemBytes: 5 << 20, MemShrinks: 2,
	}
	b.LBDHist = LBDHistogram{0, 1, 1, 0, 0, 0, 0, 0, 2}

	sum := a
	sum.Add(b)

	wantCounters := map[string][2]int64{
		"Decisions":     {sum.Decisions, a.Decisions + b.Decisions},
		"Conflicts":     {sum.Conflicts, a.Conflicts + b.Conflicts},
		"Propagations":  {sum.Propagations, a.Propagations + b.Propagations},
		"Restarts":      {sum.Restarts, a.Restarts + b.Restarts},
		"Backjumps":     {sum.Backjumps, a.Backjumps + b.Backjumps},
		"Learnt":        {sum.Learnt, a.Learnt + b.Learnt},
		"LearntLits":    {sum.LearntLits, a.LearntLits + b.LearntLits},
		"Minimised":     {sum.Minimised, a.Minimised + b.Minimised},
		"Simplified":    {sum.Simplified, a.Simplified + b.Simplified},
		"ElimVars":      {sum.ElimVars, a.ElimVars + b.ElimVars},
		"LearntDeleted": {sum.LearntDeleted, a.LearntDeleted + b.LearntDeleted},
		"LearntDB":      {sum.LearntDB, a.LearntDB + b.LearntDB},
		"MemBytes":      {sum.MemBytes, a.MemBytes + b.MemBytes},
		"PeakMemBytes":  {sum.PeakMemBytes, a.PeakMemBytes + b.PeakMemBytes},
		"MemShrinks":    {sum.MemShrinks, a.MemShrinks + b.MemShrinks},
	}
	for name, got := range wantCounters {
		if got[0] != got[1] {
			t.Errorf("%s: got %d, want sum %d", name, got[0], got[1])
		}
	}
	if sum.MaxDepth != 7 {
		t.Errorf("MaxDepth: got %d, want max 7", sum.MaxDepth)
	}
	if sum.Progress != 0.75 {
		t.Errorf("Progress: got %v, want max 0.75", sum.Progress)
	}
	for i := range sum.LBDHist {
		if want := a.LBDHist[i] + b.LBDHist[i]; sum.LBDHist[i] != want {
			t.Errorf("LBDHist[%d]: got %d, want %d", i, sum.LBDHist[i], want)
		}
	}

	// Add must be commutative on the counters and max fields.
	sum2 := b
	sum2.Add(a)
	if sum != sum2 {
		t.Errorf("Add not commutative:\n a+b = %+v\n b+a = %+v", sum, sum2)
	}
}

// TestLBDHistogramBucketing checks the bucketing against a
// hand-computed trace of LBD observations.
func TestLBDHistogramBucketing(t *testing.T) {
	// Bounds: 1, 2, 3, 4, 6, 8, 12, 16, +overflow.
	trace := []int{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 100}
	var h LBDHistogram
	for _, lbd := range trace {
		h.Observe(lbd)
	}
	want := LBDHistogram{
		2, // lbd 1 ×2
		1, // lbd 2
		1, // lbd 3
		1, // lbd 4
		2, // lbd 5,6
		2, // lbd 7,8
		2, // lbd 9,12
		2, // lbd 13,16
		2, // lbd 17,100 (overflow)
	}
	if h != want {
		t.Fatalf("bucketing mismatch:\n got  %v\n want %v", h, want)
	}
	if h.Total() != int64(len(trace)) {
		t.Fatalf("Total: got %d, want %d", h.Total(), len(trace))
	}
	// Glue fraction: LBD ≤ 2 observations are {1,1,2} of 15.
	if got, want := h.GlueFraction(), 3.0/15.0; got != want {
		t.Fatalf("GlueFraction: got %v, want %v", got, want)
	}
}

// TestLBDBucketBoundsExhaustive walks every LBD 0..20 and checks the
// bucket index is consistent with LBDBounds.
func TestLBDBucketBoundsExhaustive(t *testing.T) {
	for lbd := 0; lbd <= 20; lbd++ {
		got := LBDBucket(lbd)
		want := LBDBucketCount - 1
		for i, b := range LBDBounds {
			if lbd <= b {
				want = i
				break
			}
		}
		if got != want {
			t.Errorf("LBDBucket(%d) = %d, want %d", lbd, got, want)
		}
	}
}

// TestSolverPopulatesIntrospection runs a real solve on a pigeonhole
// formula and checks the new Stats fields are populated: every learnt
// clause lands in an LBD bucket and the learnt-DB size is stamped.
func TestSolverPopulatesIntrospection(t *testing.T) {
	s := NewFromFormula(pigeonhole(5), Options{}) // PHP(5,4): unsat, needs real search
	st, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if st != Unsat {
		t.Fatalf("pigeonhole verdict %v, want UNSAT", st)
	}
	stats := s.Stats()
	if stats.Learnt == 0 {
		t.Fatal("no learnt clauses on a pigeonhole instance")
	}
	if got := stats.LBDHist.Total(); got != stats.Learnt {
		t.Fatalf("LBD histogram total %d != learnt %d", got, stats.Learnt)
	}
}
