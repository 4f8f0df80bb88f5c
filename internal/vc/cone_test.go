package vc_test

import (
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/vc"
)

// coneStats is what the encoder emits against what its one asserted
// root needs (ROADMAP item 5(a)).
type coneStats struct {
	vars, gates, clauses int
	// Gates reachable from the root through the gate table, and the
	// clauses that define them (three per AND, four per XOR) plus the
	// two units, the constant and the root.
	coneGates, coneClauses int
	// Of those, the clauses a polarity-aware (Plaisted–Greenbaum)
	// Tseitin transformation would still emit: an AND needed only
	// positively keeps its two binary clauses, one needed only
	// negatively its ternary one, an XOR two of its four per polarity.
	polarityClauses int
}

// walkCone measures the cone of influence of the encoder's root. The
// encoder asserts one literal, `violated`, after everything else: the
// last clause of the formula.
func walkCone(t testing.TB, enc *vc.Encoded) coneStats {
	t.Helper()
	f, b := enc.Formula(), enc.Ctx.B
	st := coneStats{vars: f.NumVars, clauses: f.NumClauses(), coneClauses: 2, polarityClauses: 2}
	defined := 2
	for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
		switch kind, _, _ := b.Gate(v); kind {
		case cnf.GateAnd:
			st.gates++
			defined += 3
		case cnf.GateXor:
			st.gates++
			defined += 4
		}
	}
	last := f.Clauses[len(f.Clauses)-1]
	if defined != st.clauses || len(last) != 1 {
		t.Fatalf("gates define %d of %d clauses, last clause %v: not the units and the gates", defined, st.clauses, last)
	}

	// need[v]: bit 0 — v is needed true somewhere, bit 1 — false.
	const pos, neg = 1, 2
	need := make([]uint8, f.NumVars+1)
	var work []cnf.Var
	want := func(l cnf.Lit, p uint8) {
		if l.Neg() {
			p = p>>1 | p&1<<1
		}
		if need[l.Var()]|p != need[l.Var()] {
			need[l.Var()] |= p
			work = append(work, l.Var())
		}
	}
	want(last[0], pos)
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		switch kind, x, y := b.Gate(v); kind {
		case cnf.GateAnd:
			want(x, need[v])
			want(y, need[v])
		case cnf.GateXor:
			want(x, pos|neg)
			want(y, pos|neg)
		}
	}
	for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
		kind, _, _ := b.Gate(v)
		if need[v] == 0 || kind == cnf.GateNone {
			continue
		}
		st.coneGates++
		p, n := int(need[v]&pos), int(need[v]&neg>>1)
		if kind == cnf.GateAnd {
			st.coneClauses += 3
			st.polarityClauses += 2*p + n
		} else {
			st.coneClauses += 4
			st.polarityClauses += 2*p + 2*n
		}
	}
	return st
}

// TestConeOfInfluence prints (-v) the table of EXPERIMENTS.md, "What the
// root needs of what the encoder emits", and holds its one multi-job
// formula to the numbers recorded there.
func TestConeOfInfluence(t *testing.T) {
	share := func(a, b int) string { return fmt.Sprintf("%.1f", 100*float64(a)/float64(b)) }
	for _, d := range dimacsDigests[:20] {
		st := walkCone(t, encodeCell(t, d.cell))
		if st.coneGates > st.gates || st.polarityClauses > st.coneClauses || st.coneClauses > st.clauses {
			t.Fatalf("%s: %+v", d.cell, st)
		}
		row := []string{share(st.coneGates, st.gates), share(st.coneClauses, st.clauses), share(st.polarityClauses, st.clauses)}
		t.Logf("| `%s` | %d | %d | %d | %s | %s | %s |", d.cell, st.vars, st.gates, st.clauses, row[0], row[1], row[2])
		if d.cell == "es.u2.c6" && (row[1] != "92.7" || row[2] != "85.6") {
			t.Errorf("es.u2.c6: %s %% of the clauses in the cone, %s %% under polarity; recorded 92.7 and 85.6", row[1], row[2])
		}
	}
}
