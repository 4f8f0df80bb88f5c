package sat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// Fuzz inputs are a flag byte followed by literals, one per byte in
// cnf.Lit's own 2v+sign encoding (variables 1..127); a byte below 2
// ends a clause. The flags pick what the run exercises besides the
// search itself.
const (
	fuzzMemBudget = 1 << 0 // solve under MemBudgetMB = 1
	fuzzLongRun   = 1 << 1 // 30000 conflicts instead of 3000: room for reduceDB
	fuzzAssumeTwo = 1 << 2 // the first two literals are assumptions, not a clause
)

func decodeFuzzInput(data []byte) (f *cnf.Formula, assumptions []cnf.Lit, opts Options) {
	f = cnf.New()
	if len(data) == 0 {
		return f, nil, opts
	}
	flags, body := data[0], data[1:]
	opts.MaxConflicts = 3000
	if flags&fuzzLongRun != 0 {
		opts.MaxConflicts = 30000
	}
	if flags&fuzzMemBudget != 0 {
		opts.MemBudgetMB = 1
	}
	if flags&fuzzAssumeTwo != 0 {
		for len(assumptions) < 2 && len(body) > 0 {
			if body[0] >= 2 {
				assumptions = append(assumptions, cnf.Lit(body[0]))
			}
			body = body[1:]
		}
	}
	var clause []cnf.Lit
	for _, b := range body {
		if b >= 2 {
			clause = append(clause, cnf.Lit(b))
			continue
		}
		f.AddClause(clause...)
		clause = nil
	}
	if clause != nil {
		f.AddClause(clause...)
	}
	return f, assumptions, opts
}

func encodeFuzzInput(flags byte, assumptions []cnf.Lit, f *cnf.Formula) []byte {
	data := []byte{flags}
	for _, a := range assumptions {
		data = append(data, byte(a))
	}
	f.Each(func(c cnf.Clause) {
		for _, l := range c {
			data = append(data, byte(l))
		}
		data = append(data, 0)
	})
	return data
}

// checkStore verifies what the clause store promises after any amount
// of search: the arena holds exactly the listed clauses, the byte
// accounting matches a recount, and each clause is watched exactly
// twice, through its first two literals, with the binary tag set on
// clauses of two literals and on no others.
func checkStore(t *testing.T, s *Solver) {
	t.Helper()
	if got, want := len(s.arena), arenaWordsByHand(s); got != want {
		t.Fatalf("arena holds %d words, its listed clauses %d", got, want)
	}
	if got, want := s.LiveBytes(), liveBytesByHand(s); got != want {
		t.Fatalf("LiveBytes %d, recounted %d", got, want)
	}
	watched := map[cref]int{}
	for l, ws := range s.watches {
		for _, w := range ws {
			c := w.ref &^ binTag
			if c == crefUndef || int(c) >= len(s.arena) {
				t.Fatalf("watcher on literal %d refers outside the arena: %d", l, c)
			}
			if (w.ref&binTag != 0) != (s.size(c) == 2) {
				t.Fatalf("clause %v: binary tag %v", s.lits(c), w.ref&binTag != 0)
			}
			if own := lit(l) ^ 1; s.arena[c] != own && s.arena[c+1] != own {
				t.Fatalf("clause %v is on the watch list of %d but does not watch it", s.lits(c), own)
			}
			watched[c]++
		}
	}
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if watched[c] != 2 {
				t.Fatalf("clause %v at %d has %d watchers", s.lits(c), c, watched[c])
			}
		}
	}
	for _, l := range s.trail {
		if r := s.reason[vidx(l)]; r != crefUndef && watched[r] != 2 {
			t.Fatalf("reason of literal %d is not a live clause: %d", l, r)
		}
	}
}

// solveFuzzInput runs one input and checks everything that can be
// checked without a second solver: a model against the formula and the
// assumptions, a refutation by CheckRUP, and the store either way.
func solveFuzzInput(t *testing.T, data []byte) (Status, Stats) {
	t.Helper()
	f, assumptions, opts := decodeFuzzInput(data)
	s := newLogging(f, opts)
	st, err := s.Solve(assumptions...)
	if err != nil && !errors.Is(err, ErrMemBudget) {
		t.Fatalf("solve: %v", err)
	}
	switch st {
	case Sat:
		assign := make([]bool, max(f.NumVars, s.NumVars())+1)
		copy(assign[1:], s.Model())
		if !f.Eval(assign) {
			t.Fatalf("model does not satisfy the formula %v", f)
		}
		for _, a := range assumptions {
			if !modelValue(s, a) {
				t.Fatalf("model violates assumption %v", a)
			}
		}
	case Unsat:
		checkRefutation(t, f, assumptions, s.ProofLog())
	}
	checkStore(t, s)
	return st, s.Stats()
}

// The seeds: small formulas of every verdict, and one for each of the
// store's two rare paths. PHP(9,8) under two assumptions is refuted
// after a learnt-DB reduction, which compacts the arena, and PHP(10,9)
// under a 1 MiB budget has to shrink its learnt DB to keep going.
func fuzzSeeds() (small [][]byte, compacting, shrinking []byte) {
	sat := cnf.New()
	sat.AddClause(mk(1, false), mk(2, false), mk(3, true))
	sat.AddClause(mk(1, true), mk(2, false))
	sat.AddClause(mk(2, true), mk(3, true))
	small = [][]byte{
		{},
		{0, 2, 3}, // x ∨ ¬x
		{0, 2, 0, 3, 0},
		encodeFuzzInput(0, nil, sat),
		encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(3, false), mk(1, false)}, sat),
		encodeFuzzInput(0, nil, pigeonhole(4)),
		encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(1, false), mk(7, true)}, pigeonhole(5)),
	}
	return small,
		encodeFuzzInput(fuzzLongRun|fuzzAssumeTwo, []cnf.Lit{mk(1, true), mk(2, true)}, pigeonhole(8)),
		encodeFuzzInput(fuzzLongRun|fuzzMemBudget, nil, pigeonhole(9))
}

func FuzzSolve(f *testing.F) {
	small, compacting, shrinking := fuzzSeeds()
	for _, seed := range append(small, compacting, shrinking) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, stats := solveFuzzInput(t, data)
		// The two long seeds must reach the paths they are here for.
		if bytes.Equal(data, compacting) && (st != Unsat || stats.LearntDeleted == 0) {
			t.Errorf("compaction seed: %v with %d learnt clauses deleted", st, stats.LearntDeleted)
		}
		if bytes.Equal(data, shrinking) && stats.MemShrinks == 0 {
			t.Error("memory seed never shrank its learnt DB under the budget")
		}
	})
}

// solveSimplified solves f with the simplification pass run before the
// first search (the simplifyAt seam at 0) and holds the answer to the
// formula as it was loaded, not as the pass left it: a model must
// satisfy every clause of f, eliminated variables included, and the
// assumptions; a refutation must pass a ProofChecker built from f.
func solveSimplified(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, opts Options) (*Solver, Status) {
	t.Helper()
	s := newLogging(f, opts)
	s.simplifyAt = 0
	st, err := s.Solve(assumptions...)
	if err != nil && !errors.Is(err, ErrMemBudget) {
		t.Fatalf("solve: %v", err)
	}
	switch st {
	case Sat:
		assign := make([]bool, max(f.NumVars, s.NumVars())+1)
		copy(assign[1:], s.Model())
		if !f.Eval(assign) {
			t.Fatalf("extended model does not satisfy the original formula (%d variables eliminated)", s.Stats().ElimVars)
		}
		for _, a := range assumptions {
			if !modelValue(s, a) {
				t.Fatalf("model violates assumption %v", a)
			}
		}
	case Unsat:
		checkRefutation(t, f, assumptions, s.ProofLog())
	}
	checkStore(t, s)
	return s, st
}

// checkSimplifiedAgainstPlain is the differential test of the pass: the
// same input solved with the pass forced and with the pass off must
// agree whenever both reach a verdict, and the forced run must repeat
// counter for counter.
func checkSimplifiedAgainstPlain(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, opts Options) (*Solver, Status) {
	t.Helper()
	s, st := solveSimplified(t, f, assumptions, opts)
	plain := NewFromFormula(f, opts)
	plain.simplified = true // the pass has had its one chance
	want, err := plain.Solve(assumptions...)
	if err != nil && !errors.Is(err, ErrMemBudget) {
		t.Fatalf("plain solve: %v", err)
	}
	if st != Unknown && want != Unknown && st != want {
		t.Fatalf("simplified search says %v, plain search %v (%d variables eliminated)", st, want, s.Stats().ElimVars)
	}
	if again, _ := solveSimplified(t, f, assumptions, opts); again.Stats() != s.Stats() {
		t.Fatalf("two runs, two sets of counters:\n%+v\n%+v", s.Stats(), again.Stats())
	}
	return s, st
}

// FuzzSimplifySolve puts FuzzSolve's inputs through the differential
// test, seeded with what the pass works on: formulas with variables to
// eliminate, clauses to subsume, units to find — and none of them.
func FuzzSimplifySolve(f *testing.F) {
	small, _, _ := fuzzSeeds()
	for _, seed := range small {
		f.Add(seed)
	}
	// Tseitin-style definitions chained to a contradiction, satisfiable
	// without the last clause: nearly every variable is eliminable.
	gates := cnf.New()
	for v := 1; v+2 <= 40; v += 2 {
		// v+2 = v ∧ v+1
		gates.AddClause(mk(v+2, true), mk(v, false))
		gates.AddClause(mk(v+2, true), mk(v+1, false))
		gates.AddClause(mk(v+2, false), mk(v, true), mk(v+1, true))
	}
	gates.AddClause(mk(39, false), mk(41, false))
	f.Add(encodeFuzzInput(0, nil, gates))
	f.Add(encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(41, true), mk(2, false)}, gates))
	gates.AddClause(mk(1, true))
	gates.AddClause(mk(41, true))
	f.Add(encodeFuzzInput(0, nil, gates))
	// Random 3-SAT near the threshold, either side of it.
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(encodeFuzzInput(0, nil, random3SAT(seed, 60, 4.26)))
		f.Add(encodeFuzzInput(fuzzAssumeTwo, []cnf.Lit{mk(7, false), mk(30, true)}, random3SAT(seed, 100, 4.0)))
	}
	f.Add(encodeFuzzInput(fuzzLongRun, nil, random3SAT(5, 120, 4.3)))
	// A few thousand conflicts after the pass: restarts, imports of
	// nothing, learnt clauses over the variables that are left.
	f.Add(encodeFuzzInput(fuzzLongRun|fuzzAssumeTwo, []cnf.Lit{mk(1, true), mk(2, true)}, pigeonhole(7)))

	f.Fuzz(func(t *testing.T, data []byte) {
		formula, assumptions, opts := decodeFuzzInput(data)
		checkSimplifiedAgainstPlain(t, formula, assumptions, opts)
	})
}

// A FuzzCheckRUP input is a FuzzSolve input, then a byte 1, then the
// steps of a claimed proof in the same clause encoding. A clause ended
// by a byte 0 is a lemma, and its chain follows: each ID plus one as a
// uvarint, which has no byte 0, then a byte 0. A clause ended by a byte
// 1 is a deletion logged where it stands, and its ID plus one follows as
// a uvarint. Without the separator the proof is empty; a step the data
// ends inside of is taken as far as it goes.
func decodeFuzzProofInput(data []byte) (f *cnf.Formula, assumptions []cnf.Lit, opts Options, claimed *draft) {
	claimed = &draft{}
	if len(data) > 1 {
		if cut := bytes.IndexByte(data[1:], 1); cut >= 0 {
			steps := data[cut+2:]
			// id reads one uvarint ID off steps, false at a byte 0 or at
			// the end.
			id := func() (uint32, bool) {
				x, n := binary.Uvarint(steps)
				if n <= 0 || x == 0 {
					steps = steps[min(max(n, 1), len(steps)):]
					return 0, false
				}
				steps = steps[n:]
				return uint32(x - 1), true
			}
			var clause cnf.Clause
			for len(steps) > 0 {
				b := steps[0]
				steps = steps[1:]
				switch b {
				case 0:
					var chain []uint32
					for x, ok := id(); ok; x, ok = id() {
						chain = append(chain, x)
					}
					claimed.Lemmas = append(claimed.Lemmas, clause)
					claimed.Chains = append(claimed.Chains, chain)
					clause = nil
				case 1:
					x, _ := id()
					claimed.Deletes = append(claimed.Deletes, deletion{At: len(claimed.Lemmas), ID: x, Clause: clause})
					clause = nil
				default:
					clause = append(clause, cnf.Lit(b))
				}
			}
			if clause != nil {
				claimed.Lemmas = append(claimed.Lemmas, clause)
			}
			data = data[:cut+1]
		}
	}
	f, assumptions, opts = decodeFuzzInput(data)
	return f, assumptions, opts, claimed
}

// withFuzzProof appends p to a FuzzSolve input whose clauses end in 0.
// A deletion whose At is out of order is encoded where its turn comes.
func withFuzzProof(input []byte, p *draft) []byte {
	out := append(input[:len(input):len(input)], 1)
	clause := func(c cnf.Clause, end byte) {
		for _, l := range c {
			out = append(out, byte(l))
		}
		out = append(out, end)
	}
	dels := p.Deletes
	deletion := func() {
		clause(dels[0].Clause, 1)
		out = binary.AppendUvarint(out, uint64(dels[0].ID)+1)
		dels = dels[1:]
	}
	for i, lemma := range p.Lemmas {
		for len(dels) > 0 && dels[0].At <= i {
			deletion()
		}
		clause(lemma, 0)
		for _, id := range p.chain(i) {
			out = binary.AppendUvarint(out, uint64(id)+1)
		}
		out = append(out, 0)
	}
	for len(dels) > 0 {
		deletion()
	}
	return out
}

// scrambledChains gives every lemma of p a chain cut from noise, which
// comes round as often as it takes: each byte an ID, of a clause the
// checker may or may not hold, in any order.
func scrambledChains(p *draft, noise []byte) *draft {
	q := &draft{Lemmas: p.Lemmas, Deletes: p.Deletes, Chains: make([][]uint32, len(p.Lemmas))}
	for i := range q.Chains {
		if len(noise) == 0 {
			break
		}
		from := 7 * i % len(noise)
		for _, b := range noise[from:min(from+1+i%9, len(noise))] {
			q.Chains[i] = append(q.Chains[i], uint32(b))
		}
	}
	return q
}

// hostileChains gives every lemma of p, in rotation, its own chain
// shuffled, its own chain truncated to its first half, the IDs of the
// clauses p deletes, and IDs the checker has no clause for: the lemma's
// own and later ones, past the last, and noID. clauses is the formula's
// clause count.
func hostileChains(p *draft, clauses int) *draft {
	q := &draft{Lemmas: p.Lemmas, Deletes: p.Deletes, Chains: make([][]uint32, len(p.Lemmas))}
	var deleted []uint32
	for _, d := range p.Deletes {
		deleted = append(deleted, d.ID)
	}
	for i := range q.Chains {
		own := p.chain(i)
		switch i % 4 {
		case 0:
			q.Chains[i] = slices.Clone(own)
			rand.New(rand.NewSource(int64(i))).Shuffle(len(own), func(a, b int) {
				q.Chains[i][a], q.Chains[i][b] = q.Chains[i][b], q.Chains[i][a]
			})
		case 1:
			q.Chains[i] = own[:len(own)/2]
		case 2:
			q.Chains[i] = deleted
		case 3:
			self := uint32(clauses + i)
			q.Chains[i] = []uint32{self, self + 1, uint32(clauses + len(p.Lemmas)), noID}
		}
	}
	return q
}

// checkFuzzProof puts one proof to a checker that has checked others
// and to a fresh checker — with the chains it came with, with chains cut
// from noise, with hostile ones and with none — and returns the fresh
// checker's answer to it as it came. The two must agree to the letter on
// each, down to the lemma they reject. What either accepts, the
// chain-blind reference engine accepts given the lemmas alone (it
// deletes by literals, the checker by ID): so a forged chain is rejected
// unless the reference accepts the proof. Nothing may be accepted
// against a formula the solver satisfied, whatever the proof deletes,
// and what checks with its deletions checks without them.
func checkFuzzProof(t *testing.T, reused *ProofChecker, f *cnf.Formula, assumptions []cnf.Lit, p *draft, solved Status, noise []byte) error {
	t.Helper()
	ref := referenceCheckRUP(f, assumptions, (&draft{Lemmas: p.Lemmas}).flat())
	var asItCame error
	for _, v := range []struct {
		name    string
		chained *draft
	}{
		{"as it came", p}, {"under scrambled chains", scrambledChains(p, noise)},
		{"under hostile chains", hostileChains(p, f.NumClauses())}, {"without chains", &draft{Lemmas: p.Lemmas, Deletes: p.Deletes}},
	} {
		name, chained := v.name, v.chained
		flat := chained.flat()
		fresh := CheckRUP(f, assumptions, flat)
		if name == "as it came" {
			asItCame = fresh
		}
		if got := reused.Check(assumptions, flat); errText(got) != errText(fresh) {
			t.Fatalf("reused checker, the proof %s: %s\nfresh checker: %s", name, errText(got), errText(fresh))
		}
		if fresh == nil && ref != nil {
			t.Fatalf("the proof %s: accepted; the reference engine: %v", name, ref)
		}
		if fresh == nil && solved == Sat {
			t.Fatalf("accepted a refutation of a satisfiable formula: %v under %v, lemmas %v, chains %v, deletions %v",
				f, assumptions, chained.Lemmas, chained.Chains, chained.Deletes)
		}
		// A deletion can only take clauses away: what checks with them
		// checks without.
		if fresh == nil && len(p.Deletes) > 0 {
			if err := CheckRUP(f, assumptions, (&draft{Lemmas: p.Lemmas, Chains: chained.Chains}).flat()); err != nil {
				t.Fatalf("the proof %s: accepted with its %d deletions, rejected without: %v", name, len(p.Deletes), err)
			}
		}
	}
	return asItCame
}

// cutProof splits p before lemma number cut: the deletions that take
// effect before it go with the prefix, the rest count from the tail's
// first lemma; each lemma's chain goes where the lemma goes.
func cutProof(p *draft, cut int) (prefix, tail *draft) {
	prefix, tail = &draft{Lemmas: p.Lemmas[:cut]}, &draft{Lemmas: p.Lemmas[cut:]}
	if chains := min(cut, len(p.Chains)); len(p.Chains) > 0 {
		prefix.Chains, tail.Chains = p.Chains[:chains], p.Chains[chains:]
	}
	dels := p.Deletes
	for ; len(dels) > 0 && dels[0].At <= cut; dels = dels[1:] {
		prefix.Deletes = append(prefix.Deletes, dels[0])
	}
	for _, d := range dels {
		d.At -= cut
		tail.Deletes = append(tail.Deletes, d)
	}
	return prefix, tail
}

// checkExtendLaw cuts a proof at every step boundary — at lawCuts of
// them, spread over it, the two ends among them, for a longer proof —
// into a prefix and a tail and holds both laws of a cut to it. Joined:
// each half is a proof Steps accepts, and the two appended are the
// whole, to the byte. Extended (Extend, ExtendDone), on one checker
// extended from cut to cut a stretch at a time, while the stretches
// stand under no assumption: Check(tail) accepts exactly when Check of
// the whole does, deletions included — those of the prefix leave the
// base for good, those of the tail come back with every reset. And at
// both ends and in the middle, on a fresh checker and on one that has
// been through the whole proof before, extended by the prefix at once:
// Check(tail), twice, the second from the base the prefix moved, answers
// as the whole's check does; where a lemma of the prefix does not stand,
// ExtendDone says so and the checker answers for the whole proof as if
// nothing had been tried.
func checkExtendLaw(t *testing.T, f *cnf.Formula, assumptions []cnf.Lit, d *draft) {
	t.Helper()
	p := d.flat()
	whole := CheckRUP(f, assumptions, p)
	cuts := stepCuts(p, lawCuts)
	grown := NewProofChecker(f)
	for i, cut := range cuts {
		prefix, tail := relog(p[:cut]), relog(p[cut:])
		if prefix == nil || tail == nil || !bytes.Equal(append(slices.Clip(prefix), tail...), p) {
			t.Fatalf("cut at byte %d of %d, between steps: halves of %d and %d bytes, or refused", cut, len(p), len(prefix), len(tail))
		}
		if grown != nil && i > 0 {
			grown.Extend(p[cuts[i-1]:cut])
			if grown.ExtendDone() != nil {
				grown = nil // the cuts at both ends and in the middle hold what follows
			}
		}
		if grown == nil {
			continue
		}
		if got := grown.Check(assumptions, tail); (got == nil) != (whole == nil) {
			t.Fatalf("cut at byte %d of %d: extended a stretch at a time, Check says %s, Check of the whole %s",
				cut, len(p), errText(got), errText(whole))
		}
	}
	for _, cut := range []int{0, cuts[len(cuts)/2], len(p)} {
		reused := NewProofChecker(f)
		_ = reused.Check(assumptions, p)
		for _, c := range []*ProofChecker{NewProofChecker(f), reused} {
			c.Extend(p[:cut])
			if err := c.ExtendDone(); err != nil {
				if got := c.Check(assumptions, p); errText(got) != errText(whole) {
					t.Fatalf("after a rejected extension (%v) the checker says %s of the whole proof, a fresh one %s",
						err, errText(got), errText(whole))
				}
				continue
			}
			for range 2 {
				if got := c.Check(assumptions, p[cut:]); (got == nil) != (whole == nil) {
					t.Fatalf("cut at byte %d of %d: extend then Check says %s, Check of the whole %s",
						cut, len(p), errText(got), errText(whole))
				}
			}
		}
	}
}

// lawCuts bounds the cuts checkExtendLaw makes: each costs a few checks
// of the whole proof.
const lawCuts = 64

// stepCuts returns the byte offsets of the step boundaries of p, a proof
// Steps accepts, both ends included: all of them, or most of them spread
// evenly over it.
func stepCuts(p Proof, most int) []int {
	cuts := []int{0}
	var log FlatLog
	p.Steps(func(deleted bool, clause, ids []uint32) error {
		log.Step(deleted, clause, ids)
		cuts = append(cuts, len(log))
		return nil
	})
	if len(cuts) <= most {
		return cuts
	}
	spread := make([]int, most)
	for i := range spread {
		spread[i] = cuts[i*(len(cuts)-1)/(most-1)]
	}
	return spread
}

func FuzzCheckRUP(f *testing.F) {
	small, _, _ := fuzzSeeds()
	for _, seed := range small {
		f.Add(seed)
		// Each refutable seed again with its proof, and with the proof
		// cut short, reversed and weakened by an unknown variable; then
		// with the proof of a search simplified before it began, which
		// deletes what the pass removed, and that one corrupted: every
		// deletion twice, clauses of the formula deleted before the first
		// lemma, the deletions without the lemmas. Every claimed lemma
		// carries the chain the solver logged for it, reversed with it,
		// so that the fuzzer starts from proofs that check. (Chains and
		// deletions logged after a reduceDB
		// take ten thousand conflicts to come by, and this body solves its
		// input three times and checks each proof six ways: fuzzSeeds'
		// compacting input as a seed here was measured at 49 s. The fuzzer
		// finds them behind fuzzLongRun; TestChainsAreTheProof and
		// TestProofDeletesWhatTheSolverDropped hold one such proof, and a
		// forgery of it, to the reference engine under every chain variant.)
		formula, assumptions, opts := decodeFuzzInput(seed)
		s := newLogging(formula, opts)
		if st, _ := s.Solve(assumptions...); st != Unsat || s.ProofLog().NumLemmas() == 0 {
			continue
		}
		log := draftOf(s.ProofLog())
		lemmas, half := log.Lemmas, len(log.Lemmas)/2
		f.Add(withFuzzProof(seed, log))
		f.Add(withFuzzProof(seed, &draft{Lemmas: lemmas[:half], Chains: log.Chains[:half]}))
		reversed := &draft{Lemmas: slices.Clone(lemmas), Chains: slices.Clone(log.Chains)}
		slices.Reverse(reversed.Lemmas)
		slices.Reverse(reversed.Chains)
		f.Add(withFuzzProof(seed, reversed))
		f.Add(withFuzzProof(seed, &draft{Lemmas: []cnf.Clause{append(cnf.Clause{mk(120, false)}, lemmas[0]...)}, Chains: log.Chains[:1]}))

		simplified := newLogging(formula, opts)
		simplified.simplifyAt = 0
		if st, _ := simplified.Solve(assumptions...); st != Unsat || len(draftOf(simplified.ProofLog()).Deletes) == 0 {
			continue
		}
		p := draftOf(simplified.ProofLog())
		f.Add(withFuzzProof(seed, p))
		twice := &draft{Lemmas: p.Lemmas, Chains: p.Chains}
		for _, d := range p.Deletes {
			twice.Deletes = append(twice.Deletes, d, d)
		}
		f.Add(withFuzzProof(seed, twice))
		robbed := &draft{Lemmas: p.Lemmas, Chains: p.Chains, Deletes: slices.Clone(p.Deletes)}
		formula.BuildClauses()
		for id, c := range formula.Clauses[:min(4, len(formula.Clauses))] {
			robbed.Deletes = slices.Insert(robbed.Deletes, 0, deletion{ID: uint32(id), Clause: c})
		}
		f.Add(withFuzzProof(seed, robbed))
		f.Add(withFuzzProof(seed, &draft{Deletes: p.Deletes}))
	}
	// TestCheckRUPLemmaUnitUnderRoot's formula and proof, the lemmas
	// with a duplicate literal and a tautology among them, the unit cited
	// where the lemma (2) needs it, and the deletion of a tautology, a
	// clause nobody has, and a clause and the unit that the lemmas after
	// them do not need.
	unitUnderRoot := cnf.New()
	for _, c := range [][]int{{-1}, {2, 3, 4}, {2, 3, -4}, {-3, 5}, {-3, -5}, {-2, 6}, {-2, -6}} {
		var clause cnf.Clause
		for _, d := range c {
			clause = append(clause, cnf.FromDimacs(d))
		}
		unitUnderRoot.AddClause(clause...)
	}
	f.Add(withFuzzProof(encodeFuzzInput(0, nil, unitUnderRoot), &draft{
		Lemmas: []cnf.Clause{
			{mk(1, false), mk(2, false), mk(3, false), mk(2, false)},
			{mk(5, false), mk(5, true)},
			{mk(2, false)},
			{}},
		Chains: [][]uint32{{1, 2}, nil, {0, 7, 3, 4}, {9, 5, 6}},
		Deletes: []deletion{
			{At: 0, ID: 3, Clause: cnf.Clause{mk(5, false), mk(5, true)}},
			{At: 1, ID: 5, Clause: cnf.Clause{mk(90, false), mk(2, false)}},
			{At: 2, ID: 1, Clause: cnf.Clause{mk(4, false), mk(2, false), mk(3, false)}},
			{At: 3, ID: 0, Clause: cnf.Clause{mk(1, true)}}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		formula, assumptions, opts, claimed := decodeFuzzProofInput(data)
		s := newLogging(formula, opts)
		solved, err := s.Solve(assumptions...)
		if err != nil && !errors.Is(err, ErrMemBudget) {
			t.Fatalf("solve: %v", err)
		}
		reused := NewProofChecker(formula)
		first := checkFuzzProof(t, reused, formula, assumptions, claimed, solved, data)
		// The solver's own refutations: of the search as it went, and of
		// one simplified before it began, whose log deletes what the pass
		// removed.
		simplified, simplifiedSt := solveSimplified(t, formula, assumptions, opts)
		if solved == Unsat {
			checkRefutation(t, formula, assumptions, s.ProofLog())
			if err := checkFuzzProof(t, reused, formula, assumptions, draftOf(s.ProofLog()), solved, data); err != nil {
				t.Fatalf("the solver's refutation rejected: %v", err)
			}
		}
		if simplifiedSt == Unsat {
			if err := checkFuzzProof(t, reused, formula, assumptions, draftOf(simplified.ProofLog()), simplifiedSt, data); err != nil {
				t.Fatalf("the simplified solver's refutation rejected: %v", err)
			}
		}
		// The same answer again, now that the checker has been through
		// a whole proof or a rejection.
		if again := checkFuzzProof(t, reused, formula, assumptions, claimed, solved, data); errText(again) != errText(first) {
			t.Fatalf("claimed proof: first %s, then %s", errText(first), errText(again))
		}
		checkExtendLaw(t, formula, assumptions, claimed)
		if solved == Unsat {
			checkExtendLaw(t, formula, assumptions, draftOf(s.ProofLog()))
		}
		if simplifiedSt == Unsat {
			checkExtendLaw(t, formula, assumptions, draftOf(simplified.ProofLog()))
		}
	})
}
