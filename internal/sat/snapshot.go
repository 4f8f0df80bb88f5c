package sat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// A snapshot is a solver's state in bytes, for another process to
// restore: what Clone copies or shares — the clause arena in order, the
// clause lists and watch lists, the level-0 trail and every per-variable
// table, the frozen set, the map to the formula's numbering and the
// elimination stack — and the search counters, so that a solver
// restored from it is the solver that was snapshotted, down to where
// its next Solve starts counting.
// It leaves out what Clone leaves out (callbacks, the decision graph, a
// model, a pending interrupt, scratch space) and the options and the
// proof log, which are the restoring side's: Restore takes the options,
// and proof logging is switched on there (EnableProof). The clause IDs
// travel with the clauses — the arena has them if the snapshotted
// solver logged — and so do the next ID and the unit IDs of the level-0
// trail, so that the restored solver's lemmas continue the snapshotted
// one's log, as a clone's would.
//
// The format is the magic below, then unsigned varints, field by field
// in the order Snapshot writes them; it is an exchange between two
// processes of one build, not a file format to keep.
const snapshotMagic = "PBMCSAT4"

// snapWriter appends a snapshot's fields.
type snapWriter struct{ b []byte }

func (w *snapWriter) uint(x uint64) { w.b = binary.AppendUvarint(w.b, x) }
func (w *snapWriter) int(x int64)   { w.b = binary.AppendVarint(w.b, x) }
func (w *snapWriter) float(x float64) {
	w.uint(math.Float64bits(x))
}

func (w *snapWriter) bool(x bool) {
	if x {
		w.uint(1)
	} else {
		w.uint(0)
	}
}

// words writes a length and then the words.
func (w *snapWriter) words(ws []uint32) {
	w.uint(uint64(len(ws)))
	for _, x := range ws {
		w.uint(uint64(x))
	}
}

// bits writes n flags, eight to a byte.
func (w *snapWriter) bits(flags []bool) {
	packed := make([]byte, (len(flags)+7)/8)
	for i, f := range flags {
		if f {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	w.b = append(w.b, packed...)
}

// Snapshot returns the solver's state as Restore reads it. Like Clone it
// must not be called while s is being solved.
func (s *Solver) Snapshot() []byte {
	w := &snapWriter{b: make([]byte, 0, 4*(len(s.arena)+s.elimStack.words)+32*s.numVars)}
	w.b = append(w.b, snapshotMagic...)
	w.uint(uint64(s.numVars))
	w.uint(uint64(s.numElim))
	w.bool(s.ok)
	w.bool(s.ids)
	w.uint(uint64(s.nextID))
	w.bool(s.simplified)
	w.int(s.simplifyAt)
	w.uint(uint64(s.qhead))
	w.float(s.varInc)
	w.float(s.claInc)
	w.uint(s.rngState)

	w.words(s.arena)
	w.words(s.clauses)
	w.words(s.learnts)
	for _, ws := range s.watches {
		w.uint(uint64(len(ws)))
		for _, x := range ws {
			w.uint(uint64(x.ref<<1 | x.ref>>31))
			w.uint(uint64(x.blocker))
		}
	}

	for _, v := range s.vals {
		w.uint(uint64(v + 1))
	}
	for _, l := range s.level {
		w.int(int64(l))
	}
	for _, r := range s.reason {
		w.uint(uint64(r))
	}
	for _, a := range s.activity {
		w.float(a)
	}
	w.bits(s.polarity)
	w.bits(s.frozen)
	w.words(s.ext)
	w.uint(uint64(len(s.elimStack.chunks)))
	for _, chunk := range s.elimStack.chunks {
		w.words(chunk)
	}

	w.words(s.trail)
	w.uint(uint64(len(s.trailLim)))
	for _, n := range s.trailLim {
		w.uint(uint64(n))
	}
	w.uint(uint64(len(s.order.heap)))
	for _, v := range s.order.heap {
		w.uint(uint64(v))
	}
	if s.ids {
		for _, l := range s.trail[:s.level0()] {
			w.uint(uint64(s.units[vidx(l)] + 1)) // noID is 0
		}
		w.uint(uint64(s.logged))
	}

	for _, x := range statsFields(s) {
		w.int(*x)
	}
	w.int(int64(s.stats.MaxDepth))
	w.float(s.stats.Progress)
	return w.b
}

// snapReader reads a snapshot's fields; the first fault sticks, and
// drops what is left to read, so that every read after it returns zero.
type snapReader struct {
	b   []byte
	err error
}

var errSnapshot = errors.New("sat: bad snapshot")

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errSnapshot}, args...)...)
	}
	r.b = nil
}

func (r *snapReader) uint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 { // most fields fit a byte
		x := r.b[0]
		r.b = r.b[1:]
		return uint64(x)
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *snapReader) int() int64 {
	x, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *snapReader) float() float64 { return math.Float64frombits(r.uint()) }

// below reads a value that must be less than limit.
func (r *snapReader) below(limit uint64, what string) uint64 {
	x := r.uint()
	if x >= limit {
		r.fail("%s %d out of range (limit %d)", what, x, limit)
		return 0
	}
	return x
}

func (r *snapReader) bool(what string) bool { return r.below(2, what) == 1 }

// count reads a length whose items take at least one byte each, so that
// no length the rest of the input cannot hold allocates anything.
func (r *snapReader) count(what string) int {
	return int(r.below(uint64(len(r.b))+1, what))
}

// words reads a length and then that many words, each below limit.
func (r *snapReader) words(limit uint64, what string) []uint32 {
	ws := make([]uint32, r.count(what))
	b := r.b
	for i := range ws {
		x, n := binary.Uvarint(b)
		if n <= 0 || x >= limit {
			r.fail("%s word %d: not a word below %d", what, i, limit)
			return ws
		}
		ws[i], b = uint32(x), b[n:]
	}
	r.b = b
	return ws
}

// bits reads n flags, eight to a byte.
func (r *snapReader) bits(n int) []bool {
	size := (n + 7) / 8
	if len(r.b) < size {
		r.fail("truncated flags")
		return make([]bool, n)
	}
	flags := make([]bool, n)
	for i := range flags {
		flags[i] = r.b[i/8]&(1<<(i%8)) != 0
	}
	r.b = r.b[size:]
	return flags
}

// Restore returns the solver data is a Snapshot of, with opts as its
// options (the snapshotted solver's, for a restored solver that is that
// solver) and its proof log off. It checks what it reads — every literal
// and variable in range, every clause reference at a clause of the
// arena, which the listed clauses tile, every watcher on a clause that
// watches its literal, the trail and the assignment agreeing, the
// decision heap a permutation, the map strictly increasing and naming
// exactly the variables the elimination stack does not, every unit ID
// below the next ID and on a literal of the level-0 trail — and refuses
// bytes that are not a snapshot with an error wrapping errSnapshot,
// never a panic.
func Restore(data []byte, opts Options) (*Solver, error) {
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: no snapshot header", errSnapshot)
	}
	r := &snapReader{b: data[len(snapshotMagic):]}
	opts.setDefaults()
	s := &Solver{opts: opts}
	// Each variable takes at least two bytes below (its two values), so
	// the input bounds the tables before anything is allocated for them.
	s.numVars = int(r.below(min(uint64(len(r.b))/2+1, 1<<30), "variable count"))
	// And each eliminated one two words of the elimination stack.
	s.numElim = int(r.below(min(uint64(len(r.b))/2+1, 1<<30), "eliminated variable count"))
	s.ok = r.bool("ok flag")
	s.ids = r.bool("ID flag")
	s.nextID = uint32(r.below(1<<32, "next ID"))
	s.simplified = r.bool("simplified flag")
	s.simplifyAt = r.int()
	qhead := r.uint()
	s.varInc, s.claInc = r.float(), r.float()
	s.rngState = r.uint()
	rs := &restorer{snapReader: r, s: s, lits: uint64(2*s.numVars + 2), extLits: uint64(2*s.NumVars() + 2)}
	for _, section := range []func(){rs.clauses, rs.watches, rs.vars, rs.elimStack, rs.order, rs.units} {
		if r.err != nil {
			return nil, r.err
		}
		section()
	}
	if qhead > uint64(len(s.trail)) {
		r.fail("propagation head %d past the trail's %d literals", qhead, len(s.trail))
	}
	s.qhead = int(qhead)
	for _, x := range statsFields(s) {
		*x = r.int()
	}
	s.stats.MaxDepth = int(r.int())
	s.stats.Progress = r.float()
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d bytes after the last field", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := rs.checkAssignment(); err != nil {
		return nil, err
	}
	s.seen = make([]byte, s.numVars)
	s.lbdStamp = make([]uint32, s.numVars+1)
	return s, nil
}

// statsFields are the counters a snapshot carries, beside MaxDepth and
// Progress, in its order: the solver's own and its peak footprint.
func statsFields(s *Solver) []*int64 {
	st := &s.stats
	fields := []*int64{&st.Decisions, &st.Conflicts, &st.Propagations, &st.Restarts,
		&st.Backjumps, &st.Learnt, &st.LearntLits, &st.Minimised, &st.Simplified, &st.ElimVars,
		&st.LearntDeleted, &st.LearntDB, &st.MemBytes, &st.PeakMemBytes, &st.MemShrinks, &s.peakBytes}
	for i := range st.LBDHist {
		fields = append(fields, &st.LBDHist[i])
	}
	return fields
}

// restorer reads the sections of a snapshot into s, checking each
// against what came before it.
type restorer struct {
	*snapReader
	s       *Solver
	lits    uint64  // literals run from 2 to lits-1
	extLits uint64  // and in the formula's numbering, to extLits-1
	sizes   []int32 // of the listed clauses, by reference; 0 where none starts
}

func (rs *restorer) validLit(l uint64) bool { return l >= 2 && l < rs.lits }

// clauses reads the arena and the two clause lists.
func (rs *restorer) clauses() {
	s := rs.s
	s.arena = rs.words(1<<32, "arena") // activities are any bits
	s.clauses = rs.words(uint64(len(s.arena)), "clause reference")
	s.learnts = rs.words(uint64(len(s.arena)), "learnt reference")
	if rs.err == nil {
		rs.sizes = restoreClauses(rs.snapReader, s, rs.validLit)
	}
}

// watches reads the watch lists: every watcher on a listed clause that
// watches the list's literal, with a blocker of the clause (the other
// literal of a binary one), and every clause watched twice. The lists
// are carved from one allocation, as reserve and Clone make them.
func (rs *restorer) watches() {
	s := rs.s
	s.watches = make([][]watcher, rs.lits)
	backing := make([]watcher, 2*(len(s.clauses)+len(s.learnts)))
	watchers := make([]int, len(s.arena)) // per clause
	for l := range s.watches {
		n := rs.count("watch list")
		if n > len(backing) {
			rs.fail("more watchers than two a clause")
			return
		}
		ws := backing[:n:n]
		backing = backing[n:]
		for i := range ws {
			ref, blocker := rs.below(1<<32, "watcher"), lit(rs.below(rs.lits, "blocker"))
			c := uint32(ref >> 1)
			if rs.err != nil || int(c) >= len(rs.sizes) || rs.sizes[c] == 0 || blocker < 2 {
				rs.fail("watcher on literal %d: clause %d, blocker %d", l, c, blocker)
				return
			}
			cl := s.arena[c : c+uint32(rs.sizes[c])]
			bin := ref&1 != 0
			if own := lit(l) ^ 1; cl[0] != own && cl[1] != own || bin != (len(cl) == 2) ||
				bin && blocker != cl[0]^cl[1]^own || !slices.Contains(cl, blocker) {
				rs.fail("watcher on literal %d does not watch clause %d", l, c)
				return
			}
			ws[i] = watcher{ref: c | uint32(ref)<<31, blocker: blocker}
			watchers[c]++
		}
		s.watches[l] = ws
	}
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if watchers[c] != 2 {
				rs.fail("clause %d has %d watchers", c, watchers[c])
			}
		}
	}
}

// vars reads the per-variable tables.
func (rs *restorer) vars() {
	s, n := rs.s, rs.s.numVars
	s.vals = make([]int8, rs.lits)
	for l := range s.vals {
		s.vals[l] = int8(rs.below(3, "value")) - 1
	}
	s.level = make([]int32, n)
	for v := range s.level {
		x := rs.int()
		if x < 0 || x > int64(n) {
			rs.fail("level %d of variable %d", x, v+1)
		}
		s.level[v] = int32(x)
	}
	s.reason = make([]cref, n)
	for v := range s.reason {
		s.reason[v] = cref(rs.below(binTag, "reason")) // checked for the assigned, in checkAssignment
	}
	s.activity = make([]float64, n)
	for v := range s.activity {
		s.activity[v] = rs.float()
	}
	s.polarity, s.frozen = rs.bits(n), rs.bits(n)
	s.ext = rs.words(rs.extLits/2, "map entry")
	if s.numElim == 0 && len(s.ext) != 0 || s.numElim > 0 && len(s.ext) != n {
		rs.fail("a map of %d variables for %d kept and %d eliminated", len(s.ext), n, s.numElim)
	}
	for i, v := range s.ext {
		if v == 0 || i > 0 && v <= s.ext[i-1] {
			rs.fail("map entry %d: variable %d out of range or out of order", i, v)
			return
		}
	}
	if len(s.ext) == 0 {
		s.ext = nil
	}
}

// elimStack reads the elimination stack, chunk by chunk: clauses of at
// least one literal of the formula's numbering, each followed by its
// length and headed by the literal of the variable it was eliminated
// with. Those variables are the ones the map leaves out, all of them.
func (rs *restorer) elimStack() {
	st := &rs.s.elimStack
	heads := make([]bool, rs.extLits/2)
	numHeads := 0
	for range rs.count("elimination chunk") {
		chunk := rs.words(rs.extLits, "elimination stack word")
		for i := len(chunk); i > 0 && rs.err == nil; {
			size := int(chunk[i-1])
			if size < 1 || size > i-1 || slices.ContainsFunc(chunk[i-1-size:i-1], func(l lit) bool { return l < 2 }) {
				rs.fail("elimination stack clause of %d literals", size)
				break
			}
			if v := chunk[i-1-size] >> 1; !heads[v] {
				heads[v] = true
				numHeads++
			}
			i -= size + 1
		}
		st.chunks = append(st.chunks, chunk)
		st.words += len(chunk)
	}
	for _, v := range rs.s.ext {
		if heads[v] {
			rs.fail("the map names variable %d, which the pass eliminated", v)
			return
		}
	}
	if numHeads != rs.s.numElim {
		rs.fail("%d variables eliminated on the stack, %d counted", numHeads, rs.s.numElim)
	}
}

// order reads the trail, the decision levels and the decision heap.
func (rs *restorer) order() {
	s, n := rs.s, rs.s.numVars
	s.trail = rs.words(rs.lits, "trail literal")
	s.trailLim = make([]int, rs.count("decision level"))
	for i := range s.trailLim {
		s.trailLim[i] = int(rs.below(uint64(len(s.trail))+1, "decision level start"))
		if i > 0 && s.trailLim[i] < s.trailLim[i-1] {
			rs.fail("decision levels out of order")
		}
	}
	s.order.heap = make([]int32, rs.count("heap"))
	s.order.pos = make([]int32, n)
	for v := range s.order.pos {
		s.order.pos[v] = -1
	}
	for i := range s.order.heap {
		v := rs.below(uint64(n), "heap variable")
		if rs.err != nil || s.order.pos[v] >= 0 {
			rs.fail("heap variable %d missing or repeated", v)
			return
		}
		s.order.heap[i], s.order.pos[v] = int32(v), int32(i)
	}
}

// units reads, for a solver whose arena has IDs, the unit ID of each
// literal of the level-0 trail, each below the next ID, and how many of
// them logUnits has been through.
func (rs *restorer) units() {
	s := rs.s
	if !s.ids {
		return
	}
	s.units = make([]uint32, s.numVars)
	for v := range s.units {
		s.units[v] = noID
	}
	for _, l := range s.trail[:s.level0()] {
		if l < 2 {
			rs.fail("trail literal %d", l)
			return
		}
		s.units[vidx(l)] = uint32(rs.below(uint64(s.nextID)+1, "unit ID")) - 1
	}
	s.logged = int(rs.below(uint64(s.level0())+1, "logged units"))
}

// restoreClauses checks that the listed clauses tile the arena, each
// well formed and its literals in range, and returns each clause's size
// by its reference (0 where no clause starts).
func restoreClauses(r *snapReader, s *Solver, validLit func(uint64) bool) []int32 {
	sizes := make([]int32, len(s.arena)+1)
	type span struct{ start, end int }
	spans := make([]span, 0, len(s.clauses)+len(s.learnts))
	for i, list := range [2][]cref{s.clauses, s.learnts} {
		learnt := i == 1
		for _, c := range list {
			if c == crefUndef || sizes[c] != 0 {
				r.fail("clause reference %d repeated or undefined", c)
				return sizes
			}
			head := s.arena[c-1]
			size := int(head >> 1)
			start := int(c) - 1 - int(s.idWords())
			if learnt {
				start -= learntWords
			}
			if (head&1 != 0) != learnt || size < 2 || start < 0 || int(c)+size > len(s.arena) {
				r.fail("clause %d: header %#x", c, head)
				return sizes
			}
			for _, l := range s.arena[c : int(c)+size] {
				if !validLit(uint64(l)) {
					r.fail("clause %d: literal %d out of range", c, l)
					return sizes
				}
			}
			sizes[c] = int32(size)
			spans = append(spans, span{start, int(c) + size})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return a.start - b.start })
	at := 0
	for _, sp := range spans {
		if sp.start != at {
			r.fail("the clauses do not tile the arena at word %d", at)
			return sizes
		}
		at = sp.end
	}
	if at != len(s.arena) {
		r.fail("the clauses end at word %d of %d", at, len(s.arena))
	}
	return sizes
}

// checkAssignment checks that the values and the trail say the same:
// every trail literal true and every assigned variable on it once, with
// a reason that is a clause of the store.
func (rs *restorer) checkAssignment() error {
	s, sizes := rs.s, rs.sizes
	assigned := 0
	for v := 1; v <= s.numVars; v++ {
		pos, neg := s.vals[2*v], s.vals[2*v+1]
		if pos != -neg {
			return fmt.Errorf("%w: variable %d has values %d and %d", errSnapshot, v, pos, neg)
		}
		if pos != lUndef {
			assigned++
		}
	}
	if s.vals[0] != lUndef || s.vals[1] != lUndef || assigned != len(s.trail) {
		return fmt.Errorf("%w: %d variables assigned, %d on the trail", errSnapshot, assigned, len(s.trail))
	}
	onTrail := make([]bool, s.numVars)
	for _, l := range s.trail {
		v := vidx(l)
		if s.vals[l] != lTrue || onTrail[v] {
			return fmt.Errorf("%w: trail literal %d is not true, or not the only one of its variable", errSnapshot, l)
		}
		onTrail[v] = true
		if r := s.reason[v]; r != crefUndef && (int(r) >= len(sizes) || sizes[r] == 0) {
			return fmt.Errorf("%w: reason %d of literal %d is no clause", errSnapshot, r, l)
		}
	}
	return nil
}
