package sat

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/cnf"
)

// snapshotStates are solvers in the states a snapshot is taken in — as
// loaded, simplified up front with a variable frozen, after a search and
// after reduceDB compacted the arena — with the options they were made
// with.
func snapshotStates(t *testing.T) map[string]struct {
	s    *Solver
	opts Options
} {
	t.Helper()
	out := map[string]struct {
		s    *Solver
		opts Options
	}{}
	add := func(name string, f *cnf.Formula, opts Options, prep func(*Solver)) {
		s := newLogging(f, opts)
		if prep != nil {
			prep(s)
		}
		out[name] = struct {
			s    *Solver
			opts Options
		}{s, opts}
	}
	add("loaded", random3SAT(5, 80, 4.2), Options{}, nil)
	add("simplified", pigeonhole(5), Options{}, func(s *Solver) {
		s.Freeze(mk(1, false))
		s.Simplify()
	})
	add("gates simplified", chainedGates(60), Options{MaxConflicts: 100}, func(s *Solver) {
		s.Freeze(mk(3, false), mk(60, true))
		s.Simplify()
	})
	// A compacted template that searched since, learnt clauses in its
	// own numbering, and took a variable the formula never mentions into
	// its map: the map section, the elimination stack's numbering and a
	// map grown past the pass.
	add("compacted and grown", chainedGates(80), Options{}, func(s *Solver) {
		s.Freeze(mk(5, false), mk(40, true))
		s.Simplify()
		if _, err := s.Solve(mk(5, true), mk(90, false)); err != nil || s.numElim == 0 {
			t.Fatalf("solve: %v, %d variables eliminated", err, s.numElim)
		}
	})
	add("solved", random3SAT(3, 60, 3.5), Options{Seed: 7, RandomizeFreq: 0.1}, func(s *Solver) {
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	add("reduced", pigeonhole(7), Options{MaxConflicts: 2000}, func(s *Solver) {
		s.Solve()
		s.reduceDB()
	})
	return out
}

// chainedGates is a formula the pass eliminates nearly all of.
func chainedGates(n int) *cnf.Formula {
	f := cnf.New()
	for v := 1; v+2 <= n; v += 2 {
		f.AddClause(mk(v+2, true), mk(v, false))
		f.AddClause(mk(v+2, true), mk(v+1, false))
		f.AddClause(mk(v+2, false), mk(v, true), mk(v+1, true))
	}
	return f
}

// A restored solver is the solver that was snapshotted in every field
// Clone reads — so a clone of either is the same value, field for field
// — and in its counters; and its own snapshot is the same bytes.
func TestRestoreEqualsSnapshot(t *testing.T) {
	for name, st := range snapshotStates(t) {
		t.Run(name, func(t *testing.T) {
			data := st.s.Snapshot()
			r, err := Restore(data, st.opts)
			if err != nil {
				t.Fatal(err)
			}
			r.EnableProof() // the restoring side's switch, as Clone carries it
			if field := differingField(r.Clone(), st.s.Clone()); field != "" {
				t.Fatalf("a clone of the restored solver differs from a clone of the snapshotted one in %s", field)
			}
			if r.Stats() != st.s.Stats() || r.PeakBytes() != st.s.PeakBytes() {
				t.Fatalf("counters %+v, snapshotted %+v", r.Stats(), st.s.Stats())
			}
			checkStore(t, r)
			if again := r.Snapshot(); !bytes.Equal(again, data) {
				t.Fatalf("the restored solver's snapshot is %d bytes, not the %d it was restored from", len(again), len(data))
			}
		})
	}
}

// differingField names the first field in which two solvers differ
// (reflect.DeepEqual, field by field), "" if none. An empty slice is
// not told from a nil one: which of the two a solver holds is its
// history, not its state.
func differingField(a, b *Solver) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		// The fields are unexported: read them through their addresses.
		ia := reflect.NewAt(fa.Type(), unsafe.Pointer(fa.UnsafeAddr())).Elem().Interface()
		ib := reflect.NewAt(fb.Type(), unsafe.Pointer(fb.UnsafeAddr())).Elem().Interface()
		if fa.Kind() == reflect.Func || fa.Kind() == reflect.Slice && fa.Len() == 0 && fb.Len() == 0 {
			continue // no callback is cloned; nil and empty hold the same nothing
		}
		if !reflect.DeepEqual(ia, ib) {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// checkRestored checks that a restored solver holds no literal or
// variable outside its variable count.
func checkRestored(t *testing.T, s *Solver) {
	t.Helper()
	checkStore(t, s)
	valid := func(l lit) bool { return l >= 2 && int(l) < 2*s.numVars+2 }
	for _, list := range [2][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			for _, l := range s.lits(c) {
				if !valid(l) {
					t.Fatalf("clause %d holds literal %d of %d variables", c, l, s.numVars)
				}
			}
		}
	}
	for _, ws := range s.watches {
		for _, w := range ws {
			if !valid(w.blocker) {
				t.Fatalf("blocker %d of %d variables", w.blocker, s.numVars)
			}
		}
	}
	for _, l := range s.trail {
		if !valid(l) {
			t.Fatalf("trail literal %d of %d variables", l, s.numVars)
		}
	}
	for _, chunk := range s.elimStack.chunks {
		for i := len(chunk); i > 0; {
			n := int(chunk[i-1])
			for _, l := range chunk[i-1-n : i-1] {
				if l < 2 || int(l) >= 2*s.NumVars()+2 || !s.isEliminated(cnf.Var(chunk[i-1-n]>>1)) {
					t.Fatalf("elimination stack literal %d of %d variables, or headed by a variable the map has", l, s.NumVars())
				}
			}
			i -= n + 1
		}
	}
	for i, v := range s.ext {
		if v < 1 || int(v) > s.NumVars() || i > 0 && v <= s.ext[i-1] {
			t.Fatalf("map entry %d: variable %d of %d, after %v", i, v, s.NumVars(), s.ext[:i])
		}
	}
	for _, v := range s.order.heap {
		if v < 0 || int(v) >= s.numVars {
			t.Fatalf("heap variable %d of %d", v, s.numVars)
		}
	}
	if len(s.vals) != 2*s.numVars+2 || len(s.level) != s.numVars || len(s.reason) != s.numVars ||
		len(s.polarity) != s.numVars || len(s.frozen) != s.numVars || len(s.activity) != s.numVars ||
		len(s.order.pos) != s.numVars || s.numElim > 0 && len(s.ext) != s.numVars {
		t.Fatalf("per-variable tables do not fit %d variables", s.numVars)
	}
}

// Restore reads bytes from the wire: arbitrary ones, and valid snapshots
// cut short or with a byte changed, get an error or a solver that holds
// nothing out of range — never a panic — and what it accepts snapshots
// back to a solver it accepts again, the same one.
func FuzzRestore(f *testing.F) {
	for _, st := range snapshotStates(&testing.T{}) {
		data := st.s.Snapshot()
		f.Add(data)
		f.Add(data[:len(data)/2])
		mutated := bytes.Clone(data)
		mutated[len(mutated)/3] ^= 0x5a
		f.Add(mutated)
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte(snapshotMagic + "\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restore(data, Options{})
		if err != nil {
			if s != nil {
				t.Fatal("a refused snapshot restored a solver")
			}
			return
		}
		checkRestored(t, s)
		again, err := Restore(s.Snapshot(), Options{})
		if err != nil {
			t.Fatalf("the snapshot of a restored solver is refused: %v", err)
		}
		if !reflect.DeepEqual(again.Clone(), s.Clone()) {
			t.Fatal("restored twice, the solver changed")
		}
	})
}

// A snapshot's unit IDs are read off the wire like the rest, one for each
// literal of the level-0 trail: one that no clause or lemma has yet, or
// a count of logged units beyond the trail, is refused with errSnapshot,
// never a panic.
func TestRestoreRefusesBadUnits(t *testing.T) {
	f := pigeonhole(3)
	f.AddClause(mk(20, false))
	f.AddClause(mk(20, true), mk(21, false))
	s := newLogging(f, Options{})
	if len(s.trail) != 2 || s.units[vidx(s.trail[1])] == noID {
		t.Fatalf("trail %v, units %v", s.trail, s.units)
	}
	if _, err := Restore(s.Snapshot(), Options{}); err != nil {
		t.Fatalf("the solver's own snapshot: %v", err)
	}
	v := vidx(s.trail[1])
	for name, bad := range map[string]func(){
		"an ID not yet taken":              func() { s.units[v] = s.nextID },
		"more logged than the trail holds": func() { s.logged = len(s.trail) + 1 },
	} {
		t.Run(name, func(t *testing.T) {
			units, logged := slices.Clone(s.units), s.logged
			defer func() { s.units, s.logged = units, logged }()
			bad()
			if r, err := Restore(s.Snapshot(), Options{}); r != nil || !errors.Is(err, errSnapshot) {
				t.Fatalf("restored a snapshot with %s: %v", name, err)
			}
		})
	}
}
