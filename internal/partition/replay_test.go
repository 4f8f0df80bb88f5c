package partition

import (
	"testing"

	"repro/internal/journal"
)

// Replay on a hand-written journal: the one cube-tree reconstruction
// that parallel.Solve's resume and distrib.Coordinate both build on.
func TestReplay(t *testing.T) {
	verdict := func(from, to int, path, v string) journal.ChunkRecord {
		return journal.ChunkRecord{From: from, To: to, Path: path, Verdict: v, Winner: -1}
	}
	split := func(from, to int, path string) journal.ChunkRecord {
		return verdict(from, to, path, journal.VerdictSplit)
	}
	type leaf struct {
		key     string
		verdict string // "" = undecided
	}
	cases := []struct {
		name  string
		roots []Cube
		recs  []journal.ChunkRecord
		want  []leaf
	}{
		{
			name:  "no records: the roots, undecided",
			roots: []Cube{{From: 0, To: 0}, {From: 1, To: 1}},
			want:  []leaf{{"0", ""}, {"1", ""}},
		},
		{
			name:  "SPLIT then children, one child split again",
			roots: []Cube{{From: 0, To: 0}, {From: 1, To: 1}},
			recs: []journal.ChunkRecord{
				verdict(0, 0, "", "UNSAT"),
				split(1, 1, ""),
				verdict(1, 1, "0", "UNSAT"),
				split(1, 1, "1"),
				verdict(1, 1, "11", "SAT"),
			},
			want: []leaf{{"0", "UNSAT"}, {"1/0", "UNSAT"}, {"1/10", ""}, {"1/11", "SAT"}},
		},
		{
			name:  "stale parent verdict after SPLIT is ignored",
			roots: []Cube{{From: 3, To: 3}},
			recs: []journal.ChunkRecord{
				split(3, 3, ""),
				verdict(3, 3, "", "UNSAT"), // e.g. a whole-partition re-solve by a run without split literals
				verdict(3, 3, "1", "UNKNOWN"),
			},
			want: []leaf{{"3/0", ""}, {"3/1", "UNKNOWN"}},
		},
		{
			name:  "duplicate verdict: the later record supersedes",
			roots: []Cube{{From: 0, To: 0}},
			recs: []journal.ChunkRecord{
				verdict(0, 0, "", "UNKNOWN"), // budget give-up
				verdict(0, 0, "", "UNSAT"),   // re-solved by a resume that raised the budget
			},
			want: []leaf{{"0", "UNSAT"}},
		},
		{
			name:  "SPLIT after a verdict supersedes it too",
			roots: []Cube{{From: 0, To: 0}},
			recs: []journal.ChunkRecord{
				verdict(0, 0, "", "UNKNOWN"),
				split(0, 0, ""),
				verdict(0, 0, "0", "UNSAT"),
			},
			want: []leaf{{"0/0", "UNSAT"}, {"0/1", ""}},
		},
		{
			name:  "records for cubes outside the tree are ignored",
			roots: []Cube{{From: 0, To: 0}},
			recs: []journal.ChunkRecord{
				verdict(0, 0, "01", "SAT"), // child of a cube that was never split
				verdict(7, 7, "", "SAT"),   // not a root of this run
				split(0, 3, ""),            // range cube of another chunking
			},
			want: []leaf{{"0", ""}},
		},
		{
			name:  "range cubes split at the midpoint (distributed chunks)",
			roots: []Cube{{From: 0, To: 3}, {From: 4, To: 7}},
			recs: []journal.ChunkRecord{
				split(0, 3, ""),
				verdict(2, 3, "", "UNSAT"),
				split(0, 1, ""),
				split(0, 0, ""),
				verdict(0, 0, "1", "UNSAT"),
			},
			want: []leaf{{"4-7", ""}, {"2-3", "UNSAT"}, {"1", ""}, {"0/0", ""}, {"0/1", "UNSAT"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := replay(tc.roots, tc.recs, true)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d leaves %+v, want %d", len(got), got, len(tc.want))
			}
			for i, l := range got {
				v := ""
				if l.Rec != nil {
					v = l.Rec.Verdict
				}
				if l.Cube.Key() != tc.want[i].key || v != tc.want[i].verdict {
					t.Errorf("leaf %d: %s %q, want %s %q", i, l.Cube.Key(), v, tc.want[i].key, tc.want[i].verdict)
				}
			}
		})
	}
}
