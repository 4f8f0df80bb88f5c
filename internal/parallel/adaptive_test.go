package parallel

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

// stragglerParts builds the in-process straggler scenario over
// pigeonhole(holes): partition 0's assumptions contradict pigeon 0's
// at-least-one clause (instant UNSAT), partition 1 is the whole hard
// formula. The split literals branch on pigeon 1's hole variables.
func stragglerParts(holes int) ([]partition.Partition, []cnf.Lit) {
	v := func(p, h int) cnf.Var { return cnf.Var(p*holes + h + 1) }
	easy := partition.Partition{Index: 0}
	for h := 0; h < holes; h++ {
		easy.Assumptions = append(easy.Assumptions, cnf.NegLit(v(0, h)))
	}
	hard := partition.Partition{Index: 1}
	var lits []cnf.Lit
	for h := 0; h < 3; h++ {
		lits = append(lits, cnf.PosLit(v(1, h)))
	}
	return []partition.Partition{easy, hard}, lits
}

func adaptiveOpts(lits []cnf.Lit) Options {
	return Options{
		Workers:   2,
		Split:     partition.SplitPolicy{Depth: 2, Grace: 20 * time.Millisecond},
		SplitLits: lits,
	}
}

// The in-process mirror of the coordinator's adaptive scheduler: the
// worker that finishes the easy partition goes idle, interrupts the
// hard one after the grace period, and both drain the resulting
// sub-cubes. The per-partition fold must still report one UNSAT
// instance per partition.
func TestAdaptiveSplitRefinesStraggler(t *testing.T) {
	f := pigeonhole(7)
	parts, lits := stragglerParts(7)
	res, err := Solve(context.Background(), f, parts, adaptiveOpts(lits))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat || res.Winner != -1 {
		t.Fatalf("status %v winner %d, want UNSAT/-1", res.Status, res.Winner)
	}
	if res.Splits < 1 {
		t.Fatalf("splits %d, want >= 1 (the hard partition runs ~100ms against a 20ms grace)", res.Splits)
	}
	if res.MaxCubeDepth < 1 || res.MaxCubeDepth > 2 {
		t.Fatalf("max cube depth %d, want within [1, Split.Depth]", res.MaxCubeDepth)
	}
	if len(res.Instances) != 2 {
		t.Fatalf("instances %d, want one folded result per partition", len(res.Instances))
	}
	for _, inst := range res.Instances {
		if inst.Status != sat.Unsat {
			t.Fatalf("partition %d: %v", inst.Partition, inst.Status)
		}
		switch inst.Partition {
		case 0:
			if inst.Cubes != 1 {
				t.Fatalf("easy partition folded %d cubes, want 1", inst.Cubes)
			}
		case 1:
			// Each split turns one leaf into two: leaves = splits + 1.
			if inst.Cubes != res.Splits+1 {
				t.Fatalf("hard partition folded %d cubes with %d splits, want splits+1", inst.Cubes, res.Splits)
			}
		}
	}
}

// An adaptive run's journal replays the cube tree: SPLIT records grow
// the tree, leaf verdicts attach, and the resumed run re-solves
// nothing and re-commits nothing.
func TestAdaptiveJournalResumeReplaysCubeTree(t *testing.T) {
	f := pigeonhole(7)
	parts, lits := stragglerParts(7)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 2)
	opts := adaptiveOpts(lits)
	opts.Journal = j
	res, err := Solve(context.Background(), f, parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat || res.Splits < 1 {
		t.Fatalf("first run: status %v splits %d", res.Status, res.Splits)
	}
	// splits SPLIT records plus one record per leaf (leaves = splits+2
	// across both partitions).
	wantCommits := 2*res.Splits + 2
	if j.Commits() != wantCommits {
		t.Fatalf("first run committed %d records, want %d", j.Commits(), wantCommits)
	}
	j.Close()

	j2 := openTestJournal(t, path, 2)
	opts2 := adaptiveOpts(lits)
	opts2.Journal = j2
	res2, err := Solve(context.Background(), f, parts, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Unsat {
		t.Fatalf("resumed run: status %v", res2.Status)
	}
	if res2.Resumed != res.Splits+2 {
		t.Fatalf("resumed %d leaves, want %d (every leaf of the committed tree)", res2.Resumed, res.Splits+2)
	}
	if res2.Splits != 0 {
		t.Fatalf("resumed run split %d more cubes, want pure replay", res2.Splits)
	}
	if res2.MaxCubeDepth < 1 {
		t.Fatalf("resumed run lost the cube depth: %d", res2.MaxCubeDepth)
	}
	for _, inst := range res2.Instances {
		if !inst.Resumed {
			t.Fatalf("partition %d was re-solved on resume", inst.Partition)
		}
		if inst.Stats.Conflicts != 0 || inst.Stats.Decisions != 0 {
			t.Fatalf("partition %d has search stats on replay: %+v", inst.Partition, inst.Stats)
		}
	}
	if j2.Commits() != wantCommits {
		t.Fatalf("replay re-committed: %d records, want %d", j2.Commits(), wantCommits)
	}
}

// A non-adaptive run resuming an adaptive journal must ignore sub-cube
// and SPLIT records — they cover only part of a partition — and
// re-solve the split partition whole, replaying only full-partition
// verdicts.
func TestStaticResumeIgnoresCubeRecords(t *testing.T) {
	f := pigeonhole(7)
	parts, lits := stragglerParts(7)
	path := filepath.Join(t.TempDir(), "run.wal")

	j := openTestJournal(t, path, 2)
	opts := adaptiveOpts(lits)
	opts.Journal = j
	res, err := Solve(context.Background(), f, parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat || res.Splits < 1 {
		t.Fatalf("adaptive run: status %v splits %d", res.Status, res.Splits)
	}
	adaptiveCommits := j.Commits()
	j.Close()

	j2 := openTestJournal(t, path, 2)
	res2, err := Solve(context.Background(), f, parts, Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != sat.Unsat {
		t.Fatalf("static resume: status %v", res2.Status)
	}
	// Partition 0 committed a whole-partition record (empty path) and
	// replays; partition 1 exists only as sub-cubes and must re-solve.
	if res2.Resumed != 1 {
		t.Fatalf("static resume replayed %d partitions, want only the whole-partition record", res2.Resumed)
	}
	for _, inst := range res2.Instances {
		if inst.Partition == 1 && inst.Resumed {
			t.Fatal("static resume replayed a partition that was journaled only as sub-cubes")
		}
	}
	// The re-solve commits partition 1's whole-partition record.
	if j2.Commits() != adaptiveCommits+1 {
		t.Fatalf("static resume committed %d records, want %d", j2.Commits(), adaptiveCommits+1)
	}
}
