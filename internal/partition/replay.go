package partition

import "repro/internal/journal"

// replay rebuilds the cube tree a journal describes (without paths: the
// roots alone — SPLIT records are skipped, so sub-cube records find no
// leaf). Records apply in commit order against the evolving leaf set: a
// SPLIT record replaces its leaf
// by the two children of Cube.Split (the journal commits SPLIT strictly
// before either child can produce a record, so children always find
// their slots), and a verdict attaches to a live leaf. A record for a
// cube that is not a live leaf — it was split, or never existed under
// these roots — is stale by construction and ignored. A later record
// for the same live leaf supersedes the earlier verdict: it exists only
// because a resume re-solved the cube (raised budgets, or a certified
// run distrusting an uncertified record).
//
// The live leaves are returned roots first, then children in the commit
// order of their SPLIT records; Rec points into recs. The number of
// replayed splits is len(leaves) - len(roots).
func replay(roots []Cube, recs []journal.ChunkRecord, paths bool) []Leaf {
	type node struct {
		leaf Leaf
		dead bool // superseded by its children
	}
	nodes := make([]*node, 0, len(roots))
	index := make(map[Cube]*node, len(roots))
	add := func(c Cube) {
		n := &node{leaf: Leaf{Cube: c}}
		nodes = append(nodes, n)
		index[c] = n
	}
	for _, c := range roots {
		add(c)
	}
	for i := range recs {
		rec := &recs[i]
		n := index[Cube{From: rec.From, To: rec.To, Path: rec.Path}]
		if n == nil || n.dead || (!paths && rec.Split()) {
			continue
		}
		if !rec.Split() {
			n.leaf.Rec = rec
			continue
		}
		n.dead = true
		left, right := n.leaf.Cube.Split()
		add(left)
		add(right)
	}
	live := make([]Leaf, 0, len(nodes))
	for _, n := range nodes {
		if !n.dead {
			live = append(live, n.leaf)
		}
	}
	return live
}
