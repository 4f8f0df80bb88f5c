// Package partition implements the paper's symbolic partitioning of the
// interleaving space (Sect. 3.2/3.3): the set of m-context executions is
// split into 2^p subsets by fixing the polarity of the propositional
// variables that carry the least-significant bit of the scheduled-thread
// words tid[1..p] (the first context is pinned to the main thread, so
// partitioning starts at the second context). Each subset is explored by
// conjoining the corresponding unit assumptions onto the otherwise
// unchanged formula.
package partition

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/vc"
)

// Partition is one symbolic subset of the execution traces: the original
// formula plus unit assumptions on the tid LSB variables.
type Partition struct {
	// Index identifies the partition: bit j of Index is the polarity
	// assumed for the LSB of tid[j+1].
	Index int
	// Assumptions are the unit literals defining the subset.
	Assumptions []cnf.Lit
}

// Make builds `parts` partitions over the encoded formula. parts must be
// a power of two not exceeding 2^s, where s is the number of symbolic
// scheduler contexts (contexts minus one in context-bounded mode).
// parts = 1 yields the single unpartitioned problem.
func Make(enc *vc.Encoded, parts int) ([]Partition, error) {
	if parts < 1 || parts&(parts-1) != 0 {
		return nil, fmt.Errorf("partition: count %d is not a power of two", parts)
	}
	var lsbs []cnf.Lit
	for _, l := range enc.TidLSBs {
		if l != cnf.LitUndef {
			lsbs = append(lsbs, l)
		}
	}
	p := 0
	for 1<<uint(p) < parts {
		p++
	}
	if p > len(lsbs) {
		return nil, fmt.Errorf("partition: %d partitions need %d symbolic contexts, only %d available",
			parts, p, len(lsbs))
	}
	out := make([]Partition, parts)
	for i := 0; i < parts; i++ {
		pt := Partition{Index: i}
		for j := 0; j < p; j++ {
			lit := lsbs[j]
			if i&(1<<uint(j)) == 0 {
				lit = lit.Not()
			}
			pt.Assumptions = append(pt.Assumptions, lit)
		}
		out[i] = pt
	}
	return out, nil
}

// MaxPartitions returns the largest power-of-two partition count the
// encoding supports (2^s for s symbolic contexts).
func MaxPartitions(enc *vc.Encoded) int {
	s := 0
	for _, l := range enc.TidLSBs {
		if l != cnf.LitUndef {
			s++
		}
	}
	if s > 30 {
		s = 30
	}
	return 1 << uint(s)
}

// Cube is one node of the dynamic cube tree used by straggler-resilient
// scheduling. A cube either covers a contiguous range of partition
// indices (Path empty: the chunk one machine is assigned for distributed
// analysis, the paper's --from/--to interface) or refines a single
// partition by fixing additional scheduler bits: Path is a string of '0'
// and '1' polarities over the canonical SplitLits sequence, so the
// assumption cube is the partition's tid-LSB assumptions plus one unit
// literal per path character. Path is only meaningful when From == To.
type Cube struct {
	From int    // inclusive partition index
	To   int    // inclusive partition index
	Path string // extra split-bit polarities, '0'/'1' per SplitLits entry
}

// Size returns the number of partition indices under the cube.
func (c Cube) Size() int { return c.To - c.From + 1 }

// Depth returns how many extra split bits the cube fixes.
func (c Cube) Depth() int { return len(c.Path) }

// Key renders a stable map/display key: "from-to" for range cubes,
// "idx/path" for path-refined cubes.
func (c Cube) Key() string {
	if c.Path == "" {
		if c.From == c.To {
			return fmt.Sprintf("%d", c.From)
		}
		return fmt.Sprintf("%d-%d", c.From, c.To)
	}
	return fmt.Sprintf("%d/%s", c.From, c.Path)
}

// Split halves the cube: a multi-partition range splits at its midpoint;
// a single partition splits by fixing the next SplitLits bit both ways.
// The caller bounds path growth against len(SplitLits) and its depth cap.
func (c Cube) Split() (Cube, Cube) {
	if c.Size() > 1 {
		mid := c.From + (c.Size()-1)/2
		return Cube{From: c.From, To: mid}, Cube{From: mid + 1, To: c.To}
	}
	return Cube{From: c.From, To: c.To, Path: c.Path + "0"},
		Cube{From: c.From, To: c.To, Path: c.Path + "1"}
}

// ParsePath validates a cube path string.
func ParsePath(path string) error {
	for i := 0; i < len(path); i++ {
		if path[i] != '0' && path[i] != '1' {
			return fmt.Errorf("partition: cube path %q: byte %d is not '0'/'1'", path, i)
		}
	}
	return nil
}

// SplitLits returns the canonical ordered sequence of literals available
// for cube-path refinement beyond the p = log2(parts) tid-LSB bits the
// partition index already fixes. The order is deterministic for a given
// encoding, so coordinator and workers derive identical cubes from
// (partition index, path): first any tid LSBs the partition count left
// unused, then the higher tid bits breadth-first across contexts, then
// the context-switch word bits. Constant and duplicate bits are skipped.
func SplitLits(enc *vc.Encoded, parts int) []cnf.Lit {
	var lsbs []cnf.Lit
	for _, l := range enc.TidLSBs {
		if l != cnf.LitUndef {
			lsbs = append(lsbs, l)
		}
	}
	p := 0
	for 1<<uint(p) < parts {
		p++
	}
	seen := make(map[cnf.Lit]bool)
	usable := func(l cnf.Lit) bool {
		if l == cnf.LitUndef {
			return false
		}
		if _, ok := enc.Ctx.B.IsConst(l); ok {
			return false
		}
		pos := l
		if pos.Neg() {
			pos = pos.Not()
		}
		if seen[pos] {
			return false
		}
		seen[pos] = true
		return true
	}
	var out []cnf.Lit
	// Mark the index-fixed LSBs as seen so they are never re-split.
	for j := 0; j < p && j < len(lsbs); j++ {
		usable(lsbs[j])
	}
	for j := p; j < len(lsbs); j++ {
		if usable(lsbs[j]) {
			out = append(out, lsbs[j])
		}
	}
	symbolic := func(c int) bool {
		return c < len(enc.TidLSBs) && enc.TidLSBs[c] != cnf.LitUndef
	}
	maxW := 0
	for c, v := range enc.TidVecs {
		if symbolic(c) && v.Width() > maxW {
			maxW = v.Width()
		}
	}
	for bit := 1; bit < maxW; bit++ {
		for c, v := range enc.TidVecs {
			if symbolic(c) && bit < v.Width() && usable(v[bit]) {
				out = append(out, v[bit])
			}
		}
	}
	maxW = 0
	for c, v := range enc.CsVecs {
		if symbolic(c) && v.Width() > maxW {
			maxW = v.Width()
		}
	}
	for bit := 0; bit < maxW; bit++ {
		for c, v := range enc.CsVecs {
			if symbolic(c) && bit < v.Width() && usable(v[bit]) {
				out = append(out, v[bit])
			}
		}
	}
	return out
}

// CubeAssumptions returns the assumptions of the cube that path carves
// out of pt: the partition's own plus one unit literal per path
// character over the canonical SplitLits sequence ('1' keeps the
// literal, '0' negates). An empty path is the partition whole.
func (pt Partition) CubeAssumptions(path string, lits []cnf.Lit) ([]cnf.Lit, error) {
	if path == "" {
		return pt.Assumptions, nil
	}
	if err := ParsePath(path); err != nil {
		return nil, err
	}
	if len(path) > len(lits) {
		return nil, fmt.Errorf("partition: cube path depth %d exceeds %d available split bits",
			len(path), len(lits))
	}
	out := make([]cnf.Lit, 0, len(pt.Assumptions)+len(path))
	out = append(out, pt.Assumptions...)
	for i := 0; i < len(path); i++ {
		l := lits[i]
		if path[i] == '0' {
			l = l.Not()
		}
		out = append(out, l)
	}
	return out, nil
}

// Chunks splits nparts partitions into range cubes of the given size
// (the last may be smaller): the roots of a distributed run's cube tree.
func Chunks(nparts, size int) []Cube {
	if size < 1 {
		size = 1
	}
	var out []Cube
	for from := 0; from < nparts; from += size {
		to := from + size - 1
		if to >= nparts {
			to = nparts - 1
		}
		out = append(out, Cube{From: from, To: to})
	}
	return out
}
