package sat

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/cnf"
)

// DecisionGraph records the solver's search as the decision graph
// visualised in Figures 4 and 6 of the paper: one node per decision,
// chronological left-to-right order, an edge from each decision to the
// one made below it, and backjumps truncating the current path
// (backjump edges themselves are omitted, as in the paper's figures).
type DecisionGraph struct {
	Nodes []GraphNode
	Edges [][2]int

	// path[l] is the node index of the current decision at level l+1.
	path []int
	// cap bounds the recorded nodes; recording stops beyond it.
	cap int
}

// GraphNode is one decision.
type GraphNode struct {
	// Seq is the chronological index.
	Seq int
	// Level is the decision level (depth in the graph).
	Level int
	// Lit is the decided literal.
	Lit cnf.Lit
}

// newDecisionGraph returns a recorder bounded to maxNodes.
func newDecisionGraph(maxNodes int) *DecisionGraph {
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	return &DecisionGraph{cap: maxNodes}
}

func (g *DecisionGraph) recordDecision(level int, lit cnf.Lit) {
	if len(g.Nodes) >= g.cap {
		return
	}
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, GraphNode{Seq: id, Level: level, Lit: lit})
	// Edge from the decision one level up on the current path.
	if level >= 2 && level-2 < len(g.path) {
		g.Edges = append(g.Edges, [2]int{g.path[level-2], id})
	}
	for len(g.path) < level {
		g.path = append(g.path, 0)
	}
	g.path = g.path[:level]
	g.path[level-1] = id
}

func (g *DecisionGraph) recordBackjump(toLevel int) {
	if toLevel < 0 {
		toLevel = 0
	}
	if toLevel < len(g.path) {
		g.path = g.path[:toLevel]
	}
}

// WriteDOT renders the decision graph in Graphviz DOT format, one node
// per decision ranked by level (the vertical axis of the paper's
// figures).
func (g *DecisionGraph) WriteDOT(w io.Writer, title string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", title)
	fmt.Fprintf(bw, "  graph [rankdir=TB, label=%q];\n", title)
	fmt.Fprintf(bw, "  node [shape=point, width=0.06];\n")
	if len(g.Nodes) > 0 {
		fmt.Fprintf(bw, "  root [shape=circle, width=0.12, label=\"\"];\n")
	}
	// Group nodes by level for ranking.
	byLevel := map[int][]int{}
	for _, n := range g.Nodes {
		byLevel[n.Level] = append(byLevel[n.Level], n.Seq)
	}
	for level, ids := range byLevel {
		fmt.Fprintf(bw, "  { rank=same;")
		for _, id := range ids {
			fmt.Fprintf(bw, " n%d;", id)
		}
		fmt.Fprintf(bw, " } // level %d\n", level)
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(bw, "  n%d [tooltip=\"#%d @%d %s\"];\n", n.Seq, n.Seq, n.Level, n.Lit)
		if n.Level == 1 {
			fmt.Fprintf(bw, "  root -> n%d;\n", n.Seq)
		}
	}
	for _, e := range g.Edges {
		fmt.Fprintf(bw, "  n%d -> n%d;\n", e[0], e[1])
	}
	fmt.Fprintf(bw, "}\n")
	return bw.Flush()
}

// EnableGraph attaches a decision-graph recorder to the solver
// (maxNodes 0 uses the default bound). Must be called before Solve.
func (s *Solver) EnableGraph(maxNodes int) *DecisionGraph {
	s.graph = newDecisionGraph(maxNodes)
	return s.graph
}
