package sat

import "repro/internal/cnf"

// varHeap is a max-heap of variables ordered by VSIDS activity, with an
// index map for decrease/increase-key updates (MiniSat's order heap).
type varHeap struct {
	heap []cnf.Var
	pos  []int // pos[v-1] = index in heap, or -1
}

func (h *varHeap) inHeap(v cnf.Var) bool {
	return int(v) <= len(h.pos) && h.pos[v-1] >= 0
}

// push registers a brand-new variable and inserts it.
func (h *varHeap) push(v cnf.Var, act *[]float64) {
	for len(h.pos) < int(v) {
		h.pos = append(h.pos, -1)
	}
	h.insert(v, act)
}

// insert adds v to the heap if absent.
func (h *varHeap) insert(v cnf.Var, act *[]float64) {
	if h.inHeap(v) {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v-1] = len(h.heap) - 1
	h.siftUp(len(h.heap)-1, act)
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v cnf.Var, act *[]float64) {
	if h.inHeap(v) {
		h.siftUp(h.pos[v-1], act)
	}
}

// filter removes the variables keep rejects and restores heap order.
func (h *varHeap) filter(keep func(cnf.Var) bool, act *[]float64) {
	kept := h.heap[:0]
	for _, v := range h.heap {
		if keep(v) {
			h.pos[v-1] = len(kept)
			kept = append(kept, v)
		} else {
			h.pos[v-1] = -1
		}
	}
	h.heap = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.siftDown(i, act)
	}
}

// popMax removes and returns the variable with maximal activity.
func (h *varHeap) popMax(act *[]float64) (cnf.Var, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[top-1] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last-1] = 0
		h.siftDown(0, act)
	}
	return top, true
}

func (h *varHeap) less(i, j int, act *[]float64) bool {
	return (*act)[h.heap[i]-1] > (*act)[h.heap[j]-1]
}

func (h *varHeap) siftUp(i int, act *[]float64) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent, act) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) siftDown(i int, act *[]float64) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best, act) {
			best = l
		}
		if r < n && h.less(r, best, act) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]-1] = i
	h.pos[h.heap[j]-1] = j
}
