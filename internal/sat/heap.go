package sat

import "slices"

// varHeap is a max-heap of variables ordered by VSIDS activity, with an
// index map for decrease/increase-key updates (MiniSat's order heap).
// Variables are their indices into the solver's per-variable tables, in
// 32 bits: heap holds them, and pos[i] is variable i's slot in heap, or
// -1.
type varHeap struct {
	heap []int32
	pos  []int32
}

func (h *varHeap) inHeap(i int32) bool {
	return int(i) < len(h.pos) && h.pos[i] >= 0
}

// grow registers the brand-new variables up to n and inserts them,
// sizing both arrays once.
func (h *varHeap) grow(n int, act []float64) {
	from := len(h.pos)
	h.pos = append(h.pos, make([]int32, n-from)...)
	h.heap = slices.Grow(h.heap, n-from)
	for i := from; i < n; i++ {
		h.pos[i] = -1
		h.insert(int32(i), act)
	}
}

// insert adds variable i to the heap if absent.
func (h *varHeap) insert(i int32, act []float64) {
	if h.inHeap(i) {
		return
	}
	h.heap = append(h.heap, i)
	h.pos[i] = int32(len(h.heap) - 1)
	h.siftUp(len(h.heap)-1, act)
}

// update restores heap order after variable i's activity increased.
func (h *varHeap) update(i int32, act []float64) {
	if h.inHeap(i) {
		h.siftUp(int(h.pos[i]), act)
	}
}

// filter removes the variables keep rejects and restores heap order.
func (h *varHeap) filter(keep func(int32) bool, act []float64) {
	kept := h.heap[:0]
	for _, i := range h.heap {
		if keep(i) {
			h.pos[i] = int32(len(kept))
			kept = append(kept, i)
		} else {
			h.pos[i] = -1
		}
	}
	h.heap = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		h.siftDown(i, act)
	}
}

// popMax removes and returns the variable with maximal activity.
func (h *varHeap) popMax(act []float64) (int32, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.siftDown(0, act)
	}
	return top, true
}

func (h *varHeap) less(i, j int, act []float64) bool {
	return act[h.heap[i]] > act[h.heap[j]]
}

func (h *varHeap) siftUp(i int, act []float64) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent, act) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *varHeap) siftDown(i int, act []float64) {
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
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}
