package graph

// dheap is an inlined 4-ary heap for the hot Dijkstra variants.
// container/heap costs an interface allocation per push and a dynamic
// dispatch per comparison — nearly half the scale engine's CPU profile
// when it was used. The 4-ary layout halves the sift-down depth versus a
// binary heap (pops dominate under lazy-deletion duplicates). Each order
// has its own pop so every comparison inlines: popMin by key (Digraph
// searches, the pair search's backward side, and the bottleneck algebra
// on negated widths, all pushing hops = 0), popLabel by (key, hops) for
// settleCSR. A hop tie-break in popMin would cost a Digraph search ~4%.
type dheap struct {
	items []heapItem
}

// heapItem is a priority-queue entry for Dijkstra variants.
type heapItem struct {
	node int32
	hops int32 // the CSR search's hop count; zero elsewhere
	key  float64
}

// push inserts under the (key, hops) order, which is the key order on
// a heap whose entries all have hops = 0.
func (h *dheap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !it.before(h.items[p]) {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = it
}

// popMin removes the minimum-key entry.
func (h *dheap) popMin() heapItem {
	top := h.items[0]
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	n := len(h.items)
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		bk := h.items[c].key
		for x := c + 1; x < end; x++ {
			if k := h.items[x].key; k < bk {
				best, bk = x, k
			}
		}
		if bk >= last.key {
			break
		}
		h.items[i] = h.items[best]
		i = best
	}
	h.items[i] = last
	return top
}

// before reports whether a pops ahead of b under the (key, hops) order.
func (a heapItem) before(b heapItem) bool {
	return a.key < b.key || a.key == b.key && a.hops < b.hops
}

// popLabel removes the minimum entry under the (key, hops) order.
func (h *dheap) popLabel() heapItem {
	top := h.items[0]
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	n := len(h.items)
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best, b := c, h.items[c]
		for x := c + 1; x < end; x++ {
			if it := h.items[x]; it.before(b) {
				best, b = x, it
			}
		}
		if !b.before(last) {
			break
		}
		h.items[i] = h.items[best]
		i = best
	}
	h.items[i] = last
	return top
}
