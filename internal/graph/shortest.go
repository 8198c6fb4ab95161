package graph

import (
	"container/heap"
	"math"
)

// Dijkstra computes single-source shortest additive path distances from src.
// dist[v] is math.Inf(1) if v is unreachable. parent[v] is the predecessor
// of v on a shortest path (-1 for src and unreachable nodes). Edge weights
// must be non-negative.
func Dijkstra(g *Digraph, src NodeID) (dist []float64, parent []NodeID) {
	n := g.N()
	dist = make([]float64, n)
	parent = make([]NodeID, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	pq := &nodeHeap{items: []heapItem{{node: src, key: 0}}, better: func(a, b float64) bool { return a < b }}
	done := make([]bool, n)
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range g.Out(u) {
			if nd := dist[u] + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = u
				heap.Push(pq, heapItem{node: a.To, key: nd})
			}
		}
	}
	return dist, parent
}

// Widest computes single-source widest-path (maximum bottleneck) values
// from src: width[v] is the maximum over all src->v paths of the minimum
// edge weight along the path. This is the "Maximum Bottleneck Bandwidth"
// problem of Sect. 4.1 of the paper, solved with the standard modification
// of Dijkstra. width[src] is math.Inf(1) (no bottleneck to oneself);
// unreachable nodes have width 0.
func Widest(g *Digraph, src NodeID) (width []float64, parent []NodeID) {
	n := g.N()
	width = make([]float64, n)
	parent = make([]NodeID, n)
	for i := range parent {
		parent[i] = -1
	}
	width[src] = Inf
	pq := &nodeHeap{items: []heapItem{{node: src, key: Inf}}, better: func(a, b float64) bool { return a > b }}
	done := make([]bool, n)
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range g.Out(u) {
			if nw := math.Min(width[u], a.W); nw > width[a.To] {
				width[a.To] = nw
				parent[a.To] = u
				heap.Push(pq, heapItem{node: a.To, key: nw})
			}
		}
	}
	return width, parent
}

// APSP computes all-pairs shortest additive distances by running Dijkstra
// from every source. The result is indexed [src][dst].
func APSP(g *Digraph) [][]float64 {
	return APSPInto(g, nil, nil)
}

// APWidest computes all-pairs widest-path values.
func APWidest(g *Digraph) [][]float64 {
	return APWidestInto(g, nil, nil)
}

// APSPInto is APSP with reusable storage: rows of dst are overwritten and
// returned when dst has the right shape (allocated otherwise), and s, when
// non-nil, supplies the per-run Dijkstra state. This is the allocation-free
// hot path of the best-response engine: every re-wiring recomputes a
// residual all-pairs matrix, and the matrix plus heap would otherwise be
// reallocated for each of them.
func APSPInto(g *Digraph, dst [][]float64, s *SPScratch) [][]float64 {
	n := g.N()
	dst = reshape(dst, n)
	if s == nil {
		s = &SPScratch{}
	}
	for u := 0; u < n; u++ {
		s.DijkstraDist(g, u, dst[u])
	}
	return dst
}

// APWidestInto is APWidest with reusable storage, analogous to APSPInto.
func APWidestInto(g *Digraph, dst [][]float64, s *SPScratch) [][]float64 {
	n := g.N()
	dst = reshape(dst, n)
	if s == nil {
		s = &SPScratch{}
	}
	for u := 0; u < n; u++ {
		s.WidestDist(g, u, dst[u])
	}
	return dst
}

// reshape returns dst if it is an n×n matrix, else a freshly allocated one
// backed by a single contiguous block.
func reshape(dst [][]float64, n int) [][]float64 {
	if len(dst) == n && (n == 0 || len(dst[0]) == n) {
		return dst
	}
	flat := make([]float64, n*n)
	dst = make([][]float64, n)
	for i := range dst {
		dst[i] = flat[i*n : (i+1)*n]
	}
	return dst
}

// SPScratch holds the reusable per-run state of the Dijkstra variants:
// the priority-queue backing array. One scratch serves one goroutine;
// concurrent searches need one scratch each.
type SPScratch struct {
	items []heapItem
}

// DijkstraDist computes single-source shortest additive distances from src
// into dist, which must have length g.N(). It is Dijkstra without the
// parent tracking and without allocations (beyond heap growth on first
// use), running on the specialized inline heap: at 10⁴-node scale the
// engine spends most of its profile here, and container/heap's
// per-push interface boxing plus per-comparison closure dispatch were
// ~half of that cost. Stale heap entries are skipped by key comparison
// instead of a done-array, saving an O(n) clear per run.
func (s *SPScratch) DijkstraDist(g *Digraph, src NodeID, dist []float64) {
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	h := dheap{items: s.items[:0]}
	h.pushMin(src, 0)
	for len(h.items) > 0 {
		it := h.popMin()
		u := it.node
		if it.key != dist[u] {
			continue
		}
		for _, a := range g.Out(u) {
			if nd := it.key + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				h.pushMin(a.To, nd)
			}
		}
	}
	s.items = h.items[:0]
}

// DijkstraDistSeeded is DijkstraDist with src's out-arcs supplied by the
// caller: the graph's stored out-arcs of src are ignored and the search
// starts from the seed arcs instead. Since a shortest path from src
// never revisits src under non-negative weights, the result is exactly
// the single-source distances of g with src's out-arc list replaced by
// seeds — which is how the scale engine prices the current wiring of a
// proposer that holds no directory row (DynamicRows.Row serves the rest).
func (s *SPScratch) DijkstraDistSeeded(g *Digraph, src NodeID, seeds []Arc, dist []float64) {
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	h := dheap{items: s.items[:0]}
	for _, a := range seeds {
		if a.To != src && a.W < dist[a.To] {
			dist[a.To] = a.W
			h.pushMin(a.To, a.W)
		}
	}
	for len(h.items) > 0 {
		it := h.popMin()
		u := it.node
		if it.key != dist[u] {
			continue
		}
		for _, a := range g.Out(u) {
			if nd := it.key + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				h.pushMin(a.To, nd)
			}
		}
	}
	s.items = h.items[:0]
}

// WidestDist computes single-source widest-path values from src into width,
// which must have length g.N(). It is Widest without the parent tracking
// and without allocations, on the same specialized heap as DijkstraDist.
func (s *SPScratch) WidestDist(g *Digraph, src NodeID, width []float64) {
	for i := range width {
		width[i] = 0
	}
	width[src] = Inf
	h := dheap{items: s.items[:0]}
	h.pushMax(src, Inf)
	for len(h.items) > 0 {
		it := h.popMax()
		u := it.node
		if it.key != width[u] {
			continue
		}
		for _, a := range g.Out(u) {
			if nw := math.Min(it.key, a.W); nw > width[a.To] {
				width[a.To] = nw
				h.pushMax(a.To, nw)
			}
		}
	}
	s.items = h.items[:0]
}

// PathTo reconstructs the path from the source used to build parent up to
// dst, inclusive of both endpoints. It returns nil if dst was unreachable.
func PathTo(parent []NodeID, src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	if parent[dst] == -1 {
		return nil
	}
	var rev []NodeID
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// heapItem is a priority-queue entry for Dijkstra variants.
type heapItem struct {
	node NodeID
	key  float64
}

// nodeHeap is a priority queue ordered by the better function
// (min-heap for shortest paths, max-heap for widest paths).
type nodeHeap struct {
	items  []heapItem
	better func(a, b float64) bool
}

func (h *nodeHeap) Len() int           { return len(h.items) }
func (h *nodeHeap) Less(i, j int) bool { return h.better(h.items[i].key, h.items[j].key) }
func (h *nodeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *nodeHeap) Push(x interface{}) { h.items = append(h.items, x.(heapItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
