package graph

import "math"

// Dijkstra computes single-source shortest additive path distances from src.
// dist[v] is math.Inf(1) if v is unreachable. parent[v] is the predecessor
// of v on a shortest path (-1 for src and unreachable nodes). Edge weights
// must be non-negative.
func Dijkstra(g *Digraph, src NodeID) (dist []float64, parent []NodeID) {
	dist = make([]float64, g.N())
	p32 := make([]int32, g.N())
	new(SPScratch).shortest(g, src, g.Out(src), dist, p32)
	return dist, nodeIDs(p32)
}

// Widest computes single-source widest-path (maximum bottleneck) values
// from src: width[v] is the maximum over all src->v paths of the minimum
// edge weight along the path. This is the "Maximum Bottleneck Bandwidth"
// problem of Sect. 4.1 of the paper, solved with the standard modification
// of Dijkstra. width[src] is math.Inf(1) (no bottleneck to oneself);
// unreachable nodes have width 0.
func Widest(g *Digraph, src NodeID) (width []float64, parent []NodeID) {
	width = make([]float64, g.N())
	p32 := make([]int32, g.N())
	new(SPScratch).widest(g, src, width, p32)
	return width, nodeIDs(p32)
}

// nodeIDs widens a kernel parent row to the NodeID form of the allocating
// API.
func nodeIDs(p32 []int32) []NodeID {
	out := make([]NodeID, len(p32))
	for i, p := range p32 {
		out[i] = NodeID(p)
	}
	return out
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
// the priority-queue backing array, and the hop counts of the CSR
// search's labels. One scratch serves one goroutine; concurrent
// searches need one scratch each.
type SPScratch struct {
	items []heapItem
	hops  []int32
}

// settleMin is the one additive settle loop over Digraph rows: it pops
// h until empty, skips every stale entry (a key above the node's current
// label — cheaper than a done-array, which would cost an O(n) clear per
// run) and relaxes the popped node's out-arcs in out with relaxMin.
// within, when non-nil, confines the relaxation to the nodes it marks: a
// repair's invalidated region. Every Digraph search and repair ends in
// it — shortest and both passes of the additive repair kernel
// (rowScratch.repair) — so a repaired label is the label a fresh search
// computes by construction, not by keeping copies in step.
func settleMin(h *dheap, out [][]Arc, dist []float64, parent []int32, within []bool) {
	for len(h.items) > 0 {
		it := h.popMin(additiveKeys)
		if it.key != dist[it.node] {
			continue
		}
		relaxMin(h, int(it.node), it.key, out[it.node], dist, parent, within)
	}
}

// relaxMin is settleMin's relax step for one node u at label du: every
// arc of arcs that lowers its head's label (among the nodes within
// marks, when within is non-nil) records du+W, u as the parent when
// parent is non-nil, and a heap entry. Searches and repairs also call it
// directly to seed their heaps.
func relaxMin(h *dheap, u NodeID, du float64, arcs []Arc, dist []float64, parent []int32, within []bool) {
	for _, a := range arcs {
		if within != nil && !within[a.To] {
			continue
		}
		if nd := du + a.W; nd < dist[a.To] {
			dist[a.To] = nd
			if parent != nil {
				parent[a.To] = int32(u)
			}
			h.push(heapItem{node: int32(a.To), key: nd})
		}
	}
}

// settleMax is settleMin under the bottleneck algebra, on negated keys
// (widest first): widest and the bottleneck repair kernel end in it.
func settleMax(h *dheap, out [][]Arc, width []float64, parent []int32, within []bool) {
	for len(h.items) > 0 {
		it := h.popMin(bottleneckKeys)
		if -it.key != width[it.node] {
			continue
		}
		relaxMax(h, int(it.node), -it.key, out[it.node], width, parent, within)
	}
}

// relaxMax is relaxMin under the bottleneck algebra: an arc's head is
// improved to min(wu, W) when that is wider than its label.
func relaxMax(h *dheap, u NodeID, wu float64, arcs []Arc, width []float64, parent []int32, within []bool) {
	for _, a := range arcs {
		if within != nil && !within[a.To] {
			continue
		}
		if nw := math.Min(wu, a.W); nw > width[a.To] {
			width[a.To] = nw
			if parent != nil {
				parent[a.To] = int32(u)
			}
			h.push(heapItem{node: int32(a.To), key: -nw})
		}
	}
}

// shortest is the one additive Dijkstra search over a Digraph; every
// exported variant is a call of it. It fills dist (length g.N()) with
// the single-source distances from src over g with src's out-arc list
// replaced by seeds, and, when parent is non-nil, parent[v] with v's
// predecessor on a shortest path (-1 for src and unreachable nodes). A
// shortest path never revisits src under non-negative weights, so src is
// expanded exactly once, first, from seeds, and g's stored out-arcs of
// src are never read. It runs on the specialized inline heap with no
// allocations beyond first-use heap growth: at 10⁴-node scale the
// engine spends most of its profile here, and container/heap's per-push
// interface boxing plus per-comparison closure dispatch were ~half of
// that cost.
func (s *SPScratch) shortest(g *Digraph, src NodeID, seeds []Arc, dist []float64, parent []int32) {
	for i := range dist {
		dist[i] = Inf
	}
	for i := range parent {
		parent[i] = -1
	}
	dist[src] = 0
	h := dheap{items: s.items[:0]}
	relaxMin(&h, src, 0, seeds, dist, parent, nil)
	settleMin(&h, g.out, dist, parent, nil)
	s.items = h.items[:0]
}

// DijkstraDist computes single-source shortest additive distances from src
// into dist, which must have length g.N(): Dijkstra without the parent
// tracking and without allocations.
func (s *SPScratch) DijkstraDist(g *Digraph, src NodeID, dist []float64) {
	s.shortest(g, src, g.Out(src), dist, nil)
}

// DijkstraDistSeeded is DijkstraDist with src's out-arcs supplied by the
// caller: the graph's stored out-arcs of src are ignored and the search
// starts from the seed arcs instead — which is how the scale engine
// prices the current wiring of a proposer that holds no directory row
// (DynamicRows.Row serves the rest).
func (s *SPScratch) DijkstraDistSeeded(g *Digraph, src NodeID, seeds []Arc, dist []float64) {
	s.shortest(g, src, seeds, dist, nil)
}

// widest is shortest's counterpart under the bottleneck algebra: width
// (length g.N()) receives the single-source widest-path values from src
// and parent, when non-nil, the predecessors.
func (s *SPScratch) widest(g *Digraph, src NodeID, width []float64, parent []int32) {
	for i := range width {
		width[i] = 0
	}
	for i := range parent {
		parent[i] = -1
	}
	width[src] = Inf
	h := dheap{items: s.items[:0]}
	h.push(heapItem{node: int32(src), key: -Inf})
	settleMax(&h, g.out, width, parent, nil)
	s.items = h.items[:0]
}

// WidestDist computes single-source widest-path values from src into width,
// which must have length g.N(): Widest without the parent tracking and
// without allocations.
func (s *SPScratch) WidestDist(g *Digraph, src NodeID, width []float64) {
	s.widest(g, src, width, nil)
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
