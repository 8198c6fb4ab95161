package graph

import "sync"

// CSR is an immutable directed weighted graph packed in compressed
// sparse row form: one offsets array and two parallel arc arrays,
// cache-dense and shareable across any number of concurrent readers.
// It is the adjacency representation of the data plane's route
// snapshots (internal/plane), where a graph is built once per epoch
// and then only ever read — the pointer-chasing [][]Arc layout of
// Digraph buys mutability those readers never use.
type CSR struct {
	n   int
	off []int32
	to  []int32
	w   []float64

	revOnce sync.Once
	rev     *CSR
}

// NewCSR packs n nodes with the given adjacency into CSR form. adj is
// called exactly once per node in id order — adjacency producers may
// be expensive (the data plane prices every arc through the underlay
// oracle) — and may return nil for isolated nodes; the arcs are
// copied, so the caller may reuse the slice across calls.
func NewCSR(n int, adj func(u int) []Arc) *CSR {
	c := &CSR{n: n, off: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		for _, a := range adj(u) {
			c.to = append(c.to, int32(a.To))
			c.w = append(c.w, a.W)
		}
		c.off[u+1] = int32(len(c.to))
	}
	return c
}

// PatchCSR packs a new CSR from base by replacing the out-rows of a
// sparse ascending set of nodes: adj is called exactly once per changed
// node (in id order, arcs copied — same contract as NewCSR) and every
// other row is copied byte-for-byte from base, so an unchanged row's
// arc order and weight bits are preserved by construction. base is not
// modified; the two graphs share no storage. It is the data plane's
// delta-publication path: a churn sub-round touches a handful of rows,
// and re-pricing only those avoids the O(n·k) delay-oracle sweep of a
// full recompile.
func PatchCSR(base *CSR, changed []int, adj func(u int) []Arc) *CSR {
	c := &CSR{
		n:   base.n,
		off: make([]int32, base.n+1),
		to:  make([]int32, 0, len(base.to)),
		w:   make([]float64, 0, len(base.w)),
	}
	ci := 0
	for u := 0; u < base.n; u++ {
		if ci < len(changed) && changed[ci] == u {
			for ci < len(changed) && changed[ci] == u {
				ci++ // tolerate duplicates
			}
			for _, a := range adj(u) {
				c.to = append(c.to, int32(a.To))
				c.w = append(c.w, a.W)
			}
		} else {
			lo, hi := base.off[u], base.off[u+1]
			c.to = append(c.to, base.to[lo:hi]...)
			c.w = append(c.w, base.w[lo:hi]...)
		}
		c.off[u+1] = int32(len(c.to))
	}
	if ci != len(changed) {
		panic("graph: PatchCSR changed list not ascending in [0, n)")
	}
	return c
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.n }

// NumArcs returns the total number of directed edges.
func (c *CSR) NumArcs() int { return len(c.to) }

// OutDegree returns the number of out-arcs of u.
func (c *CSR) OutDegree(u NodeID) int { return int(c.off[u+1] - c.off[u]) }

// Out returns u's out-arc targets and weights as parallel slices.
// The returned slices alias the CSR storage and must not be modified.
func (c *CSR) Out(u NodeID) (to []int32, w []float64) {
	lo, hi := c.off[u], c.off[u+1]
	return c.to[lo:hi], c.w[lo:hi]
}

// Reverse returns c's in-arc view: Out(v) of the result lists the tails
// and weights of the arcs into v, ascending by tail (parallel arcs in
// c's order). It is built on first use in O(n + m) and shared by every
// later caller — a graph that only ever answers one-hop or whole-row
// queries never pays for it.
func (c *CSR) Reverse() *CSR {
	c.revOnce.Do(func() {
		r := &CSR{n: c.n, off: make([]int32, c.n+1), to: make([]int32, len(c.to)), w: make([]float64, len(c.w))}
		for _, v := range c.to {
			r.off[v+1]++
		}
		for v := 0; v < c.n; v++ {
			r.off[v+1] += r.off[v]
		}
		next := append([]int32(nil), r.off[:c.n]...)
		for u := 0; u < c.n; u++ {
			for x := c.off[u]; x < c.off[u+1]; x++ {
				v := c.to[x]
				r.to[next[v]], r.w[next[v]] = int32(u), c.w[x]
				next[v]++
			}
		}
		c.rev = r
	})
	return c.rev
}

// DijkstraCSR computes single-source shortest additive distances from
// src over a CSR graph into dist and parent, which must both have
// length c.N(). parent[v] is the predecessor of v on a shortest path
// (-1 for src and unreachable nodes), so callers can reconstruct
// routes by walking it back from the destination. The tree is
// settleCSR's canonical one, a function of the graph alone. No
// allocations beyond first-use growth of the heap and hop arrays.
func (s *SPScratch) DijkstraCSR(c *CSR, src NodeID, dist []float64, parent []int32) {
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	s.settleCSR(c, src, dist, parent, nil)
}

// settleCSR is the one settle loop over CSR rows: it searches from src
// into dist and parent, which the caller has set to +Inf and -1 wherever
// the search can reach, and returns the number of nodes it expanded.
// DijkstraCSR runs it to exhaustion; PairCSR runs it with p, its
// backward side and pruning bound, and stops at the pop of p's dst.
//
// Labels are ordered canonically by (dist, hops, parent): the heap pops
// by (dist, hops), a stale entry's (dist, hops) is no longer its node's,
// and a relaxation that ties on both keeps the lower predecessor id.
// Every arc adds a hop, so an extension is strictly greater than the
// label it extends: a popped label is final, no parent cycle can close
// (zero weights, absorbed sums), and the labels are the unique solution
// of "each label is the least extension over its in-arcs" — fixed by
// the graph, not by arc order or by relaxations a search skipped. hops
// is read only where this run wrote a finite dist: it is never reset.
func (s *SPScratch) settleCSR(c *CSR, src NodeID, dist []float64, parent []int32, p *PairScratch) (settled int) {
	if len(s.hops) < c.n {
		s.hops = make([]int32, c.n)
	}
	hops, parent := s.hops[:len(dist)], parent[:len(dist)] // one bounds check covers all three
	dist[src], hops[src] = 0, 0
	h := dheap{items: append(s.items[:0], heapItem{node: int32(src)})}
	for len(h.items) > 0 {
		if p != nil && !p.backStep(&h) {
			break
		}
		it := h.popLabel()
		u := it.node
		if it.key != dist[u] || it.hops != hops[u] {
			continue
		}
		if p != nil {
			if u == p.dst {
				break
			}
			if p.cut(u, it.key) {
				continue // no path through u can come within pairEps of mu
			}
		}
		settled++
		nh := it.hops + 1
		lo, hi := c.off[u], c.off[u+1]
		for x := lo; x < hi; x++ {
			v := c.to[x]
			nd, dv := it.key+c.w[x], dist[v]
			if !(nd <= dv) || nd == dv && (nd == Inf || nh > hops[v] || nh == hops[v] && u >= parent[v]) {
				continue
			}
			if p != nil && !p.admit(v, nd) {
				continue
			}
			dist[v], parent[v] = nd, u
			if nd < dv || nh < hops[v] {
				hops[v] = nh
				h.push(heapItem{node: v, hops: nh, key: nd})
			}
		}
	}
	s.items = h.items[:0]
	return settled
}
