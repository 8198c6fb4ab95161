package graph

import (
	"math"
	"slices"
)

// The one repair kernel over Digraph rows, shared by SPForest and
// DynamicRows: both keep a liveGraph, edit it only through setOut, and
// bring each maintained row up to date with rowScratch.repair.

// liveGraph is a maintained graph with its reverse adjacency, which the
// repair kernel seeds its cut regions from. setOut is the one edit of an
// out-set, so the two never fall out of step.
type liveGraph struct {
	g   *Digraph
	rev revAdj // reverse adjacency of g
}

// reset makes the live graph a copy of g, reusing storage.
func (l *liveGraph) reset(g *Digraph) {
	if l.g == nil {
		l.g = New(g.N())
	}
	l.g.CopyFrom(g)
	l.rev.reset(l.g)
}

// outEdit records one node's out-set replacement for the repair kernel:
// old is what the node held before the batch; its new out-set is what
// the graph holds now.
type outEdit struct {
	node int
	old  []Arc
}

// setOut replaces u's out-arcs with arcs (AddArc semantics: a head named
// twice keeps its later weight) and records the edit in edits, returning
// the extended batch. The batch's entries and their arc buffers are
// reused from call to call. A node already in the batch keeps its one
// record, with its first old out-set: the batch then reads as a single
// edit from the arcs before it to the arcs after it.
func (l *liveGraph) setOut(edits []outEdit, u int, arcs []Arc) []outEdit {
	out := l.g.out[u]
	l.rev.drop(u, out)
	x := 0
	for x < len(edits) && edits[x].node != u {
		x++
	}
	if x == len(edits) {
		if x < cap(edits) {
			edits = edits[:x+1]
		} else {
			edits = append(edits, outEdit{})
		}
		edits[x].node = u
		edits[x].old = append(edits[x].old[:0], out...)
	}
	l.g.ClearOut(u)
	for _, a := range arcs {
		l.g.AddArc(u, a.To, a.W)
	}
	l.rev.add(u, l.g.out[u])
	return edits
}

// label is one (source, node) label the kernel overwrote: SPForest's
// undo log and the cut region's prior values are the same record.
type label struct {
	src, node int32
	dist      float64
	parent    int32
}

// rowScratch is one goroutine's search and repair state: the cut, the
// heap's backing array, and the log of overwritten labels.
type rowScratch struct {
	cut treeCut
	sp  SPScratch
	log []label
}

// repair brings source src's row (dist, parent), exact for the graph
// before edits, up to date with live, where the edits have been made.
// It appends every label it invalidates to s.log before overwriting it.
// Under the additive algebra (widest=false) or the bottleneck one it
//  1. roots a cut at every former tree child of an edited node whose
//     arc the node's new out-set no longer holds,
//  2. collects the subtrees under those roots, logs and invalidates
//     them, seeds them from their intact in-arcs and settles with the
//     loop confined to the region,
//  3. pushes every region node that came back better than its logged
//     label — through a new arc it can improve labels outside the
//     region, which the confined settle never relaxes —
//  4. relaxes every edited node's new arcs and settles globally.
//
// The result is the row a fresh search of live computes, distance bit
// for distance bit. Rows a batch does not cut cost O(arcs edited).
func (s *rowScratch) repair(widest bool, live *liveGraph, edits []outEdit, src int, dist []float64, parent []int32) {
	out := live.g.out
	c := &s.cut
	c.size(len(dist))
	for _, e := range edits {
		for _, a := range e.old {
			if parent[a.To] == int32(e.node) && !slices.Contains(out[e.node], a) {
				c.add(a.To)
			}
		}
	}
	// The heap lives in a local for the duration: workers' scratch
	// structs can share a cache line, and a heap pushed and popped
	// through the pointer would write its header there on every
	// operation. The kernels are called directly, not through function
	// values, so the header stays on the stack.
	h := dheap{items: s.sp.items[:0]}
	start := len(s.log)
	if len(c.queue) > 0 {
		c.collect(parent)
		worst := Inf
		if widest {
			worst = 0
		}
		for _, v := range c.queue {
			s.log = append(s.log, label{src: int32(src), node: v, dist: dist[v], parent: parent[v]})
			dist[v] = worst
			parent[v] = -1
		}
		if widest {
			c.seedMax(&h, live.rev, dist, parent)
			settleMax(&h, out, dist, parent, c.affected)
		} else {
			c.seedMin(&h, live.rev, dist, parent)
			settleMin(&h, out, dist, parent, c.affected)
		}
		c.clear()
	}
	for _, l := range s.log[start:] {
		if v := l.node; widest && dist[v] > l.dist {
			h.push(heapItem{node: v, key: -dist[v]})
		} else if !widest && dist[v] < l.dist {
			h.push(heapItem{node: v, key: dist[v]})
		}
	}
	for _, e := range edits {
		u := e.node
		if widest {
			relaxMax(&h, u, dist[u], out[u], dist, parent, nil)
		} else {
			relaxMin(&h, u, dist[u], out[u], dist, parent, nil)
		}
	}
	if widest {
		settleMax(&h, out, dist, parent, nil)
	} else {
		settleMin(&h, out, dist, parent, nil)
	}
	s.sp.items = h.items[:0]
}

// treeCut is the scratch of the kernel's subtree invalidation. affected
// marks the region, queue lists it in discovery order (the roots
// first), and the child lists are what collect walks.
type treeCut struct {
	affected             []bool
	queue                []int32
	childHead, childNext []int32
}

// size readies the cut for rows of n nodes. The region is empty between
// cuts: clear unmarks it and resets the queue.
func (c *treeCut) size(n int) {
	if cap(c.affected) < n {
		c.affected = make([]bool, n)
		c.childHead = make([]int32, n)
		c.childNext = make([]int32, n)
	}
	c.affected = c.affected[:n]
	c.childHead = c.childHead[:n]
	c.childNext = c.childNext[:n]
}

// add makes v a root of the cut unless it is already in the region.
func (c *treeCut) add(v int) {
	if !c.affected[v] {
		c.affected[v] = true
		c.queue = append(c.queue, int32(v))
	}
}

// collect extends the region from its roots to every descendant in the
// tree that parent encodes, building the tree's child lists in one pass.
func (c *treeCut) collect(parent []int32) {
	for v := range c.childHead {
		c.childHead[v] = -1
	}
	for v, p := range parent {
		if p >= 0 {
			c.childNext[v] = c.childHead[p]
			c.childHead[p] = int32(v)
		}
	}
	for qi := 0; qi < len(c.queue); qi++ {
		for x := c.childHead[c.queue[qi]]; x >= 0; x = c.childNext[x] {
			c.add(int(x))
		}
	}
}

// seedMin starts the repair of a cut region under the additive algebra:
// every in-arc x->v of a region node v whose tail x is outside the region
// relaxes v as relaxMin would, pushing it on h. The region's labels must
// already be invalidated.
func (c *treeCut) seedMin(h *dheap, rev revAdj, dist []float64, parent []int32) {
	for _, v := range c.queue {
		for _, a := range rev[v] {
			if nd := dist[a.To] + a.W; nd < dist[v] && !c.affected[a.To] {
				dist[v] = nd
				parent[v] = int32(a.To)
				h.push(heapItem{node: v, key: nd})
			}
		}
	}
}

// seedMax is seedMin under the bottleneck algebra, as relaxMax relaxes.
func (c *treeCut) seedMax(h *dheap, rev revAdj, width []float64, parent []int32) {
	for _, v := range c.queue {
		for _, a := range rev[v] {
			if nw := math.Min(width[a.To], a.W); nw > width[v] && !c.affected[a.To] {
				width[v] = nw
				parent[v] = int32(a.To)
				h.push(heapItem{node: v, key: -nw})
			}
		}
	}
}

// clear empties the region.
func (c *treeCut) clear() {
	for _, v := range c.queue {
		c.affected[v] = false
	}
	c.queue = c.queue[:0]
}

// revAdj is the reverse adjacency of a Digraph: rev[v] lists every arc
// u->v as {To: u, W: w}, in no particular order.
type revAdj [][]Arc

// reset rebuilds the adjacency of g, reusing the lists' storage.
func (r *revAdj) reset(g *Digraph) {
	n := g.N()
	if cap(*r) < n {
		*r = make(revAdj, n)
	}
	*r = (*r)[:n]
	rev := *r
	for v := range rev {
		rev[v] = rev[v][:0]
	}
	for u := 0; u < n; u++ {
		rev.add(u, g.out[u])
	}
}

// add records u's out-arcs out. out must be u's arc list as the graph
// holds it — one arc per head — not a list AddArc was handed.
func (r revAdj) add(u int, out []Arc) {
	for _, a := range out {
		r[a.To] = append(r[a.To], Arc{To: u, W: a.W})
	}
}

// drop deletes the entries of u's former out-arcs out, one per arc.
func (r revAdj) drop(u int, out []Arc) {
	for _, a := range out {
		list := r[a.To]
		for x := range list {
			if list[x].To == u {
				list[x] = list[len(list)-1]
				r[a.To] = list[:len(list)-1]
				break
			}
		}
	}
}
