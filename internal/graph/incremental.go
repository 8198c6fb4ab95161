package graph

// SPForest maintains all-pairs shortest-path (or widest-path) distances
// with parent trees under the one edit pattern of the best-response
// engine: removing one node's out-arcs (the residual graph G−i of the SNS
// formulation), reading the residual matrix, and then either restoring
// the arcs (the node kept its wiring) or committing its new ones (it
// re-wired). A removal repairs only the shortest-path trees that actually
// routed through the removed arcs — for most (source, removed-node) pairs
// an O(out-degree) check — instead of recomputing the full APSP per node;
// the restore replays an exact undo log, so the matrix after RestoreOut
// is bit-identical to the one before RemoveOut; a commit relaxes the new
// arcs into every tree.
//
// Distances computed after any edit equal a from-scratch APSP of the
// edited graph exactly (not just approximately): additive path costs are
// folded left-to-right along the path in every algorithm, so the
// floating-point values agree — which is what lets the full engine price
// every re-wiring off forests instead of all-pairs runs without perturbing
// its byte-identical determinism contract.
//
// A forest serves one goroutine; the full engine keeps one per worker of
// its speculative phase and one live forest its sequential slots edit.
type SPForest struct {
	widest bool
	n      int
	g      *Digraph // private copy of the snapshot graph
	dist   [][]float64
	parent [][]int32

	// Removal state (one outstanding removal at a time).
	removed     []Arc
	removedFrom int
	undo        []undoEntry

	// Reusable per-repair scratch.
	cut treeCut
	sp  SPScratch // its heap serves Reset's rows and the repairs
}

// undoEntry records one overwritten (source, node) distance/parent pair.
type undoEntry struct {
	src, node int32
	dist      float64
	parent    int32
}

// NewSPForest returns an empty forest; call Reset before use.
func NewSPForest() *SPForest { return &SPForest{removedFrom: -1} }

// Reset (re)initializes the forest for graph g under the additive
// (widest=false) or bottleneck (widest=true) algebra: a full APSP with
// parent tracking. The graph is copied; later mutations of g are not
// seen.
func (f *SPForest) Reset(g *Digraph, widest bool) {
	n := g.N()
	f.widest = widest
	f.n = n
	if f.g == nil {
		f.g = New(n)
	}
	f.g.CopyFrom(g)
	f.dist = reshape(f.dist, n)
	f.parent = reshapeInt32(f.parent, n)
	f.removed = f.removed[:0]
	f.removedFrom = -1
	f.undo = f.undo[:0]
	for src := 0; src < n; src++ {
		f.sssp(src)
	}
}

// Dist exposes the maintained distance matrix, indexed [src][dst]. The
// rows are valid until the next Reset/RemoveOut/RestoreOut/CommitOut call
// and must not be modified.
func (f *SPForest) Dist() [][]float64 { return f.dist }

// N returns the node count of the current graph.
func (f *SPForest) N() int { return f.n }

// sssp runs a full single-source computation for src into the forest's
// matrices (used by Reset): the fresh search whose settle loop the
// repairs below run too.
func (f *SPForest) sssp(src int) {
	if f.widest {
		f.sp.widest(f.g, src, f.dist[src], f.parent[src])
	} else {
		f.sp.shortest(f.g, src, f.g.Out(src), f.dist[src], f.parent[src])
	}
}

// RemoveOut removes node u's out-arcs from the maintained graph and
// repairs every affected shortest-path tree, logging exact undo
// information. Only one removal may be outstanding; end it with
// RestoreOut or CommitOut before the next RemoveOut.
func (f *SPForest) RemoveOut(u int) {
	if f.removedFrom >= 0 {
		panic("graph: SPForest.RemoveOut with a removal outstanding")
	}
	f.removed = append(f.removed[:0], f.g.Out(u)...)
	f.removedFrom = u
	f.undo = f.undo[:0]
	f.g.ClearOut(u)
	if len(f.removed) == 0 {
		return
	}
	f.cut.size(f.n)
	for src := 0; src < f.n; src++ {
		f.repairAfterRemove(src, u)
	}
}

// repairAfterRemove fixes source src's tree after u's out-arcs were
// removed. Trees that never routed through u (parent[v] != u for every
// removed head v) are untouched — the common case, detected in
// O(out-degree).
func (f *SPForest) repairAfterRemove(src, u int) {
	dist, parent := f.dist[src], f.parent[src]
	c := &f.cut
	for _, a := range f.removed {
		if parent[a.To] == int32(u) {
			c.add(a.To)
		}
	}
	if len(c.queue) == 0 {
		return
	}
	// Cut the subtrees hanging off u's removed tree arcs.
	c.collect(parent)
	worst := Inf
	if f.widest {
		worst = 0
	}
	// Invalidate the affected region, logging prior values for the undo.
	for _, v := range c.queue {
		f.undo = append(f.undo, undoEntry{src: int32(src), node: v, dist: dist[v], parent: parent[v]})
		dist[v] = worst
		parent[v] = -1
	}
	// Re-relax from the unaffected boundary: any arc x->w with x intact
	// and w affected seeds the repair heap, then the settle loop confined
	// to the region settles it (arcs between affected nodes included).
	// The kernels are called directly, not through function values, so
	// the heap header stays on the stack.
	h := dheap{items: f.sp.items[:0]}
	for x := 0; x < f.n; x++ {
		switch {
		case c.affected[x]:
		case f.widest:
			relaxMax(&h, x, dist[x], f.g.out[x], dist, parent, c.affected)
		default:
			relaxMin(&h, x, dist[x], f.g.out[x], dist, parent, c.affected)
		}
	}
	if f.widest {
		settleMax(&h, f.g.out, dist, parent, c.affected)
	} else {
		settleMin(&h, f.g.out, dist, parent, c.affected)
	}
	f.sp.items = h.items[:0]
	c.clear()
}

// RestoreOut re-adds the arcs removed by the last RemoveOut and replays
// the undo log, restoring the exact pre-removal matrices.
func (f *SPForest) RestoreOut() {
	if f.removedFrom < 0 {
		panic("graph: SPForest.RestoreOut without a removal outstanding")
	}
	for _, a := range f.removed {
		f.g.AddArc(f.removedFrom, a.To, a.W)
	}
	// Reverse replay: entries were appended oldest-first per source, and
	// a node appears at most once per source, so order within a source
	// does not matter — but reverse replay stays correct even if that
	// invariant ever changes.
	for i := len(f.undo) - 1; i >= 0; i-- {
		e := f.undo[i]
		f.dist[e.src][e.node] = e.dist
		f.parent[e.src][e.node] = e.parent
	}
	f.removed = f.removed[:0]
	f.removedFrom = -1
	f.undo = f.undo[:0]
}

// CommitOut ends the outstanding removal the other way: arcs become the
// removed node's new out-arcs, the undo log is dropped, and every tree
// relaxes the new arcs from the node's label and settles what they
// improve. Adding arcs only lowers additive labels (widens bottleneck
// ones), and every label that moves is reached through one of them, so
// the matrix equals a fresh Reset of the edited graph.
func (f *SPForest) CommitOut(arcs []Arc) {
	u := f.removedFrom
	if u < 0 {
		panic("graph: SPForest.CommitOut without a removal outstanding")
	}
	for _, a := range arcs {
		f.g.AddArc(u, a.To, a.W)
	}
	out := f.g.out[u]
	h := dheap{items: f.sp.items[:0]}
	for src := 0; src < f.n; src++ {
		dist, parent := f.dist[src], f.parent[src]
		if f.widest {
			relaxMax(&h, u, dist[u], out, dist, parent, nil)
			settleMax(&h, f.g.out, dist, parent, nil)
		} else {
			relaxMin(&h, u, dist[u], out, dist, parent, nil)
			settleMin(&h, f.g.out, dist, parent, nil)
		}
	}
	f.sp.items = h.items[:0]
	f.removed = f.removed[:0]
	f.removedFrom = -1
	f.undo = f.undo[:0]
}

// reshapeInt32 returns dst as an n×n int32 matrix backed by one block,
// reusing storage when the shape already matches.
func reshapeInt32(dst [][]int32, n int) [][]int32 {
	if len(dst) == n && (n == 0 || len(dst[0]) == n) {
		return dst
	}
	flat := make([]int32, n*n)
	dst = make([][]int32, n)
	for i := range dst {
		dst[i] = flat[i*n : (i+1)*n]
	}
	return dst
}

// treeCut is the scratch of a subtree invalidation, shared by SPForest
// and DynamicRows: both repair a row by cutting the shortest-path
// subtrees that hung off removed tree arcs and re-settling that region.
// affected marks the region, queue lists it in discovery order (the
// roots first), and the child lists are what collect walks.
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

// clear empties the region.
func (c *treeCut) clear() {
	for _, v := range c.queue {
		c.affected[v] = false
	}
	c.queue = c.queue[:0]
}
