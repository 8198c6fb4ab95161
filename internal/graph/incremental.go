package graph

// SPForest maintains all-pairs shortest-path (or widest-path) distances
// with parent trees under the one edit pattern of the best-response
// engine: temporarily removing one node's out-arcs (the residual graph
// G−i of the SNS formulation) and then restoring them. A removal repairs
// only the shortest-path trees that actually routed through the removed
// arcs — for most (source, removed-node) pairs an O(out-degree) check —
// instead of recomputing the full APSP per node, and the restore replays
// an exact undo log, so the matrix after RestoreOut is bit-identical to
// the one before RemoveOut.
//
// Distances computed after a removal equal a from-scratch APSP of the
// edited graph exactly (not just approximately): additive path costs are
// folded left-to-right along the path in both algorithms, so the
// floating-point values agree — which is what lets the parallel
// simulation engine swap this in for BuildResid without perturbing its
// byte-identical determinism contract.
//
// A forest serves one goroutine; the parallel engine keeps one per
// worker.
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
	affected  []bool
	childHead []int32
	childNext []int32
	queue     []int32
	sp        SPScratch // its heap serves Reset's rows and the repairs
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
	f.affected = boolsN(f.affected, n)
	f.childHead = int32sN(f.childHead, n)
	f.childNext = int32sN(f.childNext, n)
	for src := 0; src < n; src++ {
		f.sssp(src)
	}
}

// Dist exposes the maintained distance matrix, indexed [src][dst]. The
// rows are valid until the next Reset/RemoveOut/RestoreOut call and must
// not be modified.
func (f *SPForest) Dist() [][]float64 { return f.dist }

// N returns the node count of the current graph.
func (f *SPForest) N() int { return f.n }

// worstVal is the algebra's unreachable marker.
func (f *SPForest) worstVal() float64 {
	if f.widest {
		return 0
	}
	return Inf
}

// better reports whether a beats b under the algebra.
func (f *SPForest) better(a, b float64) bool {
	if f.widest {
		return a > b
	}
	return a < b
}

// extend folds an arc weight onto a path value.
func (f *SPForest) extend(base, w float64) float64 {
	if f.widest {
		if w < base {
			return w
		}
		return base
	}
	return base + w
}

// sssp runs a full single-source computation for src into the forest's
// matrices (used by Reset): the shared Digraph kernel, whose heap and
// strict-improvement parent rule the repairs below follow.
func (f *SPForest) sssp(src int) {
	if f.widest {
		f.sp.widest(f.g, src, f.dist[src], f.parent[src])
	} else {
		f.sp.shortest(f.g, src, f.g.Out(src), f.dist[src], f.parent[src])
	}
}

// push and pop dispatch to the heap order matching the algebra.
func (f *SPForest) push(h *dheap, node NodeID, key float64) {
	if f.widest {
		h.pushMax(node, key)
	} else {
		h.pushMin(node, key)
	}
}

func (f *SPForest) pop(h *dheap) heapItem {
	if f.widest {
		return h.popMax()
	}
	return h.popMin()
}

// sameKey compares a heap key against the current distance, treating the
// widest-path +Inf self value correctly.
func sameKey(a, b float64) bool { return a == b }

// RemoveOut removes node u's out-arcs from the maintained graph and
// repairs every affected shortest-path tree, logging exact undo
// information. Only one removal may be outstanding; call RestoreOut
// before the next RemoveOut.
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
	cut := false
	for _, a := range f.removed {
		if parent[a.To] == int32(u) {
			cut = true
			break
		}
	}
	if !cut {
		return
	}
	// Build the tree's child lists in one pass, then collect the
	// descendants of u's cut children.
	for i := range f.childHead {
		f.childHead[i] = -1
	}
	for v := 0; v < f.n; v++ {
		if p := parent[v]; p >= 0 {
			f.childNext[v] = f.childHead[p]
			f.childHead[p] = int32(v)
		}
	}
	f.queue = f.queue[:0]
	for _, a := range f.removed {
		if parent[a.To] == int32(u) {
			f.queue = append(f.queue, int32(a.To))
		}
	}
	for qi := 0; qi < len(f.queue); qi++ {
		v := f.queue[qi]
		f.affected[v] = true
		for c := f.childHead[v]; c >= 0; c = f.childNext[c] {
			f.queue = append(f.queue, c)
		}
	}
	// Invalidate the affected region, logging prior values for the undo.
	for _, v := range f.queue {
		f.undo = append(f.undo, undoEntry{src: int32(src), node: v, dist: dist[v], parent: parent[v]})
		dist[v] = f.worstVal()
		parent[v] = -1
	}
	// Re-relax from the unaffected boundary: any arc x->w with x intact
	// and w affected seeds the repair heap, then a restricted Dijkstra
	// settles the region (arcs between affected nodes included).
	h := dheap{items: f.sp.items[:0]}
	for x := 0; x < f.n; x++ {
		if f.affected[x] || dist[x] == f.worstVal() {
			continue
		}
		for _, a := range f.g.Out(x) {
			if !f.affected[a.To] {
				continue
			}
			if nd := f.extend(dist[x], a.W); f.better(nd, dist[a.To]) {
				dist[a.To] = nd
				parent[a.To] = int32(x)
				f.push(&h, a.To, nd)
			}
		}
	}
	for len(h.items) > 0 {
		it := f.pop(&h)
		w := it.node
		if !sameKey(it.key, dist[w]) {
			continue
		}
		for _, a := range f.g.Out(w) {
			if !f.affected[a.To] {
				continue
			}
			if nd := f.extend(dist[w], a.W); f.better(nd, dist[a.To]) {
				dist[a.To] = nd
				parent[a.To] = int32(w)
				f.push(&h, a.To, nd)
			}
		}
	}
	f.sp.items = h.items[:0]
	for _, v := range f.queue {
		f.affected[v] = false
	}
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

// boolsN resizes a bool scratch slice to n, all false.
func boolsN(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// int32sN resizes an int32 scratch slice to n.
func int32sN(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
