package graph

// SPForest maintains all-pairs shortest-path (or widest-path) distances
// with parent trees under the one edit pattern of the best-response
// engine: removing one node's out-arcs (the residual graph G−i of the SNS
// formulation), reading the residual matrix, and then either restoring
// the arcs (the node kept its wiring) or committing its new ones (it
// re-wired). Both edits are one out-set replacement repaired in every
// tree by the kernel DynamicRows repairs its rows with (rowScratch.repair):
// a removal cuts only the trees that actually routed through the removed
// arcs — for most (source, removed-node) pairs an O(out-degree) check —
// instead of recomputing the full APSP per node, and re-seeds each cut
// from the in-arcs of its region alone; a commit relaxes the new arcs
// into every tree. The labels a removal overwrites are its undo log, so
// the matrix after RestoreOut is bit-identical to the one before
// RemoveOut.
//
// Distances computed after any edit equal a from-scratch APSP of the
// edited graph exactly (not just approximately): additive path costs are
// folded left-to-right along the path in every algorithm, so the
// floating-point values agree — which is what lets the full engine price
// every re-wiring off forests instead of all-pairs runs without perturbing
// its byte-identical determinism contract. The distances are the unique
// fixed point of the relaxation, so the order a repair seeds its heap in
// can move only a parent between equal-cost predecessors, and Dist is all
// a caller reads.
//
// A forest serves one goroutine; the full engine keeps one live forest
// that its stagger slots edit in turn.
type SPForest struct {
	liveGraph // private copy of the snapshot graph
	widest    bool
	n         int
	dist      [][]float64
	parent    [][]int32

	// edits holds the outstanding removal (one at a time) or is empty;
	// sc.log is that removal's undo log.
	edits []outEdit
	sc    rowScratch
}

// NewSPForest returns an empty forest; call Reset before use.
func NewSPForest() *SPForest { return &SPForest{} }

// Reset (re)initializes the forest for graph g under the additive
// (widest=false) or bottleneck (widest=true) algebra: a full APSP with
// parent tracking. The graph is copied; later mutations of g are not
// seen.
func (f *SPForest) Reset(g *Digraph, widest bool) {
	n := g.N()
	f.widest = widest
	f.n = n
	f.liveGraph.reset(g)
	f.dist = reshape(f.dist, n)
	f.parent = reshapeInt32(f.parent, n)
	f.edits = f.edits[:0]
	f.sc.log = f.sc.log[:0]
	for src := 0; src < n; src++ {
		if widest {
			f.sc.sp.widest(f.g, src, f.dist[src], f.parent[src])
		} else {
			f.sc.sp.shortest(f.g, src, f.g.Out(src), f.dist[src], f.parent[src])
		}
	}
}

// Dist exposes the maintained distance matrix, indexed [src][dst]. The
// rows are valid until the next Reset/RemoveOut/RestoreOut/CommitOut call
// and must not be modified.
func (f *SPForest) Dist() [][]float64 { return f.dist }

// N returns the node count of the current graph.
func (f *SPForest) N() int { return f.n }

// RemoveOut removes node u's out-arcs from the maintained graph and
// repairs every affected shortest-path tree, logging exact undo
// information. Only one removal may be outstanding; end it with
// RestoreOut or CommitOut before the next RemoveOut.
func (f *SPForest) RemoveOut(u int) {
	if len(f.edits) > 0 {
		panic("graph: SPForest.RemoveOut with a removal outstanding")
	}
	f.sc.log = f.sc.log[:0]
	f.edit(u, nil)
}

// edit replaces u's out-arcs with arcs and repairs every tree, leaving
// the edit in f.edits.
func (f *SPForest) edit(u int, arcs []Arc) {
	f.edits = f.setOut(f.edits[:0], u, arcs)
	for src := 0; src < f.n; src++ {
		f.sc.repair(f.widest, &f.liveGraph, f.edits, src, f.dist[src], f.parent[src])
	}
}

// RestoreOut re-adds the arcs removed by the last RemoveOut and replays
// the undo log, restoring the exact pre-removal matrices.
func (f *SPForest) RestoreOut() {
	if len(f.edits) == 0 {
		panic("graph: SPForest.RestoreOut without a removal outstanding")
	}
	e := f.edits[0]
	f.setOut(f.edits, e.node, e.old)
	// Reverse replay: a node appears at most once per source, so order
	// does not matter — but reverse replay stays correct even if that
	// invariant ever changes.
	for i := len(f.sc.log) - 1; i >= 0; i-- {
		l := f.sc.log[i]
		f.dist[l.src][l.node] = l.dist
		f.parent[l.src][l.node] = l.parent
	}
	f.edits = f.edits[:0]
}

// CommitOut ends the outstanding removal the other way: arcs become the
// removed node's new out-arcs, the undo log is dropped, and every tree
// relaxes the new arcs from the node's label and settles what they
// improve. Adding arcs only lowers additive labels (widens bottleneck
// ones), and every label that moves is reached through one of them, so
// the matrix equals a fresh Reset of the edited graph.
func (f *SPForest) CommitOut(arcs []Arc) {
	if len(f.edits) == 0 {
		panic("graph: SPForest.CommitOut without a removal outstanding")
	}
	f.sc.log = f.sc.log[:0]
	f.edit(f.edits[0].node, arcs)
	f.edits = f.edits[:0]
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
