package graph

import (
	"sync/atomic"

	"egoist/internal/par"
)

// DynamicRows maintains exact single-source shortest-path distance rows
// from a fixed set of source nodes over a graph that evolves by
// whole-out-set replacements (a node re-wiring its overlay links) —
// the workhorse behind the scale engine's facility directory. A full
// rebuild runs one Dijkstra per source; Apply then repairs each row
// incrementally after a batch of re-wirings, with the kernel SPForest
// repairs its trees with (rowScratch.repair): rows whose shortest-path
// tree never used a changed node are verified untouched in O(k) per
// edit, and affected rows recompute only the invalidated subtrees plus
// an insertion relaxation — cost proportional to the churn, not to
// |sources|·n. Rebase changes the source set over the maintained graph
// and builds rows only for the sources that are new. Arc weights must
// be stable per (u,v) pair (the scale engine's delays are static); only
// the arc sets change.
//
// Repaired distances are exactly the distances a fresh Dijkstra on the
// edited graph would produce (same left-to-right per-path folds, same
// minima), so callers can treat rows as always-fresh.
//
// Concurrency contract: Reset, Rebase, Apply, AddSource and RemoveSource
// are mutations and must run with no other call in flight. Between
// mutations, every read — Row, RowAt, Graph, In, Sources — is safe
// from any number of goroutines concurrently: the scale engine's
// parallel proposal phase prices candidates off these rows from all
// workers at once, and the adoption/churn mutations run strictly
// serially in between. The contract is enforced two ways: the readers
// panic if they observe a mutation in flight (a cheap atomic flag, so
// misuse fails loudly even without -race), and the race-detector
// stress suites hammer concurrent reads against serial mutations.
type DynamicRows struct {
	liveGraph
	sources []int
	slot    []int32 // node id -> row index, -1 when absent
	// rows[i] is source i's row. Row storage no source holds at the
	// moment is parked in rows[len(rows):cap(rows)], where AddSource and
	// the next Reset/Rebase find it again.
	rows    []dynRow
	spare   []dynRow // the header array reseat builds the next rows in
	fresh   []int    // row indices reseat has to build
	workers int

	scratch []*rowScratch
	edits   []outEdit // their arc buffers are reused from Apply to Apply
	// The par.Do bodies (buildFresh and repairRow), bound by the first
	// reseat: a function value handed to par.Do escapes, so binding at
	// the call site would allocate on every Apply.
	buildFn, repairFn func(worker, i int)

	// resets counts full rebuilds (Reset calls), applies incremental
	// repairs (Apply calls), fullRows the fresh Dijkstra rows built by
	// any path.
	resets, applies, fullRows int

	// mutating is set for the duration of every mutation; readers check
	// it to fail loudly on a contract violation (reads racing a
	// mutation would otherwise return silently corrupt distances).
	mutating atomic.Bool
}

// beginMutate flags a mutation in flight; the returned func clears it.
func (r *DynamicRows) beginMutate() func() {
	if r.mutating.Swap(true) {
		panic("graph: concurrent DynamicRows mutations")
	}
	return func() { r.mutating.Store(false) }
}

// checkRead panics when a reader races a mutation — the misuse the
// concurrency contract above rules out.
func (r *DynamicRows) checkRead() {
	if r.mutating.Load() {
		panic("graph: DynamicRows read during Reset/Rebase/Apply/AddSource/RemoveSource")
	}
}

// dynRow is one source's distances and shortest-path tree.
type dynRow struct {
	dist   []float64
	parent []int32
}

// RowEdit is one node's new out-arc set for Apply.
type RowEdit struct {
	Node   NodeID
	NewOut []Arc
}

// NewDynamicRows returns an empty row set; call Reset before use.
func NewDynamicRows() *DynamicRows { return &DynamicRows{} }

// Graph exposes the maintained graph. Callers may read it (e.g. run
// their own searches, concurrently) between mutations but must not
// mutate it.
func (r *DynamicRows) Graph() *Digraph {
	r.checkRead()
	return r.g
}

// Sources returns the current source set (aliased; do not modify).
func (r *DynamicRows) Sources() []int {
	r.checkRead()
	return r.sources
}

// Row returns the distance row of node v, or nil if v is not a source.
// The row is valid until the next mutation; concurrent reads between
// mutations are safe.
func (r *DynamicRows) Row(v NodeID) []float64 {
	r.checkRead()
	if s := r.slot[v]; s >= 0 {
		return r.rows[s].dist
	}
	return nil
}

// RowAt returns the i-th source's distance row.
func (r *DynamicRows) RowAt(i int) []float64 {
	r.checkRead()
	return r.rows[i].dist
}

// In returns the arcs into v, each as {To: tail, W: weight}, in no
// particular order (aliased; do not modify). Valid until the next
// mutation.
func (r *DynamicRows) In(v NodeID) []Arc {
	r.checkRead()
	return r.rev[v]
}

// Resets reports how many full rebuilds (Reset calls) have run.
func (r *DynamicRows) Resets() int { return r.resets }

// Applies reports how many incremental repairs (Apply calls) have run.
func (r *DynamicRows) Applies() int { return r.applies }

// FullRows reports how many fresh Dijkstra rows have been built so far,
// by Reset, Rebase and AddSource together — the work a rebuild did.
func (r *DynamicRows) FullRows() int { return r.fullRows }

// Reset rebuilds everything: graph copy, reverse adjacency, and one
// full Dijkstra row per source, fanned out over workers (0 = NumCPU).
func (r *DynamicRows) Reset(g *Digraph, sources []int, workers int) {
	defer r.beginMutate()()
	r.resets++
	n := g.N()
	r.liveGraph.reset(g)
	if cap(r.slot) < n {
		r.slot = make([]int32, n)
	}
	r.slot = r.slot[:n]
	for v := range r.slot {
		r.slot[v] = -1
	}
	// With every slot clear reseat finds no row to keep; and the old ids
	// must go, n may have shrunk under them.
	r.sources = r.sources[:0]
	r.reseat(sources, workers)
}

// Rebase makes sources the source set over the maintained graph. It
// keeps the row of every source that already has one and builds rows
// only for the new sources, on the storage the departed sources leave
// behind; a kept row is exact by the contract above. The result is what
// a fresh Reset(Graph(), sources) holds: same source order, same slots,
// same distances. Rebase panics before the first Reset.
func (r *DynamicRows) Rebase(sources []int, workers int) {
	if r.g == nil {
		panic("graph: DynamicRows.Rebase before Reset: no graph is maintained")
	}
	defer r.beginMutate()()
	r.reseat(sources, workers)
}

// reseat installs sources as the source set, in order, over the
// maintained graph. A source that holds a row (has a slot) keeps it;
// every other row is built fresh. Row storage is recycled — the rows of
// departed sources and the parked spares go to the newcomers first — so
// a steady rotation allocates nothing.
func (r *DynamicRows) reseat(sources []int, workers int) {
	n := r.g.N()
	r.workers = par.Workers(workers)
	for len(r.scratch) < r.workers {
		r.scratch = append(r.scratch, &rowScratch{})
	}
	if r.buildFn == nil {
		r.buildFn, r.repairFn = r.buildFresh, r.repairRow
	}
	old := r.rows[:cap(r.rows)]
	next := r.spare[:0]
	r.fresh = r.fresh[:0]
	for i, s := range sources {
		var row dynRow
		if os := r.slot[s]; os >= 0 {
			row, old[os] = old[os], dynRow{}
		}
		if row.dist == nil {
			r.fresh = append(r.fresh, i)
		}
		next = append(next, row)
	}
	given := 0
	for x, row := range old {
		old[x] = dynRow{}
		switch {
		case len(row.dist) != n: // nothing here, or sized for another graph
		case given < len(r.fresh):
			next[r.fresh[given]] = row
			given++
		default:
			next = append(next, row)
		}
	}
	r.rows, r.spare = next[:len(sources)], old[:0]
	for _, s := range r.sources {
		r.slot[s] = -1
	}
	r.sources = append(r.sources[:0], sources...)
	for i, s := range r.sources {
		r.slot[s] = int32(i)
	}
	r.fullRows += len(r.fresh)
	par.Do(len(r.fresh), r.workers, r.buildFn)
}

// buildFresh builds the x-th row of reseat's to-do list.
func (r *DynamicRows) buildFresh(worker, x int) { r.fullRow(r.fresh[x], r.scratch[worker]) }

// fullRow runs a fresh Dijkstra with parent tracking for row i,
// allocating the row's storage if it has none.
func (r *DynamicRows) fullRow(i int, sc *rowScratch) {
	row := &r.rows[i]
	if row.dist == nil {
		n := r.g.N()
		row.dist, row.parent = make([]float64, n), make([]int32, n)
	}
	src := r.sources[i]
	sc.sp.shortest(r.g, src, r.g.Out(src), row.dist, row.parent)
}

// Apply replaces the out-arc sets of the edited nodes and repairs every
// row. Edits take effect atomically: all rows see all edits. A node
// edited twice in one batch ends with its later out-set.
func (r *DynamicRows) Apply(edits []RowEdit) {
	if len(edits) == 0 {
		return
	}
	defer r.beginMutate()()
	r.applies++
	r.edits = r.edits[:0]
	for _, e := range edits {
		r.edits = r.setOut(r.edits, e.Node, e.NewOut)
	}
	par.Do(len(r.sources), r.workers, r.repairFn)
}

// AddSource adds v as a new source with one fresh Dijkstra row — the
// per-event cost of bootstrapping a joining node into the scale
// engine's facility directory, O(E log n) instead of a full
// |sources|-row rebuild. No-op when v is already a source.
func (r *DynamicRows) AddSource(v NodeID) {
	if r.slot[v] >= 0 {
		return
	}
	defer r.beginMutate()()
	i := len(r.sources)
	r.slot[v] = int32(i)
	r.sources = append(r.sources, v)
	if i < cap(r.rows) {
		r.rows = r.rows[:i+1] // a parked spare, if one is left
	} else {
		r.rows = append(r.rows, dynRow{})
	}
	r.fullRows++
	r.fullRow(i, r.scratch[0])
}

// RemoveSource drops source v's row in O(1) by swapping the last row
// into its slot — used when a directory member leaves the overlay, so
// its (now meaningless) row stops being repaired. Sources and RowAt
// stay aligned: the last source takes over v's position in both. No-op
// when v is not a source.
func (r *DynamicRows) RemoveSource(v NodeID) {
	s := r.slot[v]
	if s < 0 {
		return
	}
	defer r.beginMutate()()
	last := len(r.sources) - 1
	moved := r.sources[last]
	r.sources[s] = moved
	r.rows[s], r.rows[last] = r.rows[last], r.rows[s]
	r.slot[moved] = s
	r.slot[v] = -1
	r.sources = r.sources[:last]
	r.rows = r.rows[:last]
}

// repairRow repairs row i after the recorded edits on the worker's
// scratch.
func (r *DynamicRows) repairRow(worker, i int) {
	sc := r.scratch[worker]
	sc.log = sc.log[:0]
	sc.repair(false, &r.liveGraph, r.edits, r.sources[i], r.rows[i].dist, r.rows[i].parent)
}
