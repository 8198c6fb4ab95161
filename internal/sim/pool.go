package sim

import (
	"cmp"
	"slices"

	"egoist/internal/graph"
)

// scalePool is the epoch's facility directory: one graph.DynamicRows
// instance holding the live overlay graph and one exact, incrementally
// maintained SSSP row per member. Candidate selection iterates the
// members in the instance's own source order (sorted at rebuild, append
// on join, swap-remove on leave).
type scalePool struct {
	dir *graph.DynamicRows

	// rebuild's scratch.
	ids    []int
	member []bool
	indeg  []int32
	gbuild *graph.Digraph
	// apply's scratch.
	edits []graph.RowEdit
	arcs  []graph.Arc

	// resets counts directory rebuilds — one per epoch, whether the
	// rebuild recomputed every row or only the new members' — and applies
	// the incremental repairs. They are ScaleResult's
	// DirectoryResets/DirectoryApplies, on which the churn tests pin the
	// maintenance invariant (events never trigger a full rebuild).
	resets, applies int
}

// newScalePool returns an empty directory for an n-node overlay; the
// first rebuild fills it.
func newScalePool(n int) *scalePool {
	return &scalePool{
		dir:    graph.NewDynamicRows(),
		member: make([]bool, n),
		indeg:  make([]int32, n),
		gbuild: graph.New(n),
	}
}

// rebuild recomputes the directory membership for the epoch — all wired
// targets (trimmed to the cap by in-degree, ties to lower ids) plus the
// epoch's explorer rotation and any nodes that joined since the last
// rebuild — and rebases the directory onto it across the workers: the
// first rebuild runs every member's Dijkstra, later ones only the new
// members', because the overlay they would run over is the one the
// previous epoch's repairs already left the rows exact for. Within the
// epoch, apply/AddSource/RemoveSource keep the rows exact incrementally.
func (sp *scalePool) rebuild(c *ScaleConfig, eng *scaleEngine, epoch, workers int) {
	n := c.N
	for i := range sp.indeg {
		sp.indeg[i] = 0
		sp.member[i] = false
	}
	sp.gbuild.Resize(n)
	// Dead nodes hold no out-links and their in-links were dropped at
	// the leave event, so indeg-driven membership is alive-only.
	for u, ws := range eng.wiring {
		for _, v := range ws {
			sp.gbuild.AddArc(u, v, c.Net.Delay(u, v))
			sp.indeg[v]++
		}
	}
	sp.ids = sp.ids[:0]
	for v := 0; v < n; v++ {
		if sp.indeg[v] > 0 {
			sp.member[v] = true
			sp.ids = append(sp.ids, v)
		}
	}
	if len(sp.ids) > c.poolTarget {
		// Trim the least-popular wired targets.
		slices.SortFunc(sp.ids, func(a, b int) int {
			if d := cmp.Compare(sp.indeg[b], sp.indeg[a]); d != 0 {
				return d
			}
			return a - b
		})
		for _, v := range sp.ids[c.poolTarget:] {
			sp.member[v] = false
		}
		sp.ids = sp.ids[:c.poolTarget]
	}
	// Fresh joiners keep their directory seat through the rebuild after
	// their join epoch, so the overlay can discover them even before
	// they attract an in-link.
	for _, v := range eng.recentJoins {
		if eng.active[v] && !sp.member[v] {
			sp.member[v] = true
			sp.ids = append(sp.ids, v)
		}
	}
	eng.recentJoins = eng.recentJoins[:0]
	// Explorer rotation: a consecutive id block shifted by the epoch, so
	// every node periodically appears in the directory even with zero
	// in-links and the whole roster is covered every n/poolExplore
	// epochs. Departed nodes sit the rotation out.
	for e := 0; e < c.poolExplore; e++ {
		v := (epoch*c.poolExplore + e) % n
		if !sp.member[v] && eng.active[v] {
			sp.member[v] = true
			sp.ids = append(sp.ids, v)
		}
	}
	slices.Sort(sp.ids)
	sp.resets++
	sp.dir.Rebase(sp.gbuild, sp.ids, workers)
}

// applyEdits folds out-set replacements into the directory graph and
// repairs the member rows incrementally.
func (sp *scalePool) applyEdits(edits []graph.RowEdit) {
	if len(edits) == 0 {
		return
	}
	sp.applies++
	sp.dir.Apply(edits)
}

// apply folds one sub-round's adopted re-wirings into the directory.
func (sp *scalePool) apply(c *ScaleConfig, rewired []int, wiring [][]int) {
	sp.edits = sp.edits[:0]
	sp.arcs = sp.arcs[:0]
	for _, u := range rewired {
		start := len(sp.arcs)
		for _, v := range wiring[u] {
			sp.arcs = append(sp.arcs, graph.Arc{To: v, W: c.Net.Delay(u, v)})
		}
		sp.edits = append(sp.edits, graph.RowEdit{Node: u, NewOut: sp.arcs[start:]})
	}
	sp.applyEdits(sp.edits)
}
