package sim

import (
	"cmp"
	"slices"

	"egoist/internal/graph"
)

// scalePool is the facility directory: one graph.DynamicRows instance
// holding the live overlay graph — the wiring priced by Net.Delay, the
// engine's only copy of it beside the wiring itself — and one exact,
// incrementally maintained SSSP row per member. It is seeded once from
// the bootstrap wiring, and every later change to a wiring is staged
// into it and committed in the serial section that made it. Candidate
// selection iterates the members in the instance's own source order
// (sorted at rebuild, append on join, swap-remove on leave).
type scalePool struct {
	dir *graph.DynamicRows
	net ScaleNet

	// rebuild's scratch.
	ids    []int
	member []bool
	// The staged edits and their arcs, until commit.
	edits []graph.RowEdit
	arcs  []graph.Arc

	// resets counts directory rebuilds — one per epoch, whether the
	// rebuild built every row or only the new members' — ScaleResult's
	// DirectoryResets, on which the churn tests pin the maintenance
	// invariant (events never trigger a rebuild).
	resets int
}

// newScalePool seeds the directory with the bootstrap wiring and no
// members; the first rebuild seats them.
func newScalePool(c *ScaleConfig, wiring [][]int, workers int) *scalePool {
	g := graph.New(c.N)
	for u, ws := range wiring {
		for _, v := range ws {
			g.AddArc(u, v, c.Net.Delay(u, v))
		}
	}
	sp := &scalePool{dir: graph.NewDynamicRows(), net: c.Net, member: make([]bool, c.N)}
	sp.dir.Reset(g, nil, workers)
	return sp
}

// rebuild recomputes the directory membership for the epoch — all wired
// targets (trimmed to the cap by in-degree, ties to lower ids) plus the
// epoch's explorer rotation and any nodes that joined since the last
// rebuild — and re-seats the directory on it across the workers: the
// first rebuild runs every member's Dijkstra, later ones only the new
// members', because the graph the others' rows are exact for is the one
// they would run over. Within the epoch, stage/commit and
// AddSource/RemoveSource keep the rows exact incrementally.
func (sp *scalePool) rebuild(c *ScaleConfig, eng *scaleEngine, epoch, workers int) {
	n := c.N
	// Dead nodes hold no out-links and their in-links were dropped at
	// the leave event, so in-degree-driven membership is alive-only.
	indeg := func(v int) int { return len(sp.dir.In(v)) }
	sp.ids = sp.ids[:0]
	for v := 0; v < n; v++ {
		sp.member[v] = indeg(v) > 0
		if sp.member[v] {
			sp.ids = append(sp.ids, v)
		}
	}
	if len(sp.ids) > c.poolTarget {
		// Trim the least-popular wired targets.
		slices.SortFunc(sp.ids, func(a, b int) int {
			if d := cmp.Compare(indeg(b), indeg(a)); d != 0 {
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
	sp.dir.Rebase(sp.ids, workers)
}

// stage queues u's out-set replacement by wiring, each arc priced by
// Net.Delay, for the next commit.
func (sp *scalePool) stage(u int, wiring []int) {
	start := len(sp.arcs)
	for _, v := range wiring {
		sp.arcs = append(sp.arcs, graph.Arc{To: v, W: sp.net.Delay(u, v)})
	}
	sp.edits = append(sp.edits, graph.RowEdit{Node: u, NewOut: sp.arcs[start:]})
}

// commit folds the staged edits into the directory graph as one batch
// and repairs the member rows incrementally.
func (sp *scalePool) commit() {
	sp.dir.Apply(sp.edits)
	sp.edits, sp.arcs = sp.edits[:0], sp.arcs[:0]
}
