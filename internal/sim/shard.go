package sim

import (
	"sort"

	"egoist/internal/graph"
	"egoist/internal/par"
)

// This file is the scale engine's shard layer (PR 7): the facility
// directory and the proposal scheduler partitioned into region shards.
//
// A shard is a contiguous node-id band [s·n/S, (s+1)·n/S) — the same
// band convention the scenario harness uses for regions, so a regional
// outage drains exactly one shard. Each shard owns
//
//   - the directory rows of the pool members inside its band, held in
//     its own bounded graph.DynamicRows instance (~|pool|/S rows — the
//     unit a distributed control plane would place per machine), and
//   - a full replica of the live overlay graph (inside that instance),
//     which its proposal workers price against: the per-node seeded
//     Dijkstra of the proposal phase reads only shard-local memory.
//
// Cross-shard exchange. A node's candidate facilities are drawn from
// the global directory id list, so most candidates live in remote
// shards. Remote rows are read through row/rowAt — the exchange seam. The exchange stays "thin" because the directory
// itself is already a sampled digest of the overlay: remote nodes are
// visible only as wired targets or through the rotating explorer crop,
// and each proposer refines that digest with its own per-node sampled
// draw (half nearest, half uniform). Inclusion probabilities of the
// destination sample are computed against the global alive roster and
// every draw comes from the node's own policyRNG stream, so the
// Horvitz–Thompson weights — and with them EvalSampled's unbiasedness —
// are untouched by how many shards the directory is split across.
//
// The determinism contract extends to the shard-merge seam: shard
// membership, row values and the adoption fold are all pure functions
// of (config, seed) — the shard count only changes which DynamicRows
// instance stores a row and which worker pool computes a proposal,
// never a value anybody reads. Consequence, pinned by
// TestScaleResultJSONByteIdenticalAcrossShards and the golden-digest
// suite: ScaleResult is byte-identical (WallNS aside) for ANY
// (Shards, Workers) pair, and Shards=1 reproduces the pre-shard engine
// bit-for-bit.

// shardPlan is the node-id partition: shard s owns [bounds[s],
// bounds[s+1]).
type shardPlan struct {
	s      int
	bounds []int
	owner  []int32 // node id -> shard
}

// newShardPlan partitions n ids into s contiguous bands.
func newShardPlan(n, s int) shardPlan {
	p := shardPlan{s: s, bounds: make([]int, s+1), owner: make([]int32, n)}
	for i := 0; i <= s; i++ {
		p.bounds[i] = i * n / s
	}
	for sh := 0; sh < s; sh++ {
		for v := p.bounds[sh]; v < p.bounds[sh+1]; v++ {
			p.owner[v] = int32(sh)
		}
	}
	return p
}

// cut splits a sorted id slice at the shard boundaries: cut(ids)[s] is
// the subslice owned by shard s (possibly empty — a drained or
// undersized band is a valid shard that simply holds no rows).
func (p *shardPlan) cut(ids []int, out [][]int) [][]int {
	out = out[:0]
	lo := 0
	for sh := 0; sh < p.s; sh++ {
		hi := lo + sort.SearchInts(ids[lo:], p.bounds[sh+1])
		out = append(out, ids[lo:hi])
		lo = hi
	}
	return out
}

// scalePool is the epoch's facility directory, physically partitioned
// across the shard plan: member ids and one exact, incrementally
// maintained SSSP row per member, each row owned by the member's
// shard. The ids/pos bookkeeping replicates the pre-shard engine's
// single-instance order evolution exactly (sorted at rebuild, append
// on join, swap-remove on leave), so candidate selection — which
// iterates ids — sees the identical sequence at any shard count.
type scalePool struct {
	plan  *shardPlan
	insts []*graph.DynamicRows // one per shard; insts[s] holds shard s's rows
	wPer  int                  // workers per shard instance

	ids    []int   // directory membership, pre-shard order evolution
	pos    []int32 // node id -> index in ids, -1 when absent
	member []bool
	indeg  []int32
	gbuild *graph.Digraph
	edits  []graph.RowEdit
	arcs   []graph.Arc
	cutBuf [][]int

	// resets counts logical directory rebuilds and applies logical
	// incremental repairs — one per operation regardless of how many
	// shard instances fan out underneath, so ScaleResult's
	// DirectoryResets/DirectoryApplies are shard-count-invariant and the
	// churn tests' maintenance invariant (events never trigger a full
	// rebuild) keeps meaning the same thing at any Shards value.
	resets, applies int
}

// rebuild recomputes the directory membership for the epoch — all wired
// targets (trimmed to the cap by in-degree, ties to lower ids) plus the
// epoch's explorer rotation and any nodes that joined since the last
// rebuild — and rebases every shard instance onto it, fanned out shard ×
// worker: the first rebuild runs every member's Dijkstra, later ones
// only the new members', because the overlay they would run over is the
// one the previous epoch's repairs already left the rows exact for.
// Within the epoch, apply/addMember/dropMember keep the rows exact
// incrementally.
func (sp *scalePool) rebuild(c *ScaleConfig, eng *scaleEngine, epoch, workers int) {
	n := c.N
	if sp.insts == nil {
		sp.plan = &eng.plan
		sp.insts = make([]*graph.DynamicRows, sp.plan.s)
		for s := range sp.insts {
			sp.insts[s] = graph.NewDynamicRows()
		}
		sp.wPer = workers / sp.plan.s
		if sp.wPer < 1 {
			sp.wPer = 1
		}
		sp.indeg = make([]int32, n)
		sp.member = make([]bool, n)
		sp.pos = make([]int32, n)
		sp.gbuild = graph.New(n)
	}
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
	if len(sp.ids) > c.PoolTarget {
		// Trim the least-popular wired targets.
		sort.Slice(sp.ids, func(a, b int) bool {
			da, db := sp.indeg[sp.ids[a]], sp.indeg[sp.ids[b]]
			if da != db {
				return da > db
			}
			return sp.ids[a] < sp.ids[b]
		})
		for _, v := range sp.ids[c.PoolTarget:] {
			sp.member[v] = false
		}
		sp.ids = sp.ids[:c.PoolTarget]
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
	// in-links and the whole roster is covered every n/PoolExplore
	// epochs — this rotation is what keeps the cross-shard digest fresh:
	// each epoch a different crop of every band's nodes becomes visible
	// to proposers in all shards. Departed nodes sit the rotation out.
	for e := 0; e < c.PoolExplore; e++ {
		v := (epoch*c.PoolExplore + e) % n
		if !sp.member[v] && eng.active[v] {
			sp.member[v] = true
			sp.ids = append(sp.ids, v)
		}
	}
	sort.Ints(sp.ids)
	for v := range sp.pos {
		sp.pos[v] = -1
	}
	for x, v := range sp.ids {
		sp.pos[v] = int32(x)
	}
	sp.resets++
	// Fan the rebuild out across the shard instances: each shard rebases
	// onto its band's member subset (sorted ids cut at the shard bounds)
	// over the same build graph, using its slice of the worker budget.
	// Every instance replicates the overlay graph, so the proposal phase
	// that follows reads shard-local memory only.
	sp.cutBuf = sp.plan.cut(sp.ids, sp.cutBuf)
	par.Do(sp.plan.s, workers, func(_, s int) {
		sp.insts[s].Rebase(sp.gbuild, sp.cutBuf[s], sp.wPer)
	})
}

// fullRows totals the fresh Dijkstra rows the shard instances have
// built so far.
func (sp *scalePool) fullRows() int {
	total := 0
	for _, inst := range sp.insts {
		total += inst.FullRows()
	}
	return total
}

// addMember bootstraps node v into the live directory with one fresh
// Dijkstra row in its owning shard — the per-join incremental path.
func (sp *scalePool) addMember(v int) {
	if sp.member[v] {
		return
	}
	sp.member[v] = true
	sp.insts[sp.plan.owner[v]].AddSource(v)
	sp.pos[v] = int32(len(sp.ids))
	sp.ids = append(sp.ids, v)
}

// dropMember removes a departed node's row from its owning shard,
// mirroring the O(1) swap on the global ids order (the same order
// evolution the pre-shard single-instance engine produced via its
// slot-aligned swap).
func (sp *scalePool) dropMember(v int) {
	if !sp.member[v] {
		return
	}
	sp.member[v] = false
	if p := sp.pos[v]; p >= 0 {
		last := len(sp.ids) - 1
		moved := sp.ids[last]
		sp.ids[p] = moved
		sp.pos[moved] = p
		sp.ids = sp.ids[:last]
		sp.pos[v] = -1
		sp.insts[sp.plan.owner[v]].RemoveSource(v)
	}
}

// applyEdits folds out-set replacements into every shard instance —
// each replica's graph must stay identical, and each shard repairs only
// its own rows — in parallel across shards. One logical apply.
func (sp *scalePool) applyEdits(edits []graph.RowEdit) {
	if len(edits) == 0 {
		return
	}
	sp.applies++
	par.Do(sp.plan.s, sp.plan.s, func(_, s int) {
		sp.insts[s].Apply(edits)
	})
}

// apply folds one sub-round's adopted re-wirings into the directory
// graph replicas and repairs the member rows incrementally.
func (sp *scalePool) apply(c *ScaleConfig, rewired []int, wiring [][]int) {
	if len(rewired) == 0 {
		return
	}
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

// row returns the pool member's distance row via its owning shard, or
// nil if v is not in the directory — the cross-shard exchange's read
// path.
func (sp *scalePool) row(v int) []float64 {
	return sp.insts[sp.plan.owner[v]].Row(v)
}

// rowAt returns the distance row of the x-th directory member (in the
// global ids order).
func (sp *scalePool) rowAt(x int) []float64 { return sp.row(sp.ids[x]) }

// graphFor exposes shard s's live overlay replica (read-only for
// proposals). All replicas are identical by construction; shard-local
// reads are what the two-level proposal phase is for.
func (sp *scalePool) graphFor(s int) *graph.Digraph { return sp.insts[s].Graph() }
