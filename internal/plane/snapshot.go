// Package plane is the overlay routing data plane: it turns a converged
// (or still-converging) wiring from the control plane — the full
// simulator, the large-scale sampled engine, or a live link-state view —
// into an immutable route-serving Snapshot, and serves route queries
// from it lock-free while the control plane keeps re-wiring underneath.
//
// The paper's thesis (Sect. 5–6) is that selfishly-constructed overlays
// are excellent routing substrates; this package is where that substrate
// actually answers queries. Two lookup paths are served:
//
//   - OneHop: the paper's O(k) source-routing decision — route direct,
//     or via whichever of src's k overlay neighbors minimizes the
//     first-hop delay plus the neighbor's direct delay to the
//     destination. No per-destination state, constant work per query.
//   - Route: the full overlay shortest path. A source that is asked
//     about rarely is answered by an exact point-to-point search; one
//     that keeps being asked gets its whole Dijkstra row computed and
//     kept behind an LRU with singleflight, so a popular source costs
//     one Dijkstra no matter how many concurrent clients ask.
//
// Snapshots are immutable after Compile: readers never lock, and the
// control plane publishes a fresh Snapshot per epoch through
// Server.Publish (an atomic pointer swap, RCU-style — in-flight queries
// finish on the snapshot they started with and old snapshots drain to
// the garbage collector). Queries issued during a re-wiring sub-round
// therefore see the last published epoch, never a half-written wiring.
package plane

import (
	"fmt"

	"egoist/internal/graph"
)

// DelayNet is the underlay view a snapshot prices routes against:
// static pairwise one-way delays, computable on demand. It is the shape
// of underlay.Lite and of sim.ScaleNet.
type DelayNet interface {
	N() int
	Delay(i, j int) float64
}

// delayBound is a DelayNet that proves Delay(i, j) ≥ c cheaper than
// Delay (underlay.Lite.DelayAtLeast, its contract). A table-backed net
// answers Delay with one lookup, so no test could pay there.
type delayBound interface {
	DelayAtLeast(i, j int, c float64) bool
}

// DelayFunc adapts a plain function (a delay matrix row lookup, a
// link-state estimate table) to a DelayNet.
type DelayFunc struct {
	Nodes int
	Fn    func(i, j int) float64
}

// N returns the node count.
func (d DelayFunc) N() int { return d.Nodes }

// Delay returns Fn(i, j).
func (d DelayFunc) Delay(i, j int) float64 { return d.Fn(i, j) }

// Options tunes snapshot compilation.
type Options struct {
	// RouteCacheRows bounds the shortest-path row cache (default 256
	// rows; one row is 12·n bytes). Lookups never fail when the cache
	// is cold or thrashing — they search or recompute.
	RouteCacheRows int
}

// Snapshot is one epoch's immutable route-serving view: the overlay
// adjacency packed in CSR form, the underlay delay oracle, and the lazy
// shortest-path row cache. All methods are safe for unlimited
// concurrent use; nothing in a Snapshot mutates after Compile except
// the internal row cache, which synchronizes itself.
type Snapshot struct {
	epoch int64
	csr   *graph.CSR
	net   DelayNet
	bound delayBound      // net's own, or nil: resolved once per snapshot
	paths graph.PathBound // net's if net.Delay prices every arc (Compile, its patches)
	live  []bool
	nLive int
	rows  *rowCache
}

// Compile builds a Snapshot from a wiring (wiring[u] lists u's overlay
// neighbors; nil rows are departed nodes). active, when non-nil, marks
// overlay membership — arcs from or to non-members are dropped, exactly
// like the control plane's announced view; when nil, every node with a
// non-nil wiring row is a member. net supplies the arc delays and the
// direct-path costs of one-hop decisions. The wiring is only read
// during the call, so the control plane may hand over its own live
// wiring and keep mutating it afterwards.
func Compile(epoch int64, wiring [][]int, active []bool, net DelayNet, opts Options) *Snapshot {
	n := net.N()
	s := newSnapshot(epoch, net, n)
	for u := 0; u < n; u++ {
		if active != nil {
			s.live[u] = active[u]
		} else {
			s.live[u] = u < len(wiring) && wiring[u] != nil
		}
		if s.live[u] {
			s.nLive++
		}
	}
	s.paths, _ = net.(graph.PathBound)
	s.csr = graph.NewCSR(n, s.arcsOf(wiring))
	s.rows = newRowCache(s, opts.RouteCacheRows)
	return s
}

// newSnapshot is the header every constructor starts from.
func newSnapshot(epoch int64, net DelayNet, n int) *Snapshot {
	s := &Snapshot{epoch: epoch, net: net, live: make([]bool, n)}
	s.bound, _ = net.(delayBound)
	return s
}

// arcsOf is the CSR row source of a wiring under s.live: u's arcs to
// live neighbours, priced by the delay oracle (none when u is not
// live). The returned slice is reused from call to call.
func (s *Snapshot) arcsOf(wiring [][]int) func(u int) []graph.Arc {
	var arcs []graph.Arc
	return func(u int) []graph.Arc {
		arcs = arcs[:0]
		if !s.live[u] || u >= len(wiring) {
			return nil
		}
		for _, v := range wiring[u] {
			if s.live[v] {
				arcs = append(arcs, graph.Arc{To: v, W: s.net.Delay(u, v)})
			}
		}
		return arcs
	}
}

// CompileGraph builds a Snapshot from an already-weighted overlay graph
// (a live node's link-state view): arc weights are taken from the graph
// itself and every node incident to an arc is live. net supplies the
// direct-path costs of one-hop decisions; pass GraphDelays(g) when the
// announced arcs are the only delay knowledge available.
func CompileGraph(epoch int64, g *graph.Digraph, net DelayNet, opts Options) *Snapshot {
	n := g.N()
	s := newSnapshot(epoch, net, n)
	for u := 0; u < n; u++ {
		if g.OutDegree(u) > 0 {
			s.live[u] = true
			for _, a := range g.Out(u) {
				s.live[a.To] = true
			}
		}
	}
	for _, l := range s.live {
		if l {
			s.nLive++
		}
	}
	s.csr = graph.NewCSR(n, func(u int) []graph.Arc { return g.Out(u) })
	s.rows = newRowCache(s, opts.RouteCacheRows)
	return s
}

// GraphDelays is the DelayNet of a link-state view: the direct delay
// i→j is the announced arc weight, or +Inf when no arc is announced —
// a live node only knows the delays its overlay has measured.
func GraphDelays(g *graph.Digraph) DelayNet {
	return DelayFunc{Nodes: g.N(), Fn: func(i, j int) float64 {
		if i == j {
			return 0
		}
		if w, ok := g.Weight(i, j); ok {
			return w
		}
		return graph.Inf
	}}
}

// Epoch returns the control-plane epoch this snapshot was compiled at
// (-1 is the bootstrap wiring, before the first epoch played).
func (s *Snapshot) Epoch() int64 { return s.epoch }

// N returns the node-id space size.
func (s *Snapshot) N() int { return s.csr.N() }

// NumArcs returns the overlay link count.
func (s *Snapshot) NumArcs() int { return s.csr.NumArcs() }

// Live reports whether node u was an overlay member at compile time.
func (s *Snapshot) Live(u int) bool { return s.live[u] }

// NumLive returns the member count at compile time.
func (s *Snapshot) NumLive() int { return s.nLive }

// Neighbors returns u's overlay neighbors as a fresh slice.
func (s *Snapshot) Neighbors(u int) []int {
	to, _ := s.csr.Out(u)
	out := make([]int, len(to))
	for i, v := range to {
		out[i] = int(v)
	}
	return out
}

// Decision is one one-hop routing decision.
type Decision struct {
	// Via is the chosen first-hop overlay neighbor, or -1 for the
	// direct underlay path.
	Via int
	// Cost is the decision's delay: direct, or first-hop plus the
	// neighbor's direct delay to the destination. +Inf when no finite
	// option exists (an isolated source under a link-state DelayNet).
	Cost float64
}

// OneHop makes the paper's O(k) source-routing decision for src→dst:
// the direct underlay path, or one hop via whichever of src's overlay
// neighbors is cheapest. Ties go to the direct path, then to the
// earliest arc in the snapshot's adjacency order (the compiled wiring
// order) — deterministic for the equivalence suites. A neighbour the
// net's bound proves cannot undercut the best so far is not priced: its
// float64 sum would be ≥ best, so the strict < passes it over anyway.
// Out-of-range ids panic with a clear message (Server validates and
// returns errors instead).
func (s *Snapshot) OneHop(src, dst int) Decision {
	s.mustPair(src, dst)
	if src == dst {
		return Decision{Via: -1, Cost: 0}
	}
	best := Decision{Via: -1, Cost: s.net.Delay(src, dst)}
	to, w := s.csr.Out(src)
	for x, v := range to {
		if int(v) == dst {
			// The overlay link itself is the direct measurement.
			if w[x] < best.Cost {
				best = Decision{Via: -1, Cost: w[x]}
			}
			continue
		}
		if s.bound != nil && s.bound.DelayAtLeast(int(v), dst, best.Cost-w[x]) {
			continue
		}
		if c := w[x] + s.net.Delay(int(v), dst); c < best.Cost {
			best = Decision{Via: int(v), Cost: c}
		}
	}
	return best
}

// Route is one full overlay shortest-path answer.
type Route struct {
	// Path lists the overlay nodes from src to dst inclusive.
	Path []int
	// Cost is the summed overlay link delay along Path.
	Cost float64
}

// Route returns the overlay shortest path src→dst, or ok=false when dst
// is not reachable over overlay links. The returned path is freshly
// allocated and owned by the caller.
func (s *Snapshot) Route(src, dst int) (Route, bool) {
	var hops [32]int32
	path32, cost, ok := s.RouteInto(src, dst, hops[:0])
	if !ok {
		return Route{}, false
	}
	path := make([]int, len(path32))
	for i, v := range path32 {
		path[i] = int(v)
	}
	return Route{Path: path, Cost: cost}, true
}

// RouteCost returns just the overlay shortest-path cost src→dst (+Inf
// when unreachable), skipping the path reconstruction.
func (s *Snapshot) RouteCost(src, dst int) float64 {
	s.mustPair(src, dst)
	if src == dst {
		return 0
	}
	_, cost := s.rows.resolve(src, dst, nil, false)
	return cost
}

// RouteInto is Route with caller-owned path storage: the path is
// appended to buf (pass the previous call's path[:0] to reuse its
// backing array), so a serving loop that recycles its buffer answers
// without allocating. ok=false means dst is not overlay-reachable (cost
// +Inf, empty path) — note Route returns a zero cost there; RouteInto
// reports the actual +Inf.
func (s *Snapshot) RouteInto(src, dst int, buf []int32) (path []int32, cost float64, ok bool) {
	s.mustPair(src, dst)
	if src == dst {
		return append(buf[:0], int32(src)), 0, true
	}
	path, cost = s.rows.resolve(src, dst, buf[:0], true)
	return path, cost, cost < graph.Inf
}

// checkPair validates a query's node ids.
func (s *Snapshot) checkPair(src, dst int) error {
	if n := s.csr.N(); src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("plane: query (%d,%d) outside [0,%d)", src, dst, n)
	}
	return nil
}

// mustPair is checkPair for the direct Snapshot API: a clean panic at
// the boundary, BEFORE any cache state is touched — an out-of-range
// src must never leave a half-inserted row entry other readers would
// block on.
func (s *Snapshot) mustPair(src, dst int) {
	if err := s.checkPair(src, dst); err != nil {
		panic(err)
	}
}
