package plane

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"egoist/internal/graph"
	"egoist/internal/underlay"
)

// testNet builds the constant-memory underlay the scale engine defaults
// to — the delay oracle snapshots are priced against.
func testNet(t testing.TB, n int) *underlay.Lite {
	t.Helper()
	net, err := underlay.NewLite(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// randomWiring wires every node to k distinct random targets.
func randomWiring(n, k int, rng *rand.Rand) [][]int {
	w := make([][]int, n)
	for u := 0; u < n; u++ {
		have := map[int]bool{u: true}
		for len(w[u]) < k {
			v := rng.Intn(n)
			if !have[v] {
				have[v] = true
				w[u] = append(w[u], v)
			}
		}
	}
	return w
}

// overlayGraph is the reference construction: the same wiring as a
// plain Digraph with underlay delays.
func overlayGraph(wiring [][]int, net DelayNet) *graph.Digraph {
	g := graph.New(net.N())
	for u, ws := range wiring {
		for _, v := range ws {
			g.AddArc(u, v, net.Delay(u, v))
		}
	}
	return g
}

// TestRouteMatchesGraphDijkstra pins the satellite equivalence claim:
// shortest-path decisions from a Snapshot are byte-identical (bit-level
// costs, same paths) to a direct internal/graph computation over the
// equivalent overlay graph.
func TestRouteMatchesGraphDijkstra(t *testing.T) {
	const n, k = 80, 3
	net := testNet(t, n)
	wiring := randomWiring(n, k, rand.New(rand.NewSource(3)))
	snap := Compile(0, wiring, nil, net, Options{})
	g := overlayGraph(wiring, net)
	for src := 0; src < n; src += 7 {
		dist, parent := graph.Dijkstra(g, src)
		for dst := 0; dst < n; dst++ {
			r, ok := snap.Route(src, dst)
			if ok != (dist[dst] < graph.Inf) {
				t.Fatalf("route %d->%d: ok=%v vs reference dist %v", src, dst, ok, dist[dst])
			}
			if !ok {
				continue
			}
			if math.Float64bits(r.Cost) != math.Float64bits(dist[dst]) {
				t.Fatalf("route %d->%d: cost %v vs reference %v", src, dst, r.Cost, dist[dst])
			}
			want := graph.PathTo(parent, src, dst)
			if len(r.Path) != len(want) {
				t.Fatalf("route %d->%d: path %v vs reference %v", src, dst, r.Path, want)
			}
			// Paths may tie-break differently only if costs tie; verify the
			// snapshot's path realizes the optimal cost arc by arc.
			cost := 0.0
			for i := 1; i < len(r.Path); i++ {
				w, ok := g.Weight(r.Path[i-1], r.Path[i])
				if !ok {
					t.Fatalf("route %d->%d: path %v uses non-overlay arc", src, dst, r.Path)
				}
				cost += w
			}
			if math.Abs(cost-r.Cost) > 1e-9*math.Max(1, cost) {
				t.Fatalf("route %d->%d: path cost %v vs claimed %v", src, dst, cost, r.Cost)
			}
		}
	}
}

// TestOneHopMatchesReference checks the O(k) decision, bound-pruned,
// against a naive unpruned reference over the same wiring, bit for bit:
// on a small overlay and on one the size of the benchmark fixture (n =
// 2,500, k = 8).
func TestOneHopMatchesReference(t *testing.T) {
	for _, size := range []struct{ n, k, queries int }{{60, 4, 2000}, {2500, 8, 20000}} {
		net := testNet(t, size.n)
		wiring := randomWiring(size.n, size.k, rand.New(rand.NewSource(5)))
		snap := Compile(0, wiring, nil, net, Options{})
		rng := rand.New(rand.NewSource(6))
		for q := 0; q < size.queries; q++ {
			src, dst := rng.Intn(size.n), rng.Intn(size.n)
			got, want := snap.OneHop(src, dst), oneHopReference(net, wiring, nil, src, dst)
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Via != want.Via {
				t.Fatalf("n=%d: onehop %d->%d: got %+v, want %+v", size.n, src, dst, got, want)
			}
			if got.Cost > net.Delay(src, dst) {
				t.Fatalf("n=%d: onehop %d->%d worse than direct", size.n, src, dst)
			}
		}
	}
}

// oneHopReference is the one-hop decision priced in full: the direct
// delay, then every live neighbour in wiring order, strict < (active nil
// means every node is live).
func oneHopReference(net DelayNet, wiring [][]int, active []bool, src, dst int) Decision {
	if src == dst {
		return Decision{Via: -1, Cost: 0}
	}
	live := func(u int) bool { return active == nil || active[u] }
	best := Decision{Via: -1, Cost: net.Delay(src, dst)}
	if !live(src) {
		return best
	}
	for _, v := range wiring[src] {
		if !live(v) {
			continue
		}
		c, via := net.Delay(src, v), -1
		if v != dst {
			c, via = c+net.Delay(v, dst), v
		}
		if c < best.Cost {
			best = Decision{Via: via, Cost: c}
		}
	}
	return best
}

// TestCompileFiltersDeparted: arcs from or to non-members must not
// survive compilation, and departed nodes are not live.
func TestCompileFiltersDeparted(t *testing.T) {
	const n = 20
	net := testNet(t, n)
	wiring := randomWiring(n, 3, rand.New(rand.NewSource(9)))
	active := make([]bool, n)
	for i := range active {
		active[i] = i%5 != 0
	}
	snap := Compile(4, wiring, active, net, Options{})
	if snap.Epoch() != 4 {
		t.Fatalf("epoch %d", snap.Epoch())
	}
	for u := 0; u < n; u++ {
		if snap.Live(u) != active[u] {
			t.Fatalf("live[%d] = %v", u, snap.Live(u))
		}
		if !active[u] {
			if _, ok := snap.Route(u, (u+1)%n); ok {
				t.Fatalf("departed node %d routes", u)
			}
		}
	}
	g := overlayGraph(wiring, net)
	kept := 0
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			if active[u] && active[a.To] {
				kept++
			}
		}
	}
	if snap.NumArcs() != kept {
		t.Fatalf("arcs %d, want %d member-to-member arcs", snap.NumArcs(), kept)
	}
}

// TestCompileGraphLinkState covers the live-node path: a link-state
// graph compiled directly, with GraphDelays as the only delay oracle.
func TestCompileGraphLinkState(t *testing.T) {
	g := graph.New(5)
	g.AddArc(0, 1, 10)
	g.AddArc(1, 2, 5)
	g.AddArc(0, 3, 2)
	g.AddArc(3, 2, 4)
	snap := CompileGraph(7, g, GraphDelays(g), Options{})
	if !snap.Live(0) || !snap.Live(2) || snap.Live(4) {
		t.Fatalf("liveness: %v %v %v", snap.Live(0), snap.Live(2), snap.Live(4))
	}
	r, ok := snap.Route(0, 2)
	if !ok || r.Cost != 6 || len(r.Path) != 3 || r.Path[1] != 3 {
		t.Fatalf("route: %+v ok=%v", r, ok)
	}
	// One-hop: no direct 0->2 announcement, so the decision must relay.
	d := snap.OneHop(0, 2)
	if d.Via != 3 || d.Cost != 6 {
		t.Fatalf("onehop: %+v", d)
	}
	// An isolated node has no finite option under a link-state oracle.
	if d := snap.OneHop(4, 2); d.Cost < graph.Inf {
		t.Fatalf("isolated source got finite decision %+v", d)
	}
}

// TestGraphWeightedSnapshotsSkipPathBound: a CompileGraph snapshot
// takes its arc weights from the graph, not from net, so net's path
// bound says nothing about its paths and must not prune their search —
// nor in a Patch of it, whose unchanged rows keep the graph's weights.
// Here three arcs in four weigh a quarter of net's delay, far below the
// bound, the fourth its full delay, so that a bound-pruned search
// settles for a heavy arc where light ones win. Every route of both
// snapshots must still be the DijkstraCSR row of the snapshot's own CSR,
// distance bits and path.
func TestGraphWeightedSnapshotsSkipPathBound(t *testing.T) {
	const n, k = 150, 5
	net := testNet(t, n)
	rng := rand.New(rand.NewSource(29))
	wiring := randomWiring(n, k, rng)
	g := graph.New(n)
	for u, ws := range wiring {
		for _, v := range ws {
			w := net.Delay(u, v)
			if (u+v)%4 != 0 {
				w /= 4
			}
			g.AddArc(u, v, w)
		}
	}
	snap := CompileGraph(0, g, net, Options{})
	changed := []int{3, 17, 40, n - 9}
	for _, u := range changed {
		wiring[u] = randomWiring(n, k, rng)[u]
	}
	var sp graph.SPScratch
	dist, parent := make([]float64, n), make([]int32, n)
	for _, s := range []*Snapshot{snap, snap.Patch(1, changed, wiring, nil)} {
		for src := 0; src < n; src++ {
			sp.DijkstraCSR(s.csr, src, dist, parent)
			for q := 1; q < n; q += 7 {
				dst := (src + q) % n
				path, cost, ok := s.RouteInto(src, dst, nil)
				if math.Float64bits(cost) != math.Float64bits(dist[dst]) || ok != (dist[dst] < graph.Inf) {
					t.Fatalf("epoch %d (%d,%d): cost %v, row says %v", s.Epoch(), src, dst, cost, dist[dst])
				}
				for x, v := len(path)-1, dst; ok && v != -1; x, v = x-1, int(parent[v]) {
					if x < 0 || path[x] != int32(v) {
						t.Fatalf("epoch %d (%d,%d): path %v is not the row's", s.Epoch(), src, dst, path)
					}
				}
			}
		}
	}
	if st := snap.rows.stats.Load(); st.searches.Load() == 0 {
		t.Fatal("no route was answered by a pair search")
	}
}

// TestRowCacheBoundsAndSingleflight hammers one snapshot from many
// goroutines over more sources than the cache holds: the cache must
// stay bounded, answers must stay correct, and a popular source must
// not be recomputed per caller (singleflight), which we observe
// indirectly through identical row pointers.
func TestRowCacheBoundsAndSingleflight(t *testing.T) {
	const n, k, cacheRows = 120, 3, 8
	net := testNet(t, n)
	wiring := randomWiring(n, k, rand.New(rand.NewSource(13)))
	snap := Compile(0, wiring, nil, net, Options{RouteCacheRows: cacheRows})
	g := overlayGraph(wiring, net)
	refDist := make([][]float64, n)
	for src := 0; src < n; src++ {
		refDist[src], _ = graph.Dijkstra(g, src)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 500; q++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				cost := snap.RouteCost(src, dst)
				if math.Float64bits(cost) != math.Float64bits(refDist[src][dst]) {
					t.Errorf("cost %d->%d = %v, want %v", src, dst, cost, refDist[src][dst])
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if size := snap.rows.size(); size > cacheRows+8 {
		t.Fatalf("cache grew to %d rows (cap %d + 8 in-flight)", size, cacheRows)
	}
	// Singleflight: two sequential gets of the same source share the row.
	a := snap.rows.get(1)
	b := snap.rows.get(1)
	if a != b {
		t.Fatal("same-source rows not shared")
	}
}
