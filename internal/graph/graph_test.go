package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N = %d, want 5", g.N())
	}
	if g.NumArcs() != 0 {
		t.Fatalf("NumArcs = %d, want 0", g.NumArcs())
	}
}

func TestAddArcReplacesWeight(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 5)
	g.AddArc(0, 1, 7)
	if g.NumArcs() != 1 {
		t.Fatalf("NumArcs = %d, want 1 after duplicate AddArc", g.NumArcs())
	}
	w, ok := g.Weight(0, 1)
	if !ok || w != 7 {
		t.Fatalf("Weight(0,1) = %v,%v, want 7,true", w, ok)
	}
}

func TestRemoveArc(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	g.AddArc(0, 2, 2)
	if !g.RemoveArc(0, 1) {
		t.Fatal("RemoveArc(0,1) = false, want true")
	}
	if g.RemoveArc(0, 1) {
		t.Fatal("second RemoveArc(0,1) = true, want false")
	}
	if g.HasArc(0, 1) {
		t.Fatal("arc 0->1 still present after removal")
	}
	if !g.HasArc(0, 2) {
		t.Fatal("arc 0->2 lost by unrelated removal")
	}
}

func TestArcsAreDirected(t *testing.T) {
	g := New(2)
	g.AddArc(0, 1, 3)
	if g.HasArc(1, 0) {
		t.Fatal("reverse arc should not exist")
	}
}

func TestClearNode(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(2, 1, 1)
	g.AddArc(3, 1, 1)
	g.AddArc(3, 2, 1)
	g.ClearNode(1)
	if g.NumArcs() != 1 || !g.HasArc(3, 2) {
		t.Fatalf("NumArcs = %d, want only 3->2 left after clearing node 1", g.NumArcs())
	}
}

func TestNodeRangePanics(t *testing.T) {
	for name, call := range map[string]func(){
		"New(-1)":      func() { New(-1) },
		"Out(3)":       func() { New(3).Out(3) },
		"AddArc(0,-1)": func() { New(3).AddArc(0, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestClearOutKeepsInArcs(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 0, 1)
	g.ClearOut(0)
	if g.HasArc(0, 1) {
		t.Fatal("out-arc survived ClearOut")
	}
	if !g.HasArc(1, 0) {
		t.Fatal("in-arc removed by ClearOut")
	}
}

func TestWithoutNode(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	r := g.WithoutNode(1)
	if r.NumArcs() != 0 {
		t.Fatalf("residual graph has %d arcs, want 0", r.NumArcs())
	}
	// Original untouched.
	if g.NumArcs() != 2 {
		t.Fatalf("original mutated: %d arcs, want 2", g.NumArcs())
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(4)
	g.AddArc(0, 3, 1)
	g.AddArc(0, 1, 1)
	g.AddArc(0, 2, 1)
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("Neighbors not sorted: %v", ns)
		}
	}
}

func TestDijkstraLine(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 2)
	g.AddArc(2, 3, 3)
	dist, parent := Dijkstra(g, 0)
	want := []float64{0, 1, 3, 6}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], w)
		}
	}
	path := PathTo(parent, 0, 3)
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Errorf("PathTo = %v, want [0 1 2 3]", path)
	}
	if path := PathTo(parent, 2, 2); len(path) != 1 || path[0] != 2 {
		t.Errorf("PathTo(2, 2) = %v, want [2]", path)
	}
	// Node 2's tree path from 0 does not pass through 3.
	if path := PathTo(parent, 3, 2); path != nil {
		t.Errorf("PathTo(3, 2) over 0's tree = %v, want nil", path)
	}
}

func TestDijkstraPrefersCheaperIndirect(t *testing.T) {
	g := New(3)
	g.AddArc(0, 2, 10)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	dist, _ := Dijkstra(g, 0)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v, want 2 (via node 1)", dist[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	dist, parent := Dijkstra(g, 0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("dist[2] = %v, want +Inf", dist[2])
	}
	if PathTo(parent, 0, 2) != nil {
		t.Fatal("PathTo to unreachable node should be nil")
	}
}

func TestDijkstraRespectsDirection(t *testing.T) {
	g := New(2)
	g.AddArc(1, 0, 1)
	dist, _ := Dijkstra(g, 0)
	if !math.IsInf(dist[1], 1) {
		t.Fatalf("dist[1] = %v, want +Inf (arc points the other way)", dist[1])
	}
}

func TestWidestPicksFatterPath(t *testing.T) {
	// Direct thin pipe vs indirect fat pipe.
	g := New(3)
	g.AddArc(0, 2, 1)  // thin direct
	g.AddArc(0, 1, 10) // fat hop 1
	g.AddArc(1, 2, 8)  // fat hop 2
	width, parent := Widest(g, 0)
	if width[2] != 8 {
		t.Fatalf("width[2] = %v, want 8", width[2])
	}
	path := PathTo(parent, 0, 2)
	if len(path) != 3 {
		t.Fatalf("widest path = %v, want via node 1", path)
	}
}

func TestWidestUnreachableIsZero(t *testing.T) {
	g := New(2)
	width, _ := Widest(g, 0)
	if width[1] != 0 {
		t.Fatalf("width[1] = %v, want 0", width[1])
	}
	if !math.IsInf(width[0], 1) {
		t.Fatalf("width[src] = %v, want +Inf", width[0])
	}
}

func TestAPSPMatchesDijkstra(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 20, 0.2)
	d := APSP(g)
	for src := 0; src < g.N(); src++ {
		single, _ := Dijkstra(g, src)
		for v := range single {
			if d[src][v] != single[v] {
				t.Fatalf("APSP[%d][%d]=%v != Dijkstra %v", src, v, d[src][v], single[v])
			}
		}
	}
}

func TestStronglyConnectedRing(t *testing.T) {
	g := New(5)
	for i := 0; i < 5; i++ {
		g.AddArc(i, (i+1)%5, 1)
	}
	if !StronglyConnected(g, nil) {
		t.Fatal("directed ring should be strongly connected")
	}
	g.RemoveArc(2, 3)
	if StronglyConnected(g, nil) {
		t.Fatal("broken ring should not be strongly connected")
	}
}

func TestStronglyConnectedMasked(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 0, 1)
	// node 2,3 isolated but inactive; an arc into inactive 2 does not
	// count it in.
	g.AddArc(0, 2, 1)
	active := []bool{true, true, false, false}
	if !StronglyConnected(g, active) {
		t.Fatal("active subgraph {0,1} should be strongly connected")
	}
	active[2] = true
	if StronglyConnected(g, active) {
		t.Fatal("isolated active node should break strong connectivity")
	}
}

func TestStronglyConnectedTrivial(t *testing.T) {
	if !StronglyConnected(New(0), nil) {
		t.Fatal("empty graph should be trivially strongly connected")
	}
	if !StronglyConnected(New(1), nil) {
		t.Fatal("singleton graph should be trivially strongly connected")
	}
}

func TestHopDistances(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 99)
	g.AddArc(1, 2, 99)
	dist := boundedBFS(g, 0, g.N()) // a radius of n bounds nothing
	want := []int{0, 1, 2, -1}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("hop[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestNeighborhoodRadius(t *testing.T) {
	// 0 -> 1 -> 2 -> 3
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(2, 3, 1)
	if got := len(Neighborhood(g, 0, 1)); got != 1 {
		t.Errorf("r=1: |F| = %d, want 1", got)
	}
	if got := len(Neighborhood(g, 0, 2)); got != 2 {
		t.Errorf("r=2: |F| = %d, want 2", got)
	}
	if got := len(Neighborhood(g, 0, 10)); got != 3 {
		t.Errorf("r=10: |F| = %d, want 3", got)
	}
}

func TestMaxFlowDiamond(t *testing.T) {
	// s=0, t=3, two disjoint unit paths plus a cross edge.
	g := New(4)
	g.AddArc(0, 1, 3)
	g.AddArc(0, 2, 2)
	g.AddArc(1, 3, 2)
	g.AddArc(2, 3, 3)
	g.AddArc(1, 2, 1)
	if f := MaxFlow(g, 0, 3); f != 5 {
		t.Fatalf("MaxFlow = %v, want 5", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	if f := MaxFlow(g, 0, 2); f != 0 {
		t.Fatalf("MaxFlow = %v, want 0", f)
	}
	if f := MaxFlow(g, 1, 1); !math.IsInf(f, 1) {
		t.Fatalf("MaxFlow to itself = %v, want +Inf", f)
	}
	if p := VertexDisjointPaths(g, 1, 1); p != 0 {
		t.Fatalf("VertexDisjointPaths to itself = %d, want 0", p)
	}
}

func TestVertexDisjointPaths(t *testing.T) {
	// Two internally disjoint paths 0->1->3 and 0->2->3 plus direct 0->3.
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 3, 1)
	g.AddArc(0, 2, 1)
	g.AddArc(2, 3, 1)
	g.AddArc(0, 3, 1)
	if p := VertexDisjointPaths(g, 0, 3); p != 3 {
		t.Fatalf("VertexDisjointPaths = %d, want 3", p)
	}
}

func TestVertexDisjointSharedIntermediate(t *testing.T) {
	// Both paths must cross node 1: only one vertex-disjoint path.
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(1, 3, 1)
	g.AddArc(2, 3, 1)
	if p := VertexDisjointPaths(g, 0, 3); p != 1 {
		t.Fatalf("VertexDisjointPaths = %d, want 1", p)
	}
	// Unit capacities: the max flow counts edge-disjoint paths.
	if f := MaxFlow(g, 0, 3); f != 1 {
		t.Fatalf("MaxFlow = %v, want 1 (single out-edge at source)", f)
	}
}

func TestEdgeDisjointMoreThanVertexDisjoint(t *testing.T) {
	// 0->1->3, 0->2->1->... construct: edge-disjoint 2, vertex-disjoint 1.
	g := New(5)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 4, 1)
	g.AddArc(0, 2, 1)
	g.AddArc(2, 1, 1)
	g.AddArc(1, 3, 1)
	g.AddArc(3, 4, 1)
	// Unit capacities: the max flow counts edge-disjoint paths.
	if f := MaxFlow(g, 0, 4); f != 2 {
		t.Fatalf("MaxFlow = %v, want 2 edge-disjoint paths", f)
	}
	if p := VertexDisjointPaths(g, 0, 4); p != 1 {
		t.Fatalf("VertexDisjointPaths = %d, want 1 (all paths cross node 1)", p)
	}
}

// --- property-based tests -------------------------------------------------

func randomGraph(rng *rand.Rand, n int, p float64) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < p {
				g.AddArc(u, v, 0.1+rng.Float64()*10)
			}
		}
	}
	return g
}

// Property: shortest-path distances satisfy the triangle inequality
// d(s,v) <= d(s,u) + w(u,v) for every edge (u,v).
func TestDijkstraTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(15), 0.3)
		dist, _ := Dijkstra(g, 0)
		for u := 0; u < g.N(); u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, a := range g.Out(u) {
				if dist[a.To] > dist[u]+a.W+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: widest-path widths are "max-min consistent":
// width(v) >= min(width(u), w(u,v)) for every edge (u,v).
func TestWidestConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(15), 0.3)
		width, _ := Widest(g, 0)
		for u := 0; u < g.N(); u++ {
			for _, a := range g.Out(u) {
				if width[a.To] < math.Min(width[u], a.W)-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the widest-path value from s to t equals the max over s's
// out-arcs a of min(a.W, widest(a.To, t) in G) — verified against a
// brute-force DFS enumeration on small graphs.
func TestWidestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(5), 0.4)
		width, _ := Widest(g, 0)
		for v := 1; v < g.N(); v++ {
			want := bruteWidest(g, 0, v)
			got := width[v]
			if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func bruteWidest(g *Digraph, s, t NodeID) float64 {
	visited := make([]bool, g.N())
	var dfs func(u NodeID, width float64) float64
	dfs = func(u NodeID, width float64) float64 {
		if u == t {
			return width
		}
		visited[u] = true
		best := 0.0
		for _, a := range g.Out(u) {
			if !visited[a.To] {
				if w := dfs(a.To, math.Min(width, a.W)); w > best {
					best = w
				}
			}
		}
		visited[u] = false
		return best
	}
	return dfs(s, math.Inf(1))
}

// Property: vertex-disjoint paths are edge-disjoint, so their count is at
// most the unit-capacity max flow, which counts edge-disjoint paths.
func TestFlowOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 4+rng.Intn(8), 0.35)
		for u := 0; u < g.N(); u++ {
			for _, a := range g.Out(u) {
				g.AddArc(u, a.To, 1)
			}
		}
		s, tt := 0, g.N()-1
		return float64(VertexDisjointPaths(g, s, tt)) <= MaxFlow(g, s, tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Menger — the number of vertex-disjoint paths is positive iff
// t is reachable from s.
func TestDisjointPositiveIffReachable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 4+rng.Intn(8), 0.25)
		s, tt := 0, g.N()-1
		reach := reachableMasked(g, s, nil)[tt]
		return (VertexDisjointPaths(g, s, tt) > 0) == reach
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDijkstra295(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(7)), 295, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, i%g.N())
	}
}

func BenchmarkAPSP50(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(7)), 50, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		APSP(g)
	}
}
