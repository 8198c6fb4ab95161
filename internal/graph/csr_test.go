package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomDigraph builds a random sparse digraph for equivalence checks.
func randomDigraph(n, arcsPerNode int, rng *rand.Rand) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for a := 0; a < arcsPerNode; a++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			g.AddArc(u, v, 1+rng.Float64()*99)
		}
	}
	return g
}

func csrOf(g *Digraph) *CSR {
	return NewCSR(g.N(), func(u int) []Arc { return g.Out(u) })
}

// TestCSRPreservesAdjacency checks the packed form is the same graph.
func TestCSRPreservesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomDigraph(60, 4, rng)
	c := csrOf(g)
	if c.N() != g.N() || c.NumArcs() != g.NumArcs() {
		t.Fatalf("shape: csr %d/%d vs digraph %d/%d", c.N(), c.NumArcs(), g.N(), g.NumArcs())
	}
	for u := 0; u < g.N(); u++ {
		to, w := c.Out(u)
		if len(to) != g.OutDegree(u) {
			t.Fatalf("node %d: degree %d vs %d", u, len(to), g.OutDegree(u))
		}
		for x, v := range to {
			got, ok := g.Weight(u, int(v))
			if !ok || got != w[x] {
				t.Fatalf("node %d arc to %d: weight %v vs %v (ok=%v)", u, v, w[x], got, ok)
			}
		}
	}
}

// TestDijkstraCSRMatchesDigraph pins the data-plane invariant: the CSR
// Dijkstra is bit-identical (distances AND parent-path costs) to the
// reference Dijkstra over the equivalent Digraph.
func TestDijkstraCSRMatchesDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(80)
		g := randomDigraph(n, 1+rng.Intn(5), rng)
		c := csrOf(g)
		var s SPScratch
		dist := make([]float64, n)
		parent := make([]int32, n)
		for src := 0; src < n; src += 1 + n/7 {
			want, _ := Dijkstra(g, src)
			s.DijkstraCSR(c, src, dist, parent)
			for v := range dist {
				if math.Float64bits(dist[v]) != math.Float64bits(want[v]) {
					t.Fatalf("trial %d src %d: dist[%d] = %v, want %v", trial, src, v, dist[v], want[v])
				}
			}
			// Parent chains must realize exactly the claimed distances.
			for v := range dist {
				if dist[v] >= Inf || v == src {
					continue
				}
				cost, hops := 0.0, 0
				for x := v; x != src; x, hops = int(parent[x]), hops+1 {
					p := int(parent[x])
					if p < 0 || hops > n {
						t.Fatalf("trial %d: parent chain of %d does not lead back to %d despite dist %v", trial, v, src, dist[v])
					}
					w, ok := g.Weight(p, x)
					if !ok {
						t.Fatalf("trial %d: parent chain of %d uses missing arc %d->%d", trial, v, p, x)
					}
					cost += w
				}
				if math.Abs(cost-dist[v]) > 1e-9*math.Max(1, cost) {
					t.Fatalf("trial %d: path cost %v vs dist %v", trial, cost, dist[v])
				}
			}
		}
	}
}

// TestDijkstraCSRArcOrderFree is the uniqueness claim of the canonical
// labels: shuffling the arc order of every row leaves every DijkstraCSR
// distance and parent unchanged, on every weight class — ties, absorbed
// sums and zero-weight plateaus included.
func TestDijkstraCSRArcOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s SPScratch
	for trial := 0; trial < 120; trial++ {
		class := trial % pairClasses
		n := 2 + rng.Intn(60)
		c := pairGraph(n, class, rng)
		shuffled := NewCSR(n, func(u int) []Arc {
			to, w := c.Out(u)
			arcs := make([]Arc, len(to))
			for x := range to {
				arcs[x] = Arc{To: int(to[x]), W: w[x]}
			}
			rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
			return arcs
		})
		dist, parent := make([]float64, n), make([]int32, n)
		sdist, sparent := make([]float64, n), make([]int32, n)
		for src := 0; src < n; src++ {
			s.DijkstraCSR(c, src, dist, parent)
			s.DijkstraCSR(shuffled, src, sdist, sparent)
			for v := 0; v < n; v++ {
				if math.Float64bits(dist[v]) != math.Float64bits(sdist[v]) || parent[v] != sparent[v] {
					t.Fatalf("trial %d (class %d) src %d: node %d is (%v via %d), shuffled (%v via %d)",
						trial, class, src, v, dist[v], parent[v], sdist[v], sparent[v])
				}
			}
		}
	}
}
