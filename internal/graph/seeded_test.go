package graph

import (
	"math/rand"
	"testing"
)

// TestDijkstraDistSeededMatchesRebuiltGraph pins DijkstraDistSeeded's
// contract: the result equals plain DijkstraDist on a graph whose src
// out-arc list was physically replaced by the seed arcs — the stored
// out-arcs of src are ignored entirely.
func TestDijkstraDistSeededMatchesRebuiltGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(20)
		g := New(n)
		for u := 0; u < n; u++ {
			for a := 0; a < 3; a++ {
				v := rng.Intn(n)
				if v != u {
					g.AddArc(u, v, 1+rng.Float64()*9)
				}
			}
		}
		src := rng.Intn(n)
		// Seeds model a node's current wiring: unique targets (AddArc
		// replaces duplicate arcs, so duplicate seed targets would have
		// replaced-vs-min semantics the engine never exercises).
		var seeds []Arc
		used := map[int]bool{}
		for a := 0; a < rng.Intn(4); a++ {
			v := rng.Intn(n)
			if v != src && !used[v] {
				used[v] = true
				seeds = append(seeds, Arc{To: v, W: 1 + rng.Float64()*9})
			}
		}
		// Self-seeds must be ignored, like self-arcs.
		seeds = append(seeds, Arc{To: src, W: 0.5})

		ref := New(n)
		for u := 0; u < n; u++ {
			if u == src {
				continue
			}
			for _, a := range g.Out(u) {
				ref.AddArc(u, a.To, a.W)
			}
		}
		for _, a := range seeds {
			if a.To != src {
				ref.AddArc(src, a.To, a.W)
			}
		}

		var s SPScratch
		got := make([]float64, n)
		want := make([]float64, n)
		s.DijkstraDistSeeded(g, src, seeds, got)
		s.DijkstraDist(ref, src, want)
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %v, rebuilt-graph reference %v", trial, v, got[v], want[v])
			}
		}
	}
}

// TestResizeReusesStorage covers the scratch-graph rebuild path the
// scale engine's per-node sub-instances rely on: Resize empties the
// graph at the new size, and arcs from a previous life never leak.
func TestResizeReusesStorage(t *testing.T) {
	g := New(5)
	for u := 0; u < 5; u++ {
		g.AddArc(u, (u+1)%5, 1)
	}
	g.Resize(3)
	if g.N() != 3 {
		t.Fatalf("N() = %d after Resize(3)", g.N())
	}
	for u := 0; u < 3; u++ {
		if len(g.Out(u)) != 0 {
			t.Fatalf("node %d kept %d stale arcs across Resize", u, len(g.Out(u)))
		}
	}
	g.AddArc(0, 2, 4)
	g.Resize(8)
	if g.N() != 8 {
		t.Fatalf("N() = %d after Resize(8)", g.N())
	}
	for u := 0; u < 8; u++ {
		if len(g.Out(u)) != 0 {
			t.Fatalf("node %d kept stale arcs after growing Resize", u)
		}
	}
}

func TestCSRAccessors(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(0, 2, 2)
	g.AddArc(2, 3, 3)
	c := NewCSR(4, g.Out)
	if c.N() != 4 {
		t.Fatalf("N() = %d", c.N())
	}
	if c.NumArcs() != 3 {
		t.Fatalf("NumArcs() = %d", c.NumArcs())
	}
	wantDeg := []int{2, 0, 1, 0}
	for u, want := range wantDeg {
		if d := c.OutDegree(u); d != want {
			t.Fatalf("OutDegree(%d) = %d, want %d", u, d, want)
		}
	}
}

func TestDynamicRowsSources(t *testing.T) {
	g := New(6)
	for u := 0; u < 6; u++ {
		g.AddArc(u, (u+1)%6, 1)
	}
	var r DynamicRows
	r.Reset(g, []int{1, 4}, 1)
	src := r.Sources()
	if len(src) != 2 || src[0] != 1 || src[1] != 4 {
		t.Fatalf("Sources() = %v, want [1 4]", src)
	}
}

func TestSPForestN(t *testing.T) {
	g := New(5)
	g.AddArc(0, 1, 1)
	f := NewSPForest()
	f.Reset(g, false)
	if f.N() != 5 {
		t.Fatalf("N() = %d, want 5", f.N())
	}
}

// Resize empties the graph and sets its node count to n, reusing arc
// storage. It is New for callers that rebuild a scratch graph of varying
// size many times (the scale engine's per-node sub-instances).
func (g *Digraph) Resize(n int) {
	if cap(g.out) < n {
		g.out = make([][]Arc, n)
	}
	g.out = g.out[:n]
	g.n = n
	for u := range g.out {
		g.out[u] = g.out[u][:0]
	}
}
