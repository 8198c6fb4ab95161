package graph

import (
	"math/rand"
	"testing"
)

// randomDigraphInc builds a random sparse digraph for the forest tests.
func randomDigraphInc(rng *rand.Rand, n, deg int) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for t := 0; t < deg; t++ {
			v := rng.Intn(n)
			if v != u {
				g.AddArc(u, v, 0.5+rng.Float64()*20)
			}
		}
	}
	return g
}

// apspRemoved computes the ground truth: APSP of g with u's out-arcs
// removed.
func apspRemoved(g *Digraph, u int, widest bool) [][]float64 {
	r := g.Clone()
	r.ClearOut(u)
	if widest {
		return APWidest(r)
	}
	return APSP(r)
}

// TestSPForestMatchesAPSP checks the incremental removal repair produces
// the exact same matrix as a from-scratch APSP of the edited graph, and
// that RestoreOut returns the exact original matrix — for both algebras,
// across many random graphs and removal targets.
func TestSPForestMatchesAPSP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, widest := range []bool{false, true} {
		f := NewSPForest()
		for trial := 0; trial < 20; trial++ {
			n := 8 + rng.Intn(40)
			g := randomDigraphInc(rng, n, 1+rng.Intn(3))
			f.Reset(g, widest)
			var full [][]float64
			if widest {
				full = APWidest(g)
			} else {
				full = APSP(g)
			}
			checkEqualMatrix(t, "after Reset", f.Dist(), full)
			// Several remove/restore cycles on the same forest.
			for round := 0; round < 6; round++ {
				u := rng.Intn(n)
				f.RemoveOut(u)
				checkEqualMatrix(t, "after RemoveOut", f.Dist(), apspRemoved(g, u, widest))
				f.RestoreOut()
				checkEqualMatrix(t, "after RestoreOut", f.Dist(), full)
			}
		}
	}
}

// TestSPForestAllNodesSweep mimics the proposal phase: remove and
// restore every node in turn on one forest, checking each residual
// matrix exactly.
func TestSPForestAllNodesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomDigraphInc(rng, 60, 3)
	f := NewSPForest()
	f.Reset(g, false)
	for u := 0; u < g.N(); u++ {
		f.RemoveOut(u)
		checkEqualMatrix(t, "sweep", f.Dist(), apspRemoved(g, u, false))
		f.RestoreOut()
	}
	checkEqualMatrix(t, "sweep end", f.Dist(), APSP(g))
}

// TestSPForestIsolatedAndLeaf covers the trivial repairs: removing the
// arcs of a node with no out-arcs and of a pure leaf.
func TestSPForestIsolatedAndLeaf(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	// node 3 isolated; node 2 is a sink.
	f := NewSPForest()
	f.Reset(g, false)
	for _, u := range []int{3, 2} {
		f.RemoveOut(u)
		checkEqualMatrix(t, "trivial", f.Dist(), apspRemoved(g, u, false))
		f.RestoreOut()
	}
}

func checkEqualMatrix(t *testing.T, where string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: dist[%d][%d] = %v, want %v", where, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestSPForestRemovalDiscipline: one removal outstanding at a time, and
// no restore without one — misuse panics rather than corrupting the
// undo log.
func TestSPForestRemovalDiscipline(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	f := NewSPForest()
	f.Reset(g, false)
	mustPanic := func(name string, call func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		call()
	}
	mustPanic("RestoreOut without a removal", f.RestoreOut)
	f.RemoveOut(0)
	mustPanic("a second RemoveOut", func() { f.RemoveOut(1) })
	f.RestoreOut()
	if f.Dist()[0][1] != 1 {
		t.Fatalf("restored distance %v, want 1", f.Dist()[0][1])
	}
}
