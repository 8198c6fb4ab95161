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

// forestAPSP is the ground truth for a forest over g: a from-scratch
// all-pairs computation under the forest's algebra.
func forestAPSP(g *Digraph, widest bool) [][]float64 {
	if widest {
		return APWidest(g)
	}
	return APSP(g)
}

// TestSPForestCommitMatchesAPSP mimics the full engine's live forest: a
// long sequence of re-wirings, each a removal then either a restore or a
// commit of a fresh random out-set, must leave the forest equal to a
// from-scratch APSP of the edited graph after every step — for both
// algebras and across many random graphs.
func TestSPForestCommitMatchesAPSP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, widest := range []bool{false, true} {
		f := NewSPForest()
		for trial := 0; trial < 12; trial++ {
			n := 6 + rng.Intn(36)
			deg := 1 + rng.Intn(3)
			g := randomDigraphInc(rng, n, deg)
			f.Reset(g, widest)
			for round := 0; round < 3*n; round++ {
				u := rng.Intn(n)
				f.RemoveOut(u)
				checkRev(t, "after RemoveOut", &f.liveGraph)
				if rng.Intn(3) == 0 {
					f.RestoreOut()
					checkRev(t, "after RestoreOut", &f.liveGraph)
					checkEqualMatrix(t, "after RestoreOut", f.Dist(), forestAPSP(g, widest))
					continue
				}
				g.ClearOut(u)
				var arcs []Arc
				for x := rng.Intn(deg + 2); x > 0; x-- {
					if v := rng.Intn(n); v != u {
						// Integral weights make equal-cost ties common.
						w := float64(1 + rng.Intn(6))
						g.AddArc(u, v, w)
						arcs = append(arcs, Arc{To: v, W: w})
					}
				}
				f.CommitOut(arcs)
				checkRev(t, "after CommitOut", &f.liveGraph)
				checkEqualMatrix(t, "after CommitOut", f.Dist(), forestAPSP(g, widest))
			}
		}
	}
}

// TestSPForestCommitRepeatedHead commits an out-set that names one head
// twice, which AddArc collapses to the later weight: the reverse lists
// must hold that one arc, and the next removal of the node must repair
// the trees that route through it.
func TestSPForestCommitRepeatedHead(t *testing.T) {
	for _, widest := range []bool{false, true} {
		g := New(4)
		g.AddArc(0, 1, 5)
		g.AddArc(1, 2, 5)
		g.AddArc(2, 3, 5)
		g.AddArc(3, 0, 5)
		f := NewSPForest()
		f.Reset(g, widest)
		f.RemoveOut(1)
		arcs := []Arc{{To: 3, W: 9}, {To: 2, W: 4}, {To: 3, W: 2}}
		g.ClearOut(1)
		for _, a := range arcs {
			g.AddArc(1, a.To, a.W)
		}
		f.CommitOut(arcs)
		checkRev(t, "after CommitOut", &f.liveGraph)
		checkEqualMatrix(t, "after CommitOut", f.Dist(), forestAPSP(g, widest))
		for _, u := range []int{1, 2, 0} {
			f.RemoveOut(u)
			checkRev(t, "after RemoveOut", &f.liveGraph)
			r := g.Clone()
			r.ClearOut(u)
			checkEqualMatrix(t, "after RemoveOut", f.Dist(), forestAPSP(r, widest))
			f.RestoreOut()
			checkRev(t, "after RestoreOut", &f.liveGraph)
		}
	}
}

// checkRev requires a live graph's reverse lists — SPForest's or
// DynamicRows' — to be the reverse of its graph: per node, the same
// multiset of (tail, weight) entries.
func checkRev(t *testing.T, where string, l *liveGraph) {
	t.Helper()
	n := l.g.N()
	if len(l.rev) != n {
		t.Fatalf("%s: %d reverse lists for %d nodes", where, len(l.rev), n)
	}
	want := make([]map[Arc]int, n)
	for v := range want {
		want[v] = map[Arc]int{}
	}
	for u := 0; u < n; u++ {
		for _, a := range l.g.Out(u) {
			want[a.To][Arc{To: u, W: a.W}]++
		}
	}
	for v, list := range l.rev {
		got := map[Arc]int{}
		for _, a := range list {
			got[a]++
		}
		if len(got) != len(want[v]) {
			t.Fatalf("%s: reverse list of %d is %v, graph has %v", where, v, list, want[v])
		}
		for a, c := range want[v] {
			if got[a] != c {
				t.Fatalf("%s: reverse list of %d is %v, graph has %v", where, v, list, want[v])
			}
		}
	}
}

// TestSPForestEditsAllocs pins the forest's steady state, the full
// engine's per-slot cost: once its buffers are warm, a removal with its
// restore, and a removal with a commit, allocate nothing — under both
// algebras.
func TestSPForestEditsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(4))
	g := randomDigraphInc(rng, 80, 4)
	for _, widest := range []bool{false, true} {
		f := NewSPForest()
		f.Reset(g, widest)
		u := 0
		for len(g.Out(u)) < 2 {
			u++
		}
		forward := append([]Arc(nil), g.Out(u)[1:]...)
		back := append([]Arc(nil), g.Out(u)...)
		edits := func() {
			for v := 0; v < g.N(); v++ {
				f.RemoveOut(v)
				f.RestoreOut()
			}
			f.RemoveOut(u)
			f.CommitOut(forward)
			f.RemoveOut(u)
			f.CommitOut(back)
		}
		edits() // the undo log and heap reach their size
		if got := testing.AllocsPerRun(10, edits); got != 0 {
			t.Errorf("widest=%v: %v allocs per sweep and commit pair, want 0", widest, got)
		}
	}
}

// FuzzSPForestEdits drives a forest through a byte-scripted sequence of
// removals, restores and commits, with zero-weight arcs and ties allowed,
// and checks every step against a from-scratch APSP. Each script byte
// pair is one edit: the node, then the action and the new out-set.
func FuzzSPForestEdits(f *testing.F) {
	f.Add(uint8(5), false, []byte{0, 1, 1, 2, 2, 0, 3, 7, 4, 200})
	f.Add(uint8(9), true, []byte{1, 9, 2, 40, 8, 255, 3, 3, 0, 0, 7, 128})
	f.Fuzz(func(t *testing.T, size uint8, widest bool, script []byte) {
		n := 2 + int(size%30)
		rng := rand.New(rand.NewSource(int64(len(script))))
		g := New(n)
		for u := 0; u < n; u++ {
			for x := 0; x < 2; x++ {
				if v := rng.Intn(n); v != u {
					g.AddArc(u, v, float64(rng.Intn(4)))
				}
			}
		}
		forest := NewSPForest()
		forest.Reset(g, widest)
		for x := 0; x+1 < len(script) && x < 400; x += 2 {
			u, op := int(script[x])%n, script[x+1]
			forest.RemoveOut(u)
			checkRev(t, "script removal", &forest.liveGraph)
			if op&3 == 0 {
				forest.RestoreOut()
			} else {
				g.ClearOut(u)
				var arcs []Arc
				for y := 0; y < int(op>>2)%4; y++ {
					v := (u + 1 + int(op)*(y+1)) % n
					if v == u {
						continue
					}
					w := float64((int(op) >> y) % 3) // zero weights included
					g.AddArc(u, v, w)
					arcs = append(arcs, Arc{To: v, W: w})
				}
				forest.CommitOut(arcs)
			}
			checkRev(t, "script step", &forest.liveGraph)
			checkEqualMatrix(t, "script step", forest.Dist(), forestAPSP(g, widest))
		}
	})
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
	mustPanic("CommitOut without a removal", func() { f.CommitOut(nil) })
	f.RemoveOut(0)
	mustPanic("a second RemoveOut", func() { f.RemoveOut(1) })
	f.RestoreOut()
	if f.Dist()[0][1] != 1 {
		t.Fatalf("restored distance %v, want 1", f.Dist()[0][1])
	}
}
