package graph

import (
	"math/rand"
	"testing"
)

// continuousWeight is the tie-free weight of the edit generators.
func continuousWeight(rng *rand.Rand) float64 { return 0.5 + rng.Float64()*20 }

// randomEdits draws a batch of out-row replacements: each picks a node
// and rewrites its row to a fresh random arc set (possibly empty — a
// departure clearing its out-links) weighted by weight.
func randomEdits(rng *rand.Rand, n, batch int, weight func(*rand.Rand) float64) []RowEdit {
	edits := make([]RowEdit, 0, batch)
	seen := make(map[int]bool)
	for len(edits) < batch {
		u := rng.Intn(n)
		if seen[u] {
			continue
		}
		seen[u] = true
		var arcs []Arc
		for t := rng.Intn(4); t > 0; t-- {
			v := rng.Intn(n)
			if v != u && !arcsHaveTarget(arcs, v) {
				arcs = append(arcs, Arc{To: v, W: weight(rng)})
			}
		}
		edits = append(edits, RowEdit{Node: u, NewOut: arcs})
	}
	return edits
}

func arcsHaveTarget(arcs []Arc, v int) bool {
	for _, a := range arcs {
		if a.To == v {
			return true
		}
	}
	return false
}

// applyEditsTo returns a clone of g with the row replacements applied.
func applyEditsTo(g *Digraph, edits []RowEdit) *Digraph {
	r := g.Clone()
	for _, e := range edits {
		r.ClearOut(e.Node)
		for _, a := range e.NewOut {
			r.AddArc(e.Node, a.To, a.W)
		}
	}
	return r
}

// splitArcs converts an []Arc row to the CSR layout RowCrossed reads.
func splitArcs(arcs []Arc) (to []int32, w []float64) {
	for _, a := range arcs {
		to = append(to, int32(a.To))
		w = append(w, a.W)
	}
	return to, w
}

// crossedByAny reports whether RowCrossed flags the row for any edit of
// the batch — how plane.Patch decides which cached rows to drop.
func crossedByAny(dist []float64, parent []int32, g *Digraph, edits []RowEdit) bool {
	for _, e := range edits {
		oldTo, oldW := splitArcs(g.Out(e.Node))
		newTo, newW := splitArcs(e.NewOut)
		if RowCrossed(dist, parent, e.Node, oldTo, oldW, newTo, newW) {
			return true
		}
	}
	return false
}

// TestAffectedSourcesVsBruteForce is the property the delta publisher
// stands on: every row RowCrossed does NOT flag for any edit of a batch
// must equal the same source's row in a from-scratch recompute of the
// edited graph — distance bits against APSP for rows of both producers
// (the data plane's DijkstraCSR and the forest), and for DijkstraCSR
// rows the whole parent array against a fresh DijkstraCSR. Weights are
// continuous, small integers and zero-heavy, so carried rows meet ties
// and zero-weight plateaus. (Flagged rows may or may not actually
// change — the test additionally counts that the flag is not trivially
// "everyone", so the skip fast-path is exercised in every class.)
func TestAffectedSourcesVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewSPForest()
	var sc SPScratch
	classes := []int{pairContinuous, pairSmallInt, pairZeroHeavy}
	var skipped, total [pairClasses]int
	for trial := 0; trial < 120; trial++ {
		class := classes[trial%len(classes)]
		weight := func(rng *rand.Rand) float64 { return pairWeight(class, rng) }
		if class == pairContinuous {
			weight = continuousWeight
		}
		n := 8 + rng.Intn(40)
		g := New(n)
		for u, deg := 0, 1+rng.Intn(3); u < n; u++ {
			for a := 0; a < deg; a++ {
				if v := rng.Intn(n); v != u {
					g.AddArc(u, v, weight(rng))
				}
			}
		}
		f.Reset(g, false)
		c := NewCSR(n, g.Out)
		edits := randomEdits(rng, n, 1+rng.Intn(3), weight)
		edited := applyEditsTo(g, edits)
		truth := APSP(edited)
		fresh := NewCSR(n, edited.Out)
		dist, parent := make([]float64, n), make([]int32, n)
		wantDist, wantParent := make([]float64, n), make([]int32, n)
		for src := 0; src < n; src++ {
			sc.DijkstraCSR(c, src, dist, parent)
			sc.DijkstraCSR(fresh, src, wantDist, wantParent)
			for _, row := range []struct {
				name   string
				dist   []float64
				parent []int32
			}{{"csr", dist, parent}, {"forest", f.dist[src], f.parent[src]}} {
				total[class]++
				if crossedByAny(row.dist, row.parent, g, edits) {
					continue
				}
				skipped[class]++
				for dst := 0; dst < n; dst++ {
					if row.dist[dst] != truth[src][dst] {
						t.Fatalf("trial %d (class %d): %s row of source %d not flagged but dist[%d] changed: %v -> %v (edits %v)",
							trial, class, row.name, src, dst, row.dist[dst], truth[src][dst], edits)
					}
					if row.name == "csr" && row.parent[dst] != wantParent[dst] {
						t.Fatalf("trial %d (class %d): csr row of source %d not flagged but parent[%d] changed: %d -> %d (edits %v)",
							trial, class, src, dst, row.parent[dst], wantParent[dst], edits)
					}
				}
			}
		}
	}
	for _, class := range classes {
		if skipped[class] == 0 {
			t.Fatalf("class %d: no row was ever skipped across %d — the fast path never ran", class, total[class])
		}
	}
}

// TestAffectedSourcesIdentityEdit: replacing a row with itself crosses
// nothing — the "marked but unchanged" case the engines produce when a
// node re-adopts its current wiring.
func TestAffectedSourcesIdentityEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomDigraphInc(rng, 30, 3)
	f := NewSPForest()
	f.Reset(g, false)
	for u := 0; u < g.N(); u++ {
		edit := RowEdit{Node: u, NewOut: append([]Arc(nil), g.Out(u)...)}
		for src := 0; src < g.N(); src++ {
			if crossedByAny(f.dist[src], f.parent[src], g, []RowEdit{edit}) {
				t.Fatalf("identity edit of node %d flagged source %d", u, src)
			}
		}
	}
}

// TestPatchCSR: patching must be byte-identical to packing the edited
// adjacency from scratch, and must leave the base untouched.
func TestPatchCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(30)
		g := randomDigraphInc(rng, n, 1+rng.Intn(3))
		base := NewCSR(n, func(u int) []Arc { return g.Out(u) })
		baseCopy := NewCSR(n, func(u int) []Arc { return g.Out(u) })
		edits := randomEdits(rng, n, 1+rng.Intn(4), continuousWeight)
		edited := applyEditsTo(g, edits)
		changed := make([]int, len(edits))
		rows := make(map[int][]Arc, len(edits))
		for i, e := range edits {
			changed[i] = e.Node
			rows[e.Node] = e.NewOut
		}
		sortInts(changed)
		patched := PatchCSR(base, changed, func(u int) []Arc { return rows[u] })
		want := NewCSR(n, func(u int) []Arc { return edited.Out(u) })
		checkSameCSR(t, "patched vs rebuilt", patched, want)
		checkSameCSR(t, "base mutated by patch", base, baseCopy)
	}
	// Empty changed list: a pure copy.
	g := randomDigraphInc(rand.New(rand.NewSource(11)), 12, 2)
	base := NewCSR(12, func(u int) []Arc { return g.Out(u) })
	checkSameCSR(t, "empty patch", PatchCSR(base, nil, nil), base)
}

func TestPatchCSRRejectsUnsorted(t *testing.T) {
	base := NewCSR(4, func(u int) []Arc { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("descending changed list accepted")
		}
	}()
	PatchCSR(base, []int{2, 1}, func(u int) []Arc { return nil })
}

func checkSameCSR(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if got.N() != want.N() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("%s: shape (%d nodes, %d arcs) vs (%d, %d)", what, got.N(), got.NumArcs(), want.N(), want.NumArcs())
	}
	for u := 0; u < got.N(); u++ {
		gt, gw := got.Out(u)
		wt, ww := want.Out(u)
		if len(gt) != len(wt) {
			t.Fatalf("%s: node %d degree %d vs %d", what, u, len(gt), len(wt))
		}
		for x := range gt {
			if gt[x] != wt[x] || gw[x] != ww[x] {
				t.Fatalf("%s: node %d arc %d: (%d, %v) vs (%d, %v)", what, u, x, gt[x], gw[x], wt[x], ww[x])
			}
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
