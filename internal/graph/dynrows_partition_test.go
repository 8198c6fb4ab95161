package graph

import (
	"math/rand"
	"testing"
)

// TestDynamicRowsPartitionedInstances checks that a row depends only on
// its source and the graph, never on which other sources share the
// instance: the source set partitioned across several DynamicRows
// instances — each Reset over the same build graph and fed the
// identical Apply edit stream, with source churn routed to the owning
// instance — yields exactly the rows a single instance holding the full
// source set computes.
func TestDynamicRowsPartitionedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, parts = 90, 3
	weight := func(u, v int) float64 { return 0.5 + float64((u*19+v*37)%71)/8 }
	randomOut := func(u, deg int) []Arc {
		seen := map[int]bool{u: true}
		var out []Arc
		for len(out) < deg {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				out = append(out, Arc{To: v, W: weight(u, v)})
			}
		}
		return out
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for _, a := range randomOut(u, 3) {
			g.AddArc(u, a.To, a.W)
		}
	}
	owner := func(v int) int { return v * parts / n }

	// No initial source in the last band: instance 2 Resets empty (a
	// drained band) and only gains rows through later AddSource joins.
	var sources []int
	for s := 0; s < 2*n/parts; s += 4 {
		sources = append(sources, s)
	}
	whole := NewDynamicRows()
	whole.Reset(g, sources, 2)
	split := make([]*DynamicRows, parts)
	for p := range split {
		var mine []int
		for _, s := range sources {
			if owner(s) == p {
				mine = append(mine, s)
			}
		}
		split[p] = NewDynamicRows()
		split[p].Reset(g, mine, 1)
	}

	inSet := map[int]bool{}
	for _, s := range sources {
		inSet[s] = true
	}
	check := func(when string) {
		t.Helper()
		for s := range inSet {
			want := whole.Row(s)
			got := split[owner(s)].Row(s)
			if want == nil || got == nil {
				t.Fatalf("%s: source %d row missing (whole nil=%v, split nil=%v)", when, s, want == nil, got == nil)
			}
			for v := 0; v < n; v++ {
				if got[v] != want[v] {
					t.Fatalf("%s: src %d dist[%d] = %v via its instance, %v via the whole", when, s, v, got[v], want[v])
				}
			}
		}
	}
	check("after Reset")
	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0: // shared edit stream reaches every instance
			var edits []RowEdit
			for e := 0; e < 1+rng.Intn(4); e++ {
				u := rng.Intn(n)
				edits = append(edits, RowEdit{Node: u, NewOut: randomOut(u, 1+rng.Intn(4))})
			}
			whole.Apply(edits)
			for p := range split {
				split[p].Apply(edits)
			}
		case 1: // source join routes to the owner only
			v := rng.Intn(n)
			if !inSet[v] {
				inSet[v] = true
				whole.AddSource(v)
				split[owner(v)].AddSource(v)
			}
		case 2: // source leave routes to the owner only
			for s := range inSet {
				if len(inSet) > 1 {
					delete(inSet, s)
					whole.RemoveSource(s)
					split[owner(s)].RemoveSource(s)
					if split[owner(s)].Row(s) != nil {
						t.Fatalf("removed source %d still has a row in its instance", s)
					}
				}
				break
			}
		}
		check("after round")
	}
}
