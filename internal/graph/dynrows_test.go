package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// TestDynamicRowsMatchesFresh drives DynamicRows through random
// whole-out-set replacements and checks every row equals a fresh
// Dijkstra on the edited graph after every Apply.
func TestDynamicRowsMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 120
	// Static weight per (u,v) pair, as the contract requires.
	weight := func(u, v int) float64 {
		return 0.5 + float64((u*31+v*17)%97)/7
	}
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
	var sources []int
	for s := 0; s < n; s += 7 {
		sources = append(sources, s)
	}
	r := NewDynamicRows()
	r.Reset(g, sources, 2)

	check := func(when string) {
		t.Helper()
		var sp SPScratch
		want := make([]float64, n)
		for i, s := range sources {
			sp.DijkstraDist(r.Graph(), s, want)
			got := r.RowAt(i)
			for v := 0; v < n; v++ {
				if got[v] != want[v] {
					t.Fatalf("%s: row %d (src %d) dist[%d] = %v, want %v", when, i, s, v, got[v], want[v])
				}
			}
			if r.Row(s) == nil {
				t.Fatalf("%s: Row(%d) nil", when, s)
			}
		}
	}
	check("after Reset")
	for round := 0; round < 25; round++ {
		var edits []RowEdit
		for e := 0; e < 1+rng.Intn(6); e++ {
			u := rng.Intn(n)
			edits = append(edits, RowEdit{Node: u, NewOut: randomOut(u, 1+rng.Intn(4))})
		}
		r.Apply(edits)
		check("after Apply")
	}
}

// TestDynamicRowsConcurrentReads exercises the concurrency contract
// the scale engine's proposal phase relies on: between mutations, any
// number of goroutines may read rows and the maintained graph
// concurrently and must all observe the same exact distances. The
// serial mutations between read phases are the misuse boundary — under
// -race this test proves the read phase is clean, and the mutation
// guard would panic if a reader ever overlapped a mutation.
func TestDynamicRowsConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, readers = 80, 8
	weight := func(u, v int) float64 { return 1 + float64((u*13+v*29)%53)/9 }
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
	sources := []int{0, 5, 11, 17, 23, 42}
	r := NewDynamicRows()
	r.Reset(g, sources, 2)

	for round := 0; round < 20; round++ {
		// Reference snapshot, then a concurrent read storm against it.
		want := make([][]float64, len(sources))
		for i := range sources {
			want[i] = append([]float64(nil), r.RowAt(i)...)
		}
		var wg sync.WaitGroup
		errc := make(chan string, readers)
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, s := range sources {
					row := r.Row(s)
					at := r.RowAt(i)
					for v := 0; v < n; v++ {
						if row[v] != want[i][v] || at[v] != want[i][v] {
							select {
							case errc <- "concurrent read diverged from snapshot":
							default:
							}
							return
						}
					}
					if r.SlotOf(s) != i {
						select {
						case errc <- "SlotOf diverged":
						default:
						}
					}
					_ = r.Graph().Out(s) // graph reads share the same contract
				}
			}()
		}
		wg.Wait()
		select {
		case msg := <-errc:
			t.Fatalf("round %d: %s", round, msg)
		default:
		}
		// Serial mutation window: out-set edits plus source churn.
		u := rng.Intn(n)
		r.Apply([]RowEdit{{Node: u, NewOut: randomOut(u, 1+rng.Intn(4))}})
		if round%5 == 4 {
			v := sources[len(sources)-1]
			r.RemoveSource(v)
			r.AddSource(v)
			sources = append(sources[:len(sources)-1], v)
		}
	}
}

// TestDynamicRowsDisconnection covers cutting a node off entirely and
// reconnecting it.
func TestDynamicRowsDisconnection(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(2, 3, 1)
	r := NewDynamicRows()
	r.Reset(g, []int{0}, 1)
	if d := r.RowAt(0)[3]; d != 3 {
		t.Fatalf("initial dist to 3 = %v", d)
	}
	r.Apply([]RowEdit{{Node: 1, NewOut: nil}})
	if d := r.RowAt(0)[2]; d != Inf {
		t.Fatalf("after cut, dist to 2 = %v, want Inf", d)
	}
	r.Apply([]RowEdit{{Node: 1, NewOut: []Arc{{To: 3, W: 5}}}})
	if d := r.RowAt(0)[3]; d != 6 {
		t.Fatalf("after reconnect, dist to 3 = %v, want 6", d)
	}
	if d := r.RowAt(0)[2]; d != Inf {
		t.Fatalf("2 should stay unreachable, got %v", d)
	}
	if r.Row(2) != nil {
		t.Fatal("non-source Row should be nil")
	}
	// An empty batch and a non-source removal change nothing.
	applies := r.Applies()
	r.Apply(nil)
	r.RemoveSource(2)
	if r.Applies() != applies || len(r.Sources()) != 1 || r.RowAt(0)[3] != 6 {
		t.Fatalf("no-op calls changed the rows: applies %d → %d, sources %v", applies, r.Applies(), r.Sources())
	}
}

// TestDynamicRowsMutationGuard pins the loud half of the concurrency
// contract: a read or a second mutation that observes a mutation in
// flight panics instead of returning half-repaired distances.
func TestDynamicRowsMutationGuard(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1)
	r := NewDynamicRows()
	r.Reset(g, []int{0}, 1)
	done := r.beginMutate()
	for name, call := range map[string]func(){
		"Row":   func() { r.Row(0) },
		"Apply": func() { r.Apply([]RowEdit{{Node: 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s during a mutation did not panic", name)
				}
			}()
			call()
		}()
	}
	done()
	if r.Row(0)[1] != 1 {
		t.Fatal("row changed by the refused calls")
	}
}

// TestDynamicRowsSourceChurn drives AddSource/RemoveSource interleaved
// with Apply edits and checks every surviving row stays exact — the
// membership-event maintenance path of the scale engine's directory.
func TestDynamicRowsSourceChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 80
	weight := func(u, v int) float64 { return 0.5 + float64((u*13+v*29)%53)/9 }
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
	sources := []int{0, 5, 10, 15}
	r := NewDynamicRows()
	r.Reset(g, sources, 1)

	inSet := map[int]bool{0: true, 5: true, 10: true, 15: true}
	check := func(when string) {
		t.Helper()
		var sp SPScratch
		want := make([]float64, n)
		for s := range inSet {
			slot := r.SlotOf(s)
			if slot < 0 {
				t.Fatalf("%s: source %d lost its slot", when, s)
			}
			sp.DijkstraDist(r.Graph(), s, want)
			got := r.RowAt(slot)
			for v := 0; v < n; v++ {
				if got[v] != want[v] {
					t.Fatalf("%s: src %d dist[%d] = %v, want %v", when, s, v, got[v], want[v])
				}
			}
		}
	}
	check("initial")
	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0:
			v := rng.Intn(n)
			r.AddSource(v)
			inSet[v] = true
		case 1:
			for s := range inSet {
				if len(inSet) > 1 {
					r.RemoveSource(s)
					delete(inSet, s)
					if r.SlotOf(s) != -1 {
						t.Fatalf("removed source %d still has slot %d", s, r.SlotOf(s))
					}
				}
				break
			}
		case 2:
			u := rng.Intn(n)
			r.Apply([]RowEdit{{Node: u, NewOut: randomOut(u, 1+rng.Intn(4))}})
		}
		check("after round")
	}
	if r.Resets() != 1 {
		t.Fatalf("Resets = %d, want 1", r.Resets())
	}
	if r.Applies() == 0 {
		t.Fatal("Applies = 0, want > 0")
	}
}

// TestDynamicRowsRepeatedHead applies an out-set that names one head
// twice, which the graph collapses to one arc. A later edit that drops
// the arc must leave no trace of it: the repair that re-seeds the head
// may not reach it through the dropped arc.
func TestDynamicRowsRepeatedHead(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1)
	g.AddArc(1, 2, 1)
	g.AddArc(0, 3, 10)
	g.AddArc(3, 2, 10)
	r := NewDynamicRows()
	r.Reset(g, []int{0}, 1)
	r.Apply([]RowEdit{{Node: 1, NewOut: []Arc{{To: 2, W: 1}, {To: 2, W: 1}}}})
	r.Apply([]RowEdit{{Node: 1}})
	want := make([]float64, 4)
	new(SPScratch).DijkstraDist(r.Graph(), 0, want)
	for v, d := range r.Row(0) {
		if d != want[v] {
			t.Fatalf("dist[%d] = %v after the arc was dropped, want %v", v, d, want[v])
		}
	}
}

// TestDynamicRowsRepeatedNode applies a batch that names one node twice:
// node 0 gains the arc 0->3 and then loses it again. The later edit wins,
// so the row must not reach 3, or reach 1 through 3, over the arc the
// batch added and dropped.
func TestDynamicRowsRepeatedNode(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 10)
	g.AddArc(0, 2, 5)
	g.AddArc(2, 1, 1)
	g.AddArc(3, 1, 1)
	r := NewDynamicRows()
	r.Reset(g, []int{0}, 1)
	kept := append([]Arc(nil), g.Out(0)...)
	r.Apply([]RowEdit{
		{Node: 0, NewOut: append(append([]Arc(nil), kept...), Arc{To: 3, W: 1})},
		{Node: 0, NewOut: kept},
	})
	checkRev(t, "repeated node", &r.liveGraph)
	want := []float64{0, 6, 5, Inf}
	for v, d := range r.Row(0) {
		if d != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, d, want[v])
		}
	}
}

// SlotOf returns the row index of source v, or -1 if v is not a source.
func (r *DynamicRows) SlotOf(v NodeID) int {
	r.checkRead()
	return int(r.slot[v])
}
