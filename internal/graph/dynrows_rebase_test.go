package graph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// rebaseWeight is the static per-(u,v) weight the DynamicRows contract
// requires; coarse enough that equal-cost paths are common.
func rebaseWeight(u, v int) float64 { return 0.5 + float64((u*31+v*17)%23)/4 }

// rebaseScript drives one DynamicRows instance through a byte-coded
// sequence of Apply / AddSource / RemoveSource / Rebase calls and, after
// every call, requires the instance to be indistinguishable from a
// fresh NewDynamicRows().Reset on the same graph and sources: every
// dist row Float64bits-equal, Sources/SlotOf/Row consistent, and after
// a Rebase the source order exactly the one passed in. The Rebase
// flavours are the ones the carry has to get right: rotated sources and
// disjoint sources. Moving onto an edited graph, a graph of another
// size, or seeding an empty instance goes through rebaseOnto, which
// resets when the graph differs.
func rebaseScript(t *testing.T, script []byte) {
	t.Helper()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	n := 6 + next()%20
	g := New(n)
	randomOut := func(u, deg int) []Arc {
		var out []Arc
		for len(out) < deg && len(out) < n-1 {
			v := next() % n
			dup := v == u
			for _, a := range out {
				dup = dup || a.To == v
			}
			if dup {
				v = (u + 1 + len(out)) % n // deterministic fallback, may repeat: AddArc dedups
			}
			out = append(out, Arc{To: v, W: rebaseWeight(u, v)})
		}
		return out
	}
	setOut := func(g *Digraph, u int, out []Arc) {
		g.ClearOut(u)
		for _, a := range out {
			if a.To != u {
				g.AddArc(u, a.To, a.W)
			}
		}
	}
	for u := 0; u < n; u++ {
		setOut(g, u, randomOut(u, 1+next()%3))
	}
	var sources []int
	pickSources := func(from, count, stride int) []int {
		var out []int
		seen := map[int]bool{}
		for v := from % n; len(out) < count && len(out) < n; v = (v + stride) % n {
			if seen[v] {
				v = (v + 1) % n
				if seen[v] {
					break
				}
			}
			seen[v] = true
			out = append(out, v)
		}
		return out
	}

	r := NewDynamicRows()
	check := func(when string, ordered bool) {
		t.Helper()
		if !sameArcs(r.Graph(), g) {
			t.Fatalf("%s: maintained graph diverged from the shadow graph", when)
		}
		// In(v) is the shadow's in-arcs of v, in some order.
		in := make([][]Arc, n)
		for u := 0; u < n; u++ {
			for _, a := range g.Out(u) {
				in[a.To] = append(in[a.To], Arc{To: u, W: a.W})
			}
		}
		byTail := func(a, b Arc) int { return a.To - b.To }
		for v := range in {
			got := slices.Clone(r.In(v))
			slices.SortFunc(got, byTail)
			if slices.SortFunc(in[v], byTail); !slices.Equal(got, in[v]) {
				t.Fatalf("%s: In(%d) = %v, the shadow's in-arcs are %v", when, v, got, in[v])
			}
		}
		got := r.Sources()
		if len(got) != len(sources) {
			t.Fatalf("%s: Sources() = %v, want the set %v", when, got, sources)
		}
		want := NewDynamicRows()
		want.Reset(g, sources, 1)
		isSource := make([]bool, n)
		for i, s := range sources {
			isSource[s] = true
			if ordered && got[i] != s {
				t.Fatalf("%s: Sources() = %v, want %v in that order", when, got, sources)
			}
			slot := r.SlotOf(s)
			if slot < 0 || got[slot] != s {
				t.Fatalf("%s: SlotOf(%d) = %d, Sources() = %v", when, s, slot, got)
			}
			row, ref := r.Row(s), want.Row(s)
			if &row[0] != &r.RowAt(slot)[0] {
				t.Fatalf("%s: Row(%d) and RowAt(%d) are different rows", when, s, slot)
			}
			if len(row) != n {
				t.Fatalf("%s: Row(%d) has %d entries, graph has %d nodes", when, s, len(row), n)
			}
			for v := range ref {
				if math.Float64bits(row[v]) != math.Float64bits(ref[v]) {
					t.Fatalf("%s: src %d dist[%d] = %v, fresh Reset says %v", when, s, v, row[v], ref[v])
				}
			}
		}
		for v := 0; v < n; v++ {
			if !isSource[v] && (r.Row(v) != nil || r.SlotOf(v) != -1) {
				t.Fatalf("%s: non-source %d has slot %d / a row", when, v, r.SlotOf(v))
			}
		}
	}

	// First call on an empty instance.
	sources = pickSources(next(), 1+next()%5, 1+next()%3)
	rebaseOnto(r, g, sources, 1+next()%3)
	check("first Rebase", true)

	for step := 0; step < 40 && len(script) > 0; step++ {
		switch op := next() % 8; op {
		case 0, 1: // Apply
			var edits []RowEdit
			for e := 0; e < 1+next()%3; e++ {
				u := next() % n
				out := randomOut(u, next()%4)
				edits = append(edits, RowEdit{Node: u, NewOut: out})
			}
			// Apply takes the arcs as given; hand each edit the shadow's
			// view right after it, so self-loops and duplicates never
			// reach Apply and a node edited twice hands it both out-sets.
			for x, e := range edits {
				setOut(g, e.Node, e.NewOut)
				edits[x].NewOut = append([]Arc(nil), g.Out(e.Node)...)
			}
			r.Apply(edits)
			checkRev(t, "Apply", &r.liveGraph)
			check("Apply", false)
		case 2: // AddSource
			v := next() % n
			r.AddSource(v)
			if !slices.Contains(sources, v) {
				sources = append(sources, v)
			}
			check("AddSource", false)
		case 3: // RemoveSource
			if len(sources) > 1 {
				x := next() % len(sources)
				r.RemoveSource(sources[x])
				sources = append(sources[:x:x], sources[x+1:]...)
				check("RemoveSource", false)
			}
		case 4: // Rebase, same graph, rotated sources: drop some, add some
			keep := sources[next()%len(sources):]
			sources = append([]int(nil), keep...)
			for _, v := range pickSources(next(), next()%4, 1+next()%3) {
				if !slices.Contains(sources, v) {
					sources = append(sources, v)
				}
			}
			rand.New(rand.NewSource(int64(next()))).Shuffle(len(sources), func(a, b int) {
				sources[a], sources[b] = sources[b], sources[a]
			})
			fullBefore, resetsBefore := r.FullRows(), r.Resets()
			fresh := 0
			for _, s := range sources {
				if r.SlotOf(s) < 0 {
					fresh++
				}
			}
			r.Rebase(sources, 1+next()%3)
			check("Rebase/rotated", true)
			if built := r.FullRows() - fullBefore; built != fresh || r.Resets() != resetsBefore {
				t.Fatalf("Rebase/rotated built %d rows (%d resets) for %d new sources of %d",
					built, r.Resets()-resetsBefore, fresh, len(sources))
			}
		case 5: // Rebase, same graph, no source survives
			old := map[int]bool{}
			for _, s := range sources {
				old[s] = true
			}
			var disjoint []int
			for v := next() % n; len(disjoint) < 1+len(sources)/2 && len(disjoint)+len(old) < n; v = (v + 1) % n {
				if !old[v] {
					old[v] = true
					disjoint = append(disjoint, v)
				}
			}
			if len(disjoint) > 0 {
				sources = disjoint
				r.Rebase(sources, 1)
				check("Rebase/disjoint", true)
			}
		case 6: // Rebase onto an edited graph: every row must be recomputed
			u := next() % n
			setOut(g, u, randomOut(u, next()%4))
			resetsBefore := r.Resets()
			changed := !sameArcs(r.Graph(), g)
			rebaseOnto(r, g, sources, 1+next()%3)
			check("Rebase/edited", true)
			if changed && r.Resets() != resetsBefore+1 {
				t.Fatalf("Rebase onto an edited graph did not reset (resets %d -> %d)", resetsBefore, r.Resets())
			}
		case 7: // Rebase onto a graph of another size
			n = 6 + next()%20
			g = New(n)
			for u := 0; u < n; u++ {
				setOut(g, u, randomOut(u, 1+next()%3))
			}
			sources = pickSources(next(), 1+next()%5, 1+next()%3)
			rebaseOnto(r, g, sources, 1+next()%3)
			check("Rebase/resized", true)
		}
	}
}

// rebaseOnto makes sources the source set over g: a Rebase when g is
// the maintained graph arc for arc, else a Reset.
func rebaseOnto(r *DynamicRows, g *Digraph, sources []int, workers int) {
	if r.g == nil || !sameArcs(r.g, g) {
		r.Reset(g, sources, workers)
		return
	}
	r.Rebase(sources, workers)
}

// sameArcs reports whether a and b have the same nodes and, per node,
// the same out-arcs in the same order.
func sameArcs(a, b *Digraph) bool {
	if a.n != b.n {
		return false
	}
	for u, arcs := range a.out {
		if !slices.Equal(arcs, b.out[u]) {
			return false
		}
	}
	return true
}

// TestDynamicRowsRebaseBeforeReset: with no graph maintained there is
// nothing to re-seat sources over, and Rebase says so.
func TestDynamicRowsRebaseBeforeReset(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Rebase before Reset") {
			t.Fatalf("Rebase on an empty instance: recovered %q, want a panic naming Rebase before Reset", msg)
		}
	}()
	NewDynamicRows().Rebase([]int{0}, 1)
}

// rebaseSeeds are the fuzz corpus and the deterministic test's input:
// hand-written scripts that reach each Rebase flavour right after each
// kind of mutation, plus the given number of random ones.
func rebaseSeeds(random int) [][]byte {
	seeds := [][]byte{
		{},
		{10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 1, 2, 3, 1, 2, 9},                       // rotate straight after the first Rebase
		{14, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 0, 2, 3, 1, 4, 4, 2, 1, 1, 0, 3},     // Apply, then rotate
		{9, 2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 2, 3, 3, 0, 4, 0, 1, 1, 1, 5, 3},   // add, remove, rotate, disjoint
		{12, 1, 1, 2, 3, 5, 8, 13, 21, 34, 6, 3, 2, 4, 1, 0, 2, 6, 1, 0, 7, 9, 1},  // edited graph, then resized
		{20, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 15, 3, 3, 7, 5, 4, 4, 4, 4, 4}, // resized, then carries on the new size
	}
	rng := rand.New(rand.NewSource(17))
	for s := 0; s < random; s++ {
		b := make([]byte, 120+rng.Intn(200))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// TestDynamicRowsRebaseMatchesReset is the differential for the
// epoch-boundary carry: whatever mix of repairs, source churn and
// rebases an instance has been through, it holds exactly what a fresh
// Reset on the same inputs holds.
func TestDynamicRowsRebaseMatchesReset(t *testing.T) {
	for _, script := range rebaseSeeds(60) {
		rebaseScript(t, script)
	}
}

// FuzzDynamicRowsRebase runs the same differential over fuzzer-chosen
// scripts.
func FuzzDynamicRowsRebase(f *testing.F) {
	for _, script := range rebaseSeeds(4) {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { rebaseScript(t, script) })
}

// rotationFixture is the scale-converge directory in miniature: n=600,
// k=8, 456 sources of which 60 rotate per rebuild.
func rotationFixture() (g *Digraph, sourcesAt func(epoch int) []int) {
	const n, k, members, rotate = 600, 8, 456, 60
	rng := rand.New(rand.NewSource(5))
	g = New(n)
	for u := 0; u < n; u++ {
		for g.OutDegree(u) < k {
			if v := rng.Intn(n); v != u {
				g.AddArc(u, v, rebaseWeight(u, v))
			}
		}
	}
	return g, func(epoch int) []int {
		// A fixed core plus a window of `rotate` ids that slides through
		// the rest of the roster.
		out := make([]int, 0, members)
		for v := 0; v < members-rotate; v++ {
			out = append(out, v)
		}
		rest := n - (members - rotate)
		for e := 0; e < rotate; e++ {
			out = append(out, members-rotate+(epoch*rotate+e)%rest)
		}
		return out
	}
}

// TestDynamicRowsAllocs pins the repair kernels' steady state: a warm
// Apply and a Rebase that changes no membership allocate nothing, and a
// Rebase that rotates sources recycles the departed rows' storage
// instead of allocating new rows.
func TestDynamicRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g, sourcesAt := rotationFixture()
	r := NewDynamicRows()
	r.Reset(g, sourcesAt(0), 1)

	u := 17
	forward := []RowEdit{{Node: u, NewOut: []Arc{{To: 3, W: rebaseWeight(u, 3)}, {To: 400, W: rebaseWeight(u, 400)}}}}
	back := []RowEdit{{Node: u, NewOut: append([]Arc(nil), g.Out(u)...)}}
	if got := testing.AllocsPerRun(20, func() {
		r.Apply(forward)
		r.Apply(back)
	}); got != 0 {
		t.Errorf("warm Apply: %v allocs per forward+back pair, want 0", got)
	}

	same := sourcesAt(0)
	r.Rebase(same, 1) // the second header array reaches its size
	if got := testing.AllocsPerRun(20, func() { r.Rebase(same, 1) }); got != 0 {
		t.Errorf("Rebase with unchanged membership: %v allocs, want 0", got)
	}

	epoch := 0
	r.Rebase(sourcesAt(1), 1)
	r.Rebase(sourcesAt(0), 1)
	if got := testing.AllocsPerRun(20, func() {
		epoch++
		r.Rebase(sourcesAt(epoch), 1)
	}); got > 1 { // sourcesAt's own slice
		t.Errorf("Rebase rotating 60 of 456 sources: %v allocs, want the caller's 1", got)
	}
}

// BenchmarkDynamicRowsRebase is one epoch-boundary rebuild of the
// scale-converge directory: 456 sources over n=600/k=8, 60 of them new.
// A Reset of the same inputs is the cost it replaced (the repository
// benchmark's graph.dynrows_reset_ms).
func BenchmarkDynamicRowsRebase(b *testing.B) {
	g, sourcesAt := rotationFixture()
	r := NewDynamicRows()
	r.Reset(g, sourcesAt(0), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Rebase(sourcesAt(i+1), 1)
	}
}

// BenchmarkDynamicRowsApply is one directory repair on the same fixture:
// a batch of 8 distinct nodes each re-wired to 8 fresh heads, repaired
// in all 456 rows on one worker. 128 nodes take turns in 16 batches,
// each switching between two out-sets, so every edit changes its node's
// arcs and every 32 batches leave the graph as it was. After one warm
// round the buffers have their size and an Apply allocates nothing.
func BenchmarkDynamicRowsApply(b *testing.B) {
	const batch, k, rounds = 8, 8, 16
	g, sourcesAt := rotationFixture()
	n := g.N()
	rng := rand.New(rand.NewSource(9))
	batches := make([][]RowEdit, 2*rounds)
	for x, u := range rng.Perm(n)[:batch*rounds] {
		for side := 0; side < 2; side++ {
			var out []Arc
			for len(out) < k {
				if v := rng.Intn(n); v != u && !slices.ContainsFunc(out, func(a Arc) bool { return a.To == v }) {
					out = append(out, Arc{To: v, W: rebaseWeight(u, v)})
				}
			}
			y := side*rounds + x/batch
			batches[y] = append(batches[y], RowEdit{Node: u, NewOut: out})
		}
	}
	r := NewDynamicRows()
	r.Reset(g, sourcesAt(0), 1)
	for _, edits := range batches[rounds:] { // where every round ends
		r.Apply(edits)
	}
	for _, edits := range batches { // the warm round
		r.Apply(edits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Apply(batches[i%len(batches)])
	}
}
