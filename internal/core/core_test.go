package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"egoist/internal/graph"
)

// buildInstance constructs an instance from a full overlay graph g with
// direct costs direct for node self.
func buildInstance(g *graph.Digraph, self int, kind CostKind, direct []float64) *Instance {
	return &Instance{
		Self:   self,
		Kind:   kind,
		Direct: direct,
		Resid:  BuildResidScratch(g, self, kind, nil, nil),
	}
}

// lineGraph builds 1->2->3->...->n-1 with unit weights (node 0 isolated,
// it is the decider).
func lineGraph(n int) *graph.Digraph {
	g := graph.New(n)
	for v := 1; v < n-1; v++ {
		g.AddArc(v, v+1, 1)
	}
	return g
}

func TestEvalSingleFacilityAdditive(t *testing.T) {
	// Nodes: 0 decider; residual line 1->2->3.
	g := lineGraph(4)
	direct := []float64{0, 10, 100, 100}
	in := buildInstance(g, 0, Additive, direct)
	// Choosing {1}: cost = d(0,1)+d(0,2)+d(0,3) = 10 + 11 + 12.
	if got := in.Eval([]int{1}); got != 33 {
		t.Fatalf("Eval({1}) = %v, want 33", got)
	}
	// Choosing {3}: 1 and 2 unreachable -> 2 penalties + 100.
	if got := in.Eval([]int{3}); got != 2*DisconnectedPenalty+100 {
		t.Fatalf("Eval({3}) = %v, want %v", got, 2*DisconnectedPenalty+100)
	}
}

func TestEvalRespectsPreferences(t *testing.T) {
	g := lineGraph(4)
	direct := []float64{0, 10, 100, 100}
	in := buildInstance(g, 0, Additive, direct)
	in.Pref = []float64{0, 1, 0, 0} // only care about node 1
	if got := in.Eval([]int{1}); got != 10 {
		t.Fatalf("Eval = %v, want 10", got)
	}
}

func TestEvalBottleneck(t *testing.T) {
	// Residual: 1->2 with bw 5.
	g := graph.New(3)
	g.AddArc(1, 2, 5)
	direct := []float64{0, 8, 2}
	in := buildInstance(g, 0, Bottleneck, direct)
	// Choosing {1}: bw(0,1)=8 (direct, resid self Inf), bw(0,2)=min(8,5)=5. Total 13.
	if got := in.Eval([]int{1}); got != 13 {
		t.Fatalf("Eval({1}) = %v, want 13", got)
	}
	// Choosing {2}: bw(0,2)=2; node 1 unreachable => 0. Total 2.
	if got := in.Eval([]int{2}); got != 2 {
		t.Fatalf("Eval({2}) = %v, want 2", got)
	}
}

func TestEvalFixedFacilities(t *testing.T) {
	g := lineGraph(4)
	direct := []float64{0, 10, 100, 100}
	in := buildInstance(g, 0, Additive, direct)
	in.Fixed = []int{1}
	// Empty chosen set still benefits from fixed facility 1.
	if got := in.Eval(nil); got != 33 {
		t.Fatalf("Eval(nil) with fixed {1} = %v, want 33", got)
	}
}

func TestValidateCatchesBadInstances(t *testing.T) {
	g := lineGraph(3)
	good := buildInstance(g, 0, Additive, []float64{0, 1, 1})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := buildInstance(g, 0, Additive, []float64{0, 1, 1})
	bad.Self = 5
	if err := bad.Validate(); err == nil {
		t.Fatal("self out of range accepted")
	}
	bad2 := buildInstance(g, 0, Additive, []float64{0, 1, 1})
	bad2.Candidates = []int{0}
	if err := bad2.Validate(); err == nil {
		t.Fatal("self as candidate accepted")
	}
	bad3 := buildInstance(g, 0, Additive, []float64{0, 1, 1})
	bad3.Resid = bad3.Resid[:1]
	if err := bad3.Validate(); err == nil {
		t.Fatal("short Resid accepted")
	}
}

func TestBestResponsePicksObviousNeighbor(t *testing.T) {
	// Residual ring over 1..4; node 1 is cheap and central.
	g := graph.New(5)
	for v := 1; v <= 4; v++ {
		next := v + 1
		if next > 4 {
			next = 1
		}
		g.AddArc(v, next, 1)
	}
	direct := []float64{0, 1, 50, 50, 50}
	in := buildInstance(g, 0, Additive, direct)
	chosen, _, err := BestResponse(in, 1, BROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || chosen[0] != 1 {
		t.Fatalf("chosen = %v, want [1]", chosen)
	}
}

func TestBestResponseKZero(t *testing.T) {
	g := lineGraph(3)
	in := buildInstance(g, 0, Additive, []float64{0, 1, 1})
	chosen, val, err := BestResponse(in, 0, BROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 0 {
		t.Fatalf("chosen = %v, want empty", chosen)
	}
	if val != 2*DisconnectedPenalty {
		t.Fatalf("val = %v, want full penalty", val)
	}
}

func TestBestResponseNegativeK(t *testing.T) {
	g := lineGraph(3)
	in := buildInstance(g, 0, Additive, []float64{0, 1, 1})
	if _, _, err := BestResponse(in, -1, BROptions{}); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestBestResponseKExceedsCandidates(t *testing.T) {
	g := lineGraph(3)
	in := buildInstance(g, 0, Additive, []float64{0, 1, 1})
	chosen, _, err := BestResponse(in, 10, BROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 2 {
		t.Fatalf("chosen %v, want both candidates", chosen)
	}
}

func TestExactBRRefusesHugeInstances(t *testing.T) {
	n := 60
	g := graph.New(n)
	direct := make([]float64, n)
	for i := 1; i < n; i++ {
		direct[i] = 1
	}
	in := buildInstance(g, 0, Additive, direct)
	if _, _, err := BestResponse(in, 20, BROptions{Exact: true, MaxCombinations: 1000}); err == nil {
		t.Fatal("expected combination-limit error")
	}
}

// randomInstance builds a random residual overlay of n nodes (decider 0)
// with random weights.
func randomInstance(rng *rand.Rand, n int, kind CostKind) *Instance {
	g := graph.New(n)
	for u := 1; u < n; u++ {
		for v := 1; v < n; v++ {
			if u != v && rng.Float64() < 0.4 {
				g.AddArc(u, v, 1+rng.Float64()*20)
			}
		}
	}
	direct := make([]float64, n)
	for j := 1; j < n; j++ {
		direct[j] = 1 + rng.Float64()*20
	}
	return buildInstance(g, 0, kind, direct)
}

// Property: local search matches exact BR on small additive instances
// within a modest approximation factor, and never returns something
// invalid.
func TestLocalSearchNearExactProperty(t *testing.T) {
	for _, kind := range []CostKind{Additive, Bottleneck} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(5)
			k := 1 + rng.Intn(3)
			in := randomInstance(rng, n, kind)
			approx, approxVal, err := BestResponse(in, k, BROptions{})
			if err != nil {
				return false
			}
			exact, exactVal, err := BestResponse(in, k, BROptions{Exact: true})
			if err != nil {
				return false
			}
			if len(approx) != len(exact) {
				return false
			}
			// Exact must be at least as good.
			if kind.better(approxVal, exactVal) && math.Abs(approxVal-exactVal) > 1e-9 {
				return false
			}
			// Local search within 25% of optimal on these tiny instances
			// (it is typically exact; the bound just avoids flakiness).
			if kind == Additive {
				return approxVal <= exactVal*1.25+1e-9
			}
			return approxVal >= exactVal*0.75-1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
	}
}

// Property: BR's chosen sets are sorted, distinct, exclude self, and have
// size min(k, candidates).
func TestBRWellFormedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		k := 1 + rng.Intn(6)
		in := randomInstance(rng, n, Additive)
		chosen, _, err := BestResponse(in, k, BROptions{})
		if err != nil {
			return false
		}
		want := k
		if want > n-1 {
			want = n - 1
		}
		if len(chosen) != want {
			return false
		}
		if !sort.IntsAreSorted(chosen) {
			return false
		}
		seen := map[int]bool{}
		for _, c := range chosen {
			if c == 0 || seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a candidate never makes BR worse (more choice can't hurt).
func TestBRMonotoneInCandidatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		in := randomInstance(rng, n, Additive)
		all := in.candidates()
		restricted := all[:len(all)-1]
		in.Candidates = restricted
		_, valR, err := BestResponse(in, 2, BROptions{Exact: true})
		if err != nil {
			return false
		}
		in.Candidates = all
		_, valA, err := BestResponse(in, 2, BROptions{Exact: true})
		if err != nil {
			return false
		}
		return valA <= valR+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShouldRewire(t *testing.T) {
	cases := []struct {
		kind     CostKind
		cur, new float64
		eps      float64
		want     bool
	}{
		{Additive, 100, 99, 0, true},
		{Additive, 100, 100, 0, false},
		{Additive, 100, 101, 0, false},
		{Additive, 100, 95, 0.1, false}, // 5% < 10% threshold
		{Additive, 100, 85, 0.1, true},
		{Bottleneck, 100, 101, 0, true},
		{Bottleneck, 100, 99, 0, false},
		{Bottleneck, 100, 105, 0.1, false},
		{Bottleneck, 100, 115, 0.1, true},
	}
	for _, c := range cases {
		if got := shouldRewire(c.kind, c.cur, c.new, c.eps); got != c.want {
			t.Errorf("shouldRewire(%v,%v,%v,%v) = %v, want %v", c.kind, c.cur, c.new, c.eps, got, c.want)
		}
	}
}

func TestCombinations(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10}, {10, 3, 120}, {49, 2, 1176}, {3, 5, 0}, {10, 0, 1},
	}
	for _, c := range cases {
		if got := combinations(c.n, c.k); got != c.want {
			t.Errorf("combinations(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBuildResidExcludesSelfAndInactive(t *testing.T) {
	g := graph.New(4)
	g.AddArc(0, 1, 1) // self's own link must be ignored
	g.AddArc(1, 2, 1)
	g.AddArc(2, 3, 1)
	resid := BuildResidScratch(g, 0, Additive, nil, nil)
	if !math.IsInf(resid[0][1], 1) {
		t.Fatal("self out-link leaked into residual graph")
	}
	if resid[1][3] != 2 {
		t.Fatalf("resid[1][3] = %v, want 2", resid[1][3])
	}
	active := []bool{true, true, false, true}
	resid2 := BuildResidScratch(g, 0, Additive, active, nil)
	if !math.IsInf(resid2[1][3], 1) {
		t.Fatal("path through inactive node 2 survived")
	}
}

// BenchmarkResidIncremental prices one epoch's worth of residual
// matrices three ways: a full APSP per node (BuildResidScratch, the
// from-scratch reference); one shortest-path forest
// repaired per node and restored (SPForest.RemoveOut/RestoreOut, a slot
// that keeps its wiring); and the same forest with every node
// committing a changed out-set (SPForest.CommitOut, a slot that
// re-wires, the live forest's worst case). All produce bit-identical
// matrices; the forest pays one APSP up front and then only the
// affected-subtree repairs, each seeded from the in-arcs of its cut
// region, and insertions.
func BenchmarkResidIncremental(b *testing.B) {
	const n = 192
	rng := rand.New(rand.NewSource(11))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for _, w := range []int{(u + 1) % n, (u + 11) % n, (u + n/3) % n, (u + n/2) % n} {
			if w != u {
				g.AddArc(u, w, 1+rng.Float64()*40)
			}
		}
	}
	b.Run("full-apsp-per-node", func(b *testing.B) {
		var s Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for u := 0; u < n; u++ {
				BuildResidScratch(g, u, Additive, nil, &s)
			}
		}
	})
	b.Run("forest-repair-per-node", func(b *testing.B) {
		f := graph.NewSPForest()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Reset(g, false)
			for u := 0; u < n; u++ {
				f.RemoveOut(u)
				_ = f.Dist()
				f.RestoreOut()
			}
		}
	})
	b.Run("forest-commit-per-node", func(b *testing.B) {
		f := graph.NewSPForest()
		var next []graph.Arc
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Reset(g, false)
			for u := 0; u < n; u++ {
				// Re-wire: the same links, the first moved one node on.
				next = append(next[:0], g.Out(u)...)
				next[0].To = (next[0].To + 1) % n
				f.RemoveOut(u)
				_ = f.Dist()
				f.CommitOut(next)
			}
		}
	})
}
