package core

import (
	"math/rand"
	"testing"

	"egoist/internal/graph"
)

func TestKRegularKExceedsAlive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	req := testRequest(rng, 4, 10) // k=10 > n-1=3
	out, err := KRegular{}.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %v, want all 3 others", out)
	}
}

func TestKRegularSingleAliveNode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	req := testRequest(rng, 5, 2)
	req.Active = []bool{true, false, false, false, false}
	out, err := KRegular{}.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("lone node selected %v", out)
	}
}

func TestKRegularDeadSelfErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	req := testRequest(rng, 5, 2)
	req.Active = []bool{false, true, true, true, true}
	if _, err := (KRegular{}).Select(req); err == nil {
		t.Fatal("dead self accepted")
	}
}

func TestBRPolicyBottleneck(t *testing.T) {
	// Bandwidth BR: a fat link to a well-connected node should win over a
	// thin direct link.
	n := 6
	g := graph.New(n)
	for v := 1; v < n; v++ {
		for w := 1; w < n; w++ {
			if v != w {
				g.AddArc(v, w, 50)
			}
		}
	}
	direct := []float64{0, 100, 1, 1, 1, 1}
	req := &Request{Self: 0, K: 1, Kind: Bottleneck, Direct: direct, Graph: g}
	out, err := (BRPolicy{}).Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("bandwidth BR chose %v, want the fat link [1]", out)
	}
}

func TestDonatedTargetsEdgeCases(t *testing.T) {
	if got := DonatedTargets(0, 5, 0, nil); got != nil {
		t.Fatalf("k2=0 gave %v", got)
	}
	if got := DonatedTargets(0, 1, 2, nil); got != nil {
		t.Fatalf("singleton ring gave %v", got)
	}
	active := []bool{false, true, true}
	if got := DonatedTargets(0, 3, 2, active); got != nil {
		t.Fatalf("dead self gave %v", got)
	}
	// Two alive nodes: one possible target.
	two := DonatedTargets(1, 3, 2, active)
	if len(two) != 1 || two[0] != 2 {
		t.Fatalf("two-node ring gave %v", two)
	}
}

func TestDonatedTargetsFourLinks(t *testing.T) {
	// k2=4 over 9 nodes: offsets ±1 and ±2.
	got := DonatedTargets(4, 9, 4, nil)
	want := map[int]bool{3: true, 5: true, 2: true, 6: true}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected donated target %d in %v", v, got)
		}
	}
}

func TestEvalWithPrefAndFixedTogether(t *testing.T) {
	g := graph.New(4)
	g.AddArc(1, 2, 1)
	g.AddArc(2, 3, 1)
	in := &Instance{
		Self:   0,
		Kind:   Additive,
		Direct: []float64{0, 5, 50, 50},
		Resid:  BuildResidScratch(g, 0, Additive, nil, nil),
		Pref:   []float64{0, 1, 2, 3},
		Fixed:  []int{1},
	}
	// Via fixed 1: d(0,1)=5, d(0,2)=6, d(0,3)=7.
	want := 1*5.0 + 2*6.0 + 3*7.0
	if got := in.Eval(nil); got != want {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestBestResponseRespectsFixedBudget(t *testing.T) {
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		for w := 1; w < 5; w++ {
			if v != w {
				g.AddArc(v, w, 10)
			}
		}
	}
	in := &Instance{
		Self:   0,
		Kind:   Additive,
		Direct: []float64{0, 1, 2, 3, 4},
		Resid:  BuildResidScratch(g, 0, Additive, nil, nil),
		Fixed:  []int{4},
	}
	chosen, _, err := BestResponse(in, 2, BROptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chosen {
		if c == 4 {
			t.Fatalf("fixed facility re-chosen: %v", chosen)
		}
	}
	if len(chosen) != 2 {
		t.Fatalf("chose %v, want 2 more on top of the fixed one", chosen)
	}
}
