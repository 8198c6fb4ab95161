package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"egoist/internal/graph"
)

func TestAggWorstPrefersBalancedFacility(t *testing.T) {
	// Candidate 1: distances {1, 100}. Candidate 2: distances {40, 41}.
	// Sum prefers 1 (101 < 81? no -> 2). Make sums favor 1: {1, 70} sum=71
	// vs {40, 41} sum=81; worst favors 2: max 70 vs 41.
	g := graph.New(5)
	g.AddArc(1, 3, 0.5)
	g.AddArc(1, 4, 69.5)
	g.AddArc(2, 3, 39.5)
	g.AddArc(2, 4, 40.5)
	direct := []float64{0, 0.5, 0.5, 999, 999}
	mk := func(agg AggKind) *Instance {
		return &Instance{
			Self: 0, Kind: Additive, Direct: direct,
			Resid:      BuildResidScratch(g, 0, Additive, nil, nil),
			Candidates: []int{1, 2},
			Dests:      []int{3, 4},
			Agg:        agg,
		}
	}
	sumSet, _, err := BestResponse(mk(AggSum), 1, BROptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	worstSet, _, err := BestResponse(mk(AggWorst), 1, BROptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if sumSet[0] != 1 {
		t.Fatalf("AggSum chose %v, want [1]", sumSet)
	}
	if worstSet[0] != 2 {
		t.Fatalf("AggWorst chose %v, want [2]", worstSet)
	}
}

func TestAggWorstBottleneckMaximizesMinBandwidth(t *testing.T) {
	// Candidate 1: bottlenecks {100, 1}; candidate 2: {30, 30}.
	g := graph.New(5)
	g.AddArc(1, 3, 100)
	g.AddArc(1, 4, 1)
	g.AddArc(2, 3, 30)
	g.AddArc(2, 4, 30)
	direct := []float64{0, 1000, 1000, 0.01, 0.01}
	mk := func(agg AggKind) *Instance {
		return &Instance{
			Self: 0, Kind: Bottleneck, Direct: direct,
			Resid:      BuildResidScratch(g, 0, Bottleneck, nil, nil),
			Candidates: []int{1, 2},
			Dests:      []int{3, 4},
			Agg:        agg,
		}
	}
	sumSet, _, err := BestResponse(mk(AggSum), 1, BROptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	worstSet, _, err := BestResponse(mk(AggWorst), 1, BROptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if sumSet[0] != 1 {
		t.Fatalf("AggSum (total bw) chose %v, want [1]", sumSet)
	}
	if worstSet[0] != 2 {
		t.Fatalf("AggWorst (max-min bw) chose %v, want [2]", worstSet)
	}
}

// Property: local search matches exact BR reasonably under AggWorst too.
func TestAggWorstLocalSearchNearExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		in := randomInstance(rng, n, Additive)
		in.Agg = AggWorst
		k := 1 + rng.Intn(2)
		_, approxVal, err := BestResponse(in, k, BROptions{})
		if err != nil {
			return false
		}
		_, exactVal, err := BestResponse(in, k, BROptions{Exact: true})
		if err != nil {
			return false
		}
		// Exact must be no worse; the quality bound only applies when the
		// approximation found a connected wiring (a worst-case objective
		// has plateaus where single swaps cannot escape disconnection).
		if Additive.better(approxVal, exactVal) && approxVal < exactVal-1e-9 {
			return false
		}
		if approxVal >= DisconnectedPenalty {
			return true
		}
		return approxVal <= exactVal*1.5+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAggStrings(t *testing.T) {
	if AggSum.String() != "sum" || AggWorst.String() != "worst" {
		t.Fatal("AggKind strings wrong")
	}
	if AggKind(9).String() == "" {
		t.Fatal("unknown AggKind should still print")
	}
}
