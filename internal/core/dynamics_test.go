package core

import (
	"math/rand"
	"testing"

	"egoist/internal/graph"
)

// runBRDynamics plays rounds of best-response dynamics over a static cost
// matrix until no node re-wires or maxRounds elapse. It returns the number
// of rounds until quiescence, or -1 if it never settled.
func runBRDynamics(t *testing.T, cost [][]float64, k, maxRounds int) (int, [][]int) {
	t.Helper()
	n := len(cost)
	wiring := make([][]int, n)
	// Start from a ring so the graph is connected.
	for v := 0; v < n; v++ {
		wiring[v] = []int{(v + 1) % n}
	}
	build := func() *graph.Digraph {
		g := graph.New(n)
		for v, ws := range wiring {
			for _, w := range ws {
				g.AddArc(v, w, cost[v][w])
			}
		}
		return g
	}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for v := 0; v < n; v++ {
			inst := &Instance{
				Self:   v,
				Kind:   Additive,
				Direct: cost[v],
				Resid:  BuildResidScratch(build(), v, Additive, nil, nil),
			}
			chosen, newVal, err := BestResponse(inst, k, BROptions{})
			if err != nil {
				t.Fatal(err)
			}
			curVal := inst.Eval(wiring[v])
			if shouldRewire(Additive, curVal, newVal, 0) {
				wiring[v] = chosen
				changed = true
			}
		}
		if !changed {
			return round, wiring
		}
	}
	return -1, wiring
}

// TestBRDynamicsReachStableWirings exercises the paper's premise (from the
// SNS game [21,20]): under static conditions, best-response dynamics with
// uniform preferences settle quickly into a stable wiring — a pure Nash
// equilibrium of the game restricted to the local-search strategy space.
func TestBRDynamicsReachStableWirings(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				if i != j {
					cost[i][j] = 1 + rng.Float64()*50
				}
			}
		}
		rounds, wiring := runBRDynamics(t, cost, 3, 30)
		if rounds < 0 {
			t.Fatalf("seed %d: BR dynamics did not settle in 30 rounds", seed)
		}
		// The settled overlay must be strongly connected: disconnection
		// carries the penalty, so any stable state is connected.
		g := graph.New(n)
		for v, ws := range wiring {
			for _, w := range ws {
				g.AddArc(v, w, 1)
			}
		}
		if !graph.StronglyConnected(g, nil) {
			t.Fatalf("seed %d: stable wiring disconnected", seed)
		}
	}
}

// TestBRDynamicsStableStateIsLocalOptimum verifies that in the settled
// state no node can improve by a local-search re-wiring — the "near
// equilibria in the Nash sense" the paper builds on.
func TestBRDynamicsStableStateIsLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 10
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 1 + rng.Float64()*30
			}
		}
	}
	rounds, wiring := runBRDynamics(t, cost, 2, 40)
	if rounds < 0 {
		t.Skip("dynamics cycled on this instance (non-uniform games may lack equilibria)")
	}
	g := graph.New(n)
	for v, ws := range wiring {
		for _, w := range ws {
			g.AddArc(v, w, cost[v][w])
		}
	}
	for v := 0; v < n; v++ {
		inst := &Instance{
			Self:   v,
			Kind:   Additive,
			Direct: cost[v],
			Resid:  BuildResidScratch(g, v, Additive, nil, nil),
		}
		_, newVal, err := BestResponse(inst, 2, BROptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cur := inst.Eval(wiring[v]); newVal < cur-1e-9 {
			t.Fatalf("node %d can still improve: %v -> %v", v, cur, newVal)
		}
	}
}
