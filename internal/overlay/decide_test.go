package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"egoist/internal/core"
	"egoist/internal/graph"
)

// TestDecideMatchesEngineSlot is the differential net between the
// daemon's epoch decision and the full engine's stagger slot. Both get
// the same announced wiring, direct estimates, alive mask (with nodes
// masked out), current wiring, policy and RNG seed. The daemon side is
// decide on its link-state view: every node's announced links except
// its own, inactive nodes' stale LSAs included, on a freshly reset
// forest. The engine side is core.Rewire on a forest that has served
// other slots: reset on the unmasked wiring, then brought to the
// engine's announced view (no arcs of or to inactive nodes) by one
// RemoveOut and CommitOut or RestoreOut per other node. Weights and
// estimates are small integers and zeros, so paths and best responses
// tie. Both sides must propose, adopt and install the same, and the
// daemon's residual matrix must equal core.BuildResidScratch of the
// same view, bit for bit.
func TestDecideMatchesEngineSlot(t *testing.T) {
	const n, k, trials = 12, 3, 32
	policies := []core.Policy{
		core.BRPolicy{}, core.BRPolicy{Donated: 2}, core.KClosest{},
		core.KRandom{}, core.KRegular{}, core.FullMesh{},
	}
	for _, p := range policies {
		for _, kind := range []core.CostKind{core.Additive, core.Bottleneck} {
			for _, eps := range []float64{0, 0.05} {
				name := fmt.Sprintf("%s/%v/eps=%v", p.Name(), kind, eps)
				t.Run(name, func(t *testing.T) {
					adopted := 0
					for trial := int64(0); trial < trials; trial++ {
						if decideMatchesEngine(t, p, kind, eps, n, k, trial) {
							adopted++
						}
					}
					t.Logf("%d of %d trials adopted", adopted, trials)
				})
			}
		}
	}
}

// decideMatchesEngine runs one trial of TestDecideMatchesEngineSlot and
// reports whether the proposal was adopted.
func decideMatchesEngine(t *testing.T, p core.Policy, kind core.CostKind, eps float64, n, k int, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	weight := func() float64 { return float64(rng.Intn(4)) }
	self := rng.Intn(n)
	if _, ok := p.(core.FullMesh); ok {
		k = n - 1
	}

	wiring := make([][]int, n)
	for u := range wiring {
		wiring[u] = rng.Perm(n)[:k]
	}
	arcW := make([][]float64, n)
	for u := range arcW {
		arcW[u] = make([]float64, n)
		for v := range arcW[u] {
			arcW[u][v] = weight()
		}
	}
	active := make([]bool, n)
	for v := range active {
		active[v] = v == self || rng.Intn(4) != 0
	}
	direct := make([]float64, n)
	for j := range direct {
		if j != self {
			direct[j] = weight()
		}
	}
	var others []int
	for _, v := range rng.Perm(n) {
		if v != self && active[v] {
			others = append(others, v)
		}
	}
	var cur []int
	switch {
	case seed == 0: // a first join
	case seed%4 == 1: // k random links, some to inactive nodes
		for _, v := range rng.Perm(n)[:k] {
			if v != self {
				cur = append(cur, v)
			}
		}
	case seed%4 == 2: // a re-joiner's bootstrap stub
		cur = append(cur, others[0])
	default: // a full wiring of alive links
		cur = append(cur, others[:min(k, len(others))]...)
	}
	sort.Ints(cur)
	wiring[self] = cur

	// The daemon's view: every LSA but its own, the inactive included.
	daemonView := graph.New(n)
	for u, ws := range wiring {
		for _, v := range ws {
			if u != self && v != u {
				daemonView.AddArc(u, v, arcW[u][v])
			}
		}
	}
	full := daemonView.Clone()
	for _, v := range cur {
		full.AddArc(self, v, arcW[self][v])
	}
	announced := func(u int) []graph.Arc {
		var arcs []graph.Arc
		for _, v := range wiring[u] {
			if active[u] && active[v] && v != u {
				arcs = append(arcs, graph.Arc{To: v, W: arcW[u][v]})
			}
		}
		return arcs
	}

	widest := kind == core.Bottleneck
	engineF := graph.NewSPForest()
	engineF.Reset(full, widest)
	for _, u := range rng.Perm(n) {
		if u == self {
			continue
		}
		engineF.RemoveOut(u)
		if arcs := announced(u); len(arcs) == len(wiring[u]) && rng.Intn(2) == 0 {
			engineF.RestoreOut()
		} else {
			engineF.CommitOut(arcs)
		}
	}
	engineReq := &core.Request{
		Self: self, K: k, Kind: kind, Direct: direct, Active: active,
		Rng: rand.New(rand.NewSource(seed + 100)), Scratch: &core.Scratch{},
	}
	engineD, err := core.Rewire(func() *graph.SPForest { return engineF }, p, eps, cur, engineReq)
	if err != nil {
		t.Fatalf("seed %d: engine slot: %v", seed, err)
	}

	cfg := &Config{ID: self, N: n, K: k, Kind: kind, Policy: p, Epsilon: eps}
	var daemonF graph.SPForest
	daemonD, err := decide(&daemonF, daemonView.Clone(), cfg, direct, active, cur,
		rand.New(rand.NewSource(seed+100)), &core.Scratch{})
	if err != nil {
		t.Fatalf("seed %d: daemon decision: %v", seed, err)
	}
	if !reflect.DeepEqual(engineD, daemonD) {
		t.Fatalf("seed %d (self %d, cur %v, active %v): engine decided %+v, daemon %+v",
			seed, self, cur, active, engineD, daemonD)
	}
	if engineD.Cut {
		want := core.BuildResidScratch(daemonView, self, kind, active, nil)
		sameBits(t, seed, "daemon", daemonF.Dist(), want)
		sameBits(t, seed, "engine", engineF.Dist(), want)
	}
	return engineD.Adopted
}

func sameBits(t *testing.T, seed int64, side string, got, want [][]float64) {
	t.Helper()
	for s := range want {
		for d := range want[s] {
			if math.Float64bits(got[s][d]) != math.Float64bits(want[s][d]) {
				t.Fatalf("seed %d: %s residual[%d][%d] = %v, BuildResidScratch %v", seed, side, s, d, got[s][d], want[s][d])
			}
		}
	}
}
