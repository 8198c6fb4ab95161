package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/sampling"
)

// TestScaleKeepCertificate runs the checkKeep probe across the three
// sampling strategies, three ε and a static and a churned overlay: every
// proposal the keep bound certifies is solved as well, and the run fails
// if the gate would have adopted the solved wiring. Each strategy must
// certify at least once, so the net cannot pass by never firing.
func TestScaleKeepCertificate(t *testing.T) {
	const n = 300
	sched, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: n, Horizon: 4,
		On:   churn.Exponential{Mean: 4},
		Off:  churn.Exponential{Mean: 1.5},
		Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := func(i, j int) float64 { return 1 + float64((i+2*j)%5) }
	for _, st := range []sampling.Strategy{sampling.Demand, sampling.Uniform, sampling.Stratified} {
		var certified int64
		for _, eps := range []float64{0.01, 0.05, 0.2} {
			for _, churned := range []bool{false, true} {
				cfg := ScaleConfig{
					N: n, K: 4, Seed: 17, Epsilon: eps,
					Sample:    sampling.Spec{Strategy: st, M: 50},
					MaxEpochs: 4, Workers: 2,
					probe: &scaleProbe{checkKeep: true},
				}
				if churned {
					cfg.Churn, cfg.ConvergedFrac = sched, -1
					cfg.DemandAt = func(int) func(i, j int) float64 { return hot }
				}
				name := fmt.Sprintf("%v/eps=%v/churn=%v", st, eps, churned)
				if _, err := RunScale(cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				certified += cfg.probe.certified.Load()
			}
		}
		if certified == 0 {
			t.Errorf("%v: the keep bound never certified a proposal", st)
		}
		t.Logf("%v: %d proposals certified", st, certified)
	}
}

// TestScaleProposeCounts pins the Kept/Solved split on propose events:
// per epoch they add up to the proposers that acted, the bound keeps some
// wirings after the bootstrap epoch, and the counts do not depend on the
// worker count.
func TestScaleProposeCounts(t *testing.T) {
	counts := func(workers int) (kept, solved []int, res *ScaleResult) {
		cfg := churnHeavyConfig(workers)
		cfg.OnPhase = func(ev PhaseEvent) {
			if ev.Phase != "propose" {
				return
			}
			for len(kept) <= ev.Epoch {
				kept, solved = append(kept, 0), append(solved, 0)
			}
			kept[ev.Epoch] += ev.Kept
			solved[ev.Epoch] += ev.Solved
		}
		res, err := RunScale(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return kept, solved, res
	}
	kept, solved, res := counts(1)
	if len(kept) != len(res.PerEpoch) {
		t.Fatalf("propose events cover %d epochs, the run %d", len(kept), len(res.PerEpoch))
	}
	total := 0
	for e, ep := range res.PerEpoch {
		if kept[e]+solved[e] != ep.Acted {
			t.Fatalf("epoch %d: kept %d + solved %d != acted %d", e, kept[e], solved[e], ep.Acted)
		}
		total += kept[e]
	}
	if total == 0 {
		t.Fatal("no proposal was kept on the bound")
	}
	kept3, solved3, _ := counts(3)
	if fmt.Sprint(kept, solved) != fmt.Sprint(kept3, solved3) {
		t.Fatalf("Workers 1 kept/solved %v/%v, Workers 3 %v/%v", kept, solved, kept3, solved3)
	}
}

// TestProposeKeptAllocs is the allocation gate of a kept proposal: on a
// warm worker, a demand-weighted, demand-sampled proposal that the keep
// bound settles without a solve allocates nothing — not the draw, its
// certainty merge, the nearest scans, the block nor the bound — both for
// a directory member and for a proposer that runs the seeded Dijkstra.
func TestProposeKeptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := scaleConvergeConfig(t)
	hot := func(i, j int) float64 { return 1 + float64((i+2*j)%5) }
	cfg.DemandAt = func(int) func(i, j int) float64 { return hot }
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// The settled overlay, its directory rebuilt as the next epoch would.
	epoch := res.Epochs
	eng := &scaleEngine{c: &c, wiring: res.Wiring, active: make([]bool, c.N)}
	for i := range eng.active {
		eng.active[i] = true
	}
	eng.near, _ = c.Net.(nearBound)
	eng.rebuildAlive()
	eng.pool = newScalePool(&c, eng.wiring, 1)
	eng.pool.rebuild(&c, eng, epoch, 1)
	var w scaleWorker
	gated := map[bool]bool{} // by directory membership
	for i := 0; i < c.N && len(gated) < 2; i++ {
		p, err := c.proposeScale(&w, eng, epoch, i, hot)
		if err != nil {
			t.Fatal(err)
		}
		member := eng.pool.dir.Row(i) != nil
		if !p.kept || gated[member] {
			continue
		}
		gated[member] = true
		if allocs := testing.AllocsPerRun(20, func() { _, _ = c.proposeScale(&w, eng, epoch, i, hot) }); allocs != 0 {
			t.Errorf("kept proposal of node %d (member %v): %v allocations, want 0", i, member, allocs)
		}
	}
	if len(gated) < 2 {
		t.Fatalf("kept proposals found for membership %v only", gated)
	}
}

// TestBootstrapWiringAllocs: a bootstrap, at epoch -1 or on a join,
// draws its probe into the caller's sample and checks its picks against
// the wiring so far, so once that sample has grown it allocates only the
// wiring it returns.
func TestBootstrapWiringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := scaleConvergeConfig(t)
	c, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, c.N)
	for i := range ids {
		ids[i] = i
	}
	var probe sampling.DestSample
	rng := rand.New(rand.NewSource(3))
	c.bootstrapWiring(&probe, rng, 0, ids, nil)
	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		i = (i + 1) % c.N
		if w := c.bootstrapWiring(&probe, rng, i, ids, nil); len(w) != c.K {
			t.Fatalf("node %d wired %v, want %d links", i, w, c.K)
		}
	}); allocs != 1 {
		t.Errorf("a bootstrap allocates %v times, want 1 (its wiring)", allocs)
	}
}
