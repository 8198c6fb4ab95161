package sim

import (
	"math"
	"reflect"
	"testing"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/sampling"
	"egoist/internal/underlay"
)

// stripWall zeroes the wall-clock fields so results can be compared
// byte-for-byte.
func stripWall(r *ScaleResult) *ScaleResult {
	out := *r
	out.PerEpoch = append([]ScaleEpoch(nil), r.PerEpoch...)
	for i := range out.PerEpoch {
		out.PerEpoch[i].WallNS = 0
	}
	return &out
}

// TestScaleDeterministicAcrossWorkers is the sampled-mode determinism
// contract: Workers 1 and Workers 8 must produce byte-identical results.
func TestScaleDeterministicAcrossWorkers(t *testing.T) {
	for _, spec := range []sampling.Spec{
		{Strategy: sampling.Uniform, M: 25},
		{Strategy: sampling.Demand, M: 25},
		{Strategy: sampling.Stratified, M: 25},
	} {
		base := ScaleConfig{
			N: 120, K: 3, Seed: 11, Sample: spec, MaxEpochs: 4,
			Demand: func(i, j int) float64 { return 1 + float64((i+j)%5) },
		}
		cfgA := base
		cfgA.Workers = 1
		cfgB := base
		cfgB.Workers = 8
		a, err := RunScale(cfgA)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		b, err := RunScale(cfgB)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
			t.Fatalf("%v: Workers 1 vs 8 diverged", spec)
		}
	}
}

// TestScaleConverges checks the dynamics settle: the rewire count at the
// end is a small fraction of the population and the estimated cost does
// not degrade from the bootstrap wiring.
func TestScaleConverges(t *testing.T) {
	res, err := RunScale(ScaleConfig{
		N: 200, K: 3, Seed: 5,
		Sample:    sampling.Spec{Strategy: sampling.Demand, M: 40},
		MaxEpochs: 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs run")
	}
	last := res.PerEpoch[res.Epochs-1]
	if !res.Converged && last.Rewires > 200/5 {
		t.Errorf("still re-wiring heavily after %d epochs: %d nodes", res.Epochs, last.Rewires)
	}
	first := res.PerEpoch[0]
	if last.MeanEstCost > first.MeanEstCost*1.05 {
		t.Errorf("estimated cost degraded: %f -> %f", first.MeanEstCost, last.MeanEstCost)
	}
	for i, w := range res.Wiring {
		if len(w) == 0 || len(w) > 3 {
			t.Fatalf("node %d wiring has %d links", i, len(w))
		}
	}
}

// trueSocialCost computes the exact full-roster mean per-node routing
// cost of a wiring over the given net (only feasible at test sizes).
func trueSocialCost(net ScaleNet, wiring [][]int) float64 {
	n := net.N()
	g := graph.New(n)
	for u, ws := range wiring {
		for _, v := range ws {
			g.AddArc(u, v, net.Delay(u, v))
		}
	}
	dist := graph.APSP(g)
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := dist[i][j]
			if math.IsInf(d, 1) {
				d = core.DisconnectedPenalty
			}
			total += d
		}
	}
	return total / float64(n)
}

// TestScaleSampledNearFull compares the sampled dynamics' true social
// cost against full-roster dynamics (sample = whole roster) at a size
// where both run: the sampled overlay must stay within a modest factor.
func TestScaleSampledNearFull(t *testing.T) {
	net, err := underlay.NewLite(150, 99)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunScale(ScaleConfig{
		N: 150, K: 3, Seed: 7, Net: net,
		Sample:    sampling.Spec{Strategy: sampling.Uniform, M: 149},
		MaxEpochs: 6, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunScale(ScaleConfig{
		N: 150, K: 3, Seed: 7, Net: net,
		Sample:    sampling.Spec{Strategy: sampling.Demand, M: 35},
		MaxEpochs: 6, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cf := trueSocialCost(net, full.Wiring)
	cs := trueSocialCost(net, sampled.Wiring)
	if cs > cf*1.6 {
		t.Errorf("sampled overlay cost %f vs full %f (ratio %.2f)", cs, cf, cs/cf)
	}
	if cf >= core.DisconnectedPenalty || cs >= core.DisconnectedPenalty {
		t.Errorf("overlay disconnected: full %f sampled %f", cf, cs)
	}
}

// TestScaleRejectsBadConfig covers the validation paths.
func TestScaleRejectsBadConfig(t *testing.T) {
	bad := []ScaleConfig{
		{N: 2, K: 1, Sample: sampling.Spec{Strategy: sampling.Uniform, M: 5}},
		{N: 50, K: 0, Sample: sampling.Spec{Strategy: sampling.Uniform, M: 5}},
		{N: 50, K: 3, Sample: sampling.Spec{}},
		{N: 50, K: 5, Sample: sampling.Spec{Strategy: sampling.Uniform, M: 4}},
	}
	for i, cfg := range bad {
		if _, err := RunScale(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// BenchmarkScaleConverge is one call of the repository benchmark's
// scale-converge workload (n=600, k=8, demand:100, four epochs from the
// bootstrap wiring, two workers): the handle for profiling the proposal
// phase with -cpuprofile (README, "Where a proposal's time goes").
func BenchmarkScaleConverge(b *testing.B) {
	net, err := underlay.NewLite(600, 2009)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunScale(ScaleConfig{
			N: 600, K: 8, Seed: 7, Net: net,
			Sample:    sampling.Spec{Strategy: sampling.Demand, M: 100},
			MaxEpochs: 4, ConvergedFrac: -1, Workers: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
