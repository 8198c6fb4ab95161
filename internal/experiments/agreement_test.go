package experiments

import (
	"slices"
	"testing"

	"egoist/internal/core"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/topology"
	"egoist/internal/underlay"
)

// TestEnginesAgreeInCost runs both epoch engines on one underlay: the
// scale engine at full roster (uniform sample of all n−1 destinations,
// so every destination is certain) and the full engine's BR over a
// frozen trace of the same delays. Their converged wirings are priced
// with TrueScaleCost. The engines take different stagger orders and the
// full engine prices probed estimates, so their trajectories — and
// nearly every wiring row — differ; what they must share is the cost
// they converge to.
func TestEnginesAgreeInCost(t *testing.T) {
	const k = 3
	for _, n := range []int{50, 100} {
		for seed := int64(1); seed <= 2; seed++ {
			net, err := underlay.NewLite(n, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			scale, err := sim.RunScale(sim.ScaleConfig{
				N: n, K: k, Seed: seed, Net: net,
				Sample:    sampling.Spec{Strategy: sampling.Uniform, M: n - 1},
				MaxEpochs: 8, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			delays := topology.NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						delays[i][j] = net.Delay(i, j)
					}
				}
			}
			trace, err := sim.NewTraceNetwork(delays, 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			full, err := sim.Run(sim.Config{
				N: n, K: k, Seed: seed, Metric: sim.DelayPing,
				Policy: core.BRPolicy{}, Network: trace,
				WarmEpochs: 6, MeasureEpochs: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			scaleCost := TrueScaleCost(net, scale.Wiring)
			fullCost := TrueScaleCost(net, full.FinalWiring)
			same := 0
			for i := 0; i < n; i++ {
				if slices.Equal(scale.Wiring[i], full.FinalWiring[i]) {
					same++
				}
			}
			ratio := scaleCost / fullCost
			t.Logf("n=%d seed=%d: scale %.2f, full %.2f, ratio %.4f, identical rows %d of %d", n, seed, scaleCost, fullCost, ratio, same, n)
			if ratio < 0.90 || ratio > 1.10 {
				t.Errorf("n=%d seed=%d: scale/full true cost %.4f outside [0.90, 1.10]", n, seed, ratio)
			}
		}
	}
}
