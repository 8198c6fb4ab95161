package sim

import (
	"math"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/core"
)

// heavyChurn builds an aggressive schedule for repair-mode comparisons.
func heavyChurn(t *testing.T, n int, horizon float64) *churn.Schedule {
	t.Helper()
	s, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: n, Horizon: horizon,
		On:   churn.Exponential{Mean: 2},
		Off:  churn.Exponential{Mean: 0.7},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestImmediateModeImprovesEfficiencyUnderChurn(t *testing.T) {
	base := Config{
		N: 24, K: 3, Seed: 5, Metric: DelayPing, Policy: core.BRPolicy{},
		WarmEpochs: 2, MeasureEpochs: 10,
		Churn: heavyChurn(t, 24, 12),
	}
	delayed := run(t, base)
	imm := base
	imm.Immediate = true
	immediate := run(t, imm)
	if immediate.Efficiency.Mean < delayed.Efficiency.Mean {
		t.Fatalf("immediate repair efficiency %.5f below delayed %.5f",
			immediate.Efficiency.Mean, delayed.Efficiency.Mean)
	}
}

func TestImmediateModeCostsMoreRewirings(t *testing.T) {
	base := Config{
		N: 24, K: 3, Seed: 5, Metric: DelayPing, Policy: core.BRPolicy{},
		WarmEpochs: 0, MeasureEpochs: 12,
		Churn: heavyChurn(t, 24, 12),
	}
	delayed := run(t, base)
	imm := base
	imm.Immediate = true
	immediate := run(t, imm)
	sum := func(per []int) int {
		total := 0
		for _, v := range per {
			total += v
		}
		return total
	}
	if sum(immediate.Rewires.PerEpoch()) < sum(delayed.Rewires.PerEpoch()) {
		t.Fatalf("immediate mode should re-wire at least as much: %d vs %d",
			sum(immediate.Rewires.PerEpoch()), sum(delayed.Rewires.PerEpoch()))
	}
}

// skewPref concentrates preference on destination 0 (90%) and spreads the
// rest uniformly — the skew footnote 8 says BR can exploit — the same
// every epoch.
func skewPref(n int) func(epoch int) func(i, j int) float64 {
	return staticPref(func(i, j int) float64 {
		if j == 0 {
			return 0.9 * float64(n-1)
		}
		return 0.1 * float64(n-1) / float64(n-2)
	})
}

// staticPref is the constant case of PrefAt / DemandAt: one preference
// function for every epoch.
func staticPref(pref func(i, j int) float64) func(epoch int) func(i, j int) float64 {
	return func(int) func(i, j int) float64 { return pref }
}

func TestPreferenceAwareBRBeatsUniformBROnWeightedCost(t *testing.T) {
	n := 24
	pref := skewPref(n)
	// Preference-aware BR optimizes the skewed objective directly.
	aware := run(t, Config{
		N: n, K: 2, Seed: 6, Metric: DelayPing, Policy: core.BRPolicy{},
		WarmEpochs: 6, MeasureEpochs: 4, PrefAt: pref,
	})
	if aware.WeightedCost.N == 0 {
		t.Fatal("weighted cost not reported")
	}
	// A preference-blind policy measured under the same skewed workload.
	blind := run(t, Config{
		N: n, K: 2, Seed: 6, Metric: DelayPing, Policy: core.KClosest{},
		WarmEpochs: 6, MeasureEpochs: 4, PrefAt: pref,
	})
	if aware.WeightedCost.Mean >= blind.WeightedCost.Mean {
		t.Fatalf("preference-aware BR weighted cost %.0f not below preference-blind %.0f",
			aware.WeightedCost.Mean, blind.WeightedCost.Mean)
	}
}

func TestWeightedCostAbsentWithoutPref(t *testing.T) {
	res := run(t, baseCfg(core.BRPolicy{}))
	if res.WeightedCost.N != 0 {
		t.Fatalf("WeightedCost reported without PrefAt: %+v", res.WeightedCost)
	}
}

func TestPrefDeterminism(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{})
	cfg.PrefAt = skewPref(cfg.N)
	a := run(t, cfg)
	b := run(t, cfg)
	if a.WeightedCost.Mean != b.WeightedCost.Mean || math.IsNaN(a.WeightedCost.Mean) {
		t.Fatalf("weighted cost not deterministic: %v vs %v", a.WeightedCost.Mean, b.WeightedCost.Mean)
	}
}
