package sim

import (
	"testing"

	"egoist/internal/cheat"
	"egoist/internal/churn"
	"egoist/internal/core"
)

// testChurn builds a small deterministic membership schedule.
func testChurn(n int) *churn.Schedule {
	sched, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: n, Horizon: 10,
		On:   churn.Exponential{Mean: 4},
		Off:  churn.Exponential{Mean: 1.5},
		Seed: 19,
	})
	if err != nil {
		panic(err)
	}
	return sched
}

// liveForestConfigs spans the BR policy/metric/feature matrix of the
// full engine: every path that edits or rebuilds the live forest.
func liveForestConfigs() map[string]Config {
	n := 20
	base := func(p core.Policy) Config {
		return Config{
			N: n, K: 3, Seed: 77, Metric: DelayPing, Policy: p,
			WarmEpochs: 3, MeasureEpochs: 4,
		}
	}
	cfgs := map[string]Config{
		"BR/delay":       base(core.BRPolicy{}),
		"BR/epsilon":     base(core.BRPolicy{}),
		"BR/bandwidth":   base(core.BRPolicy{}),
		"BR/load":        base(core.BRPolicy{}),
		"BR/churn":       base(core.BRPolicy{}),
		"BR/cheat":       base(core.BRPolicy{}),
		"BR/pref":        base(core.BRPolicy{}),
		"HybridBR/churn": base(core.BRPolicy{Donated: 2}),
		"BR/churn/immed": base(core.BRPolicy{}),
		// Two larger rows: churn under the ε gate, whose slots mostly
		// restore their cut, and the bottleneck algebra under HybridBR's
		// backbone repairs, which rebuild the live forest.
		"BR/epsilon/churn":   base(core.BRPolicy{}),
		"HybridBR/bandwidth": base(core.BRPolicy{Donated: 2}),
	}
	for name, cfg := range cfgs {
		switch name {
		case "BR/epsilon":
			cfg.Epsilon = 0.1
		case "BR/bandwidth":
			cfg.Metric = Bandwidth
		case "BR/load":
			cfg.Metric = Load
		case "BR/churn", "HybridBR/churn":
			cfg.Churn = testChurn(cfg.N)
		case "BR/churn/immed":
			cfg.Churn = testChurn(cfg.N)
			cfg.Immediate = true
		case "BR/cheat":
			cfg.Cheat = cheat.Single(cfg.N, 4, 2)
		case "BR/pref":
			cfg.PrefAt = staticPref(func(i, j int) float64 { return 1 + float64((i+j)%5) })
		case "BR/epsilon/churn":
			cfg.N, cfg.Epsilon = 40, 0.1
			cfg.Churn = testChurn(cfg.N)
		case "HybridBR/bandwidth":
			cfg.N, cfg.K, cfg.Metric = 30, 4, Bandwidth
		}
		cfgs[name] = cfg
	}
	return cfgs
}

// TestLiveForestTracksAnnouncedView runs every row of liveForestConfigs
// with the checkLive probe on: after each slot that edited the live
// forest — a restored cut or a committed re-wiring — the forest must
// equal a from-scratch all-pairs computation of the announced view.
func TestLiveForestTracksAnnouncedView(t *testing.T) {
	for name, cfg := range liveForestConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.checkLive = true
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzFullChurnSchedule plays byte-scripted churn schedules (churnScript,
// at 10..39 nodes) through the full engine with the checkLive probe on,
// so every membership event, backbone repair, immediate victim and
// adoption exercises the live forest's rebuild and commit paths. mode
// picks the variant: bit 0 HybridBR, bit 1 immediate repair, bit 2 the
// bottleneck algebra, bit 3 ε = 0.1. It requires no error and a departed
// node ending with no wiring.
func FuzzFullChurnSchedule(f *testing.F) {
	f.Add(uint8(0), []byte{20, 4, 0, 3, 4, 9, 1, 3, 5, 11, 8, 40})
	f.Add(uint8(3), []byte{12, 9, 0, 0, 0, 1, 0, 2, 0, 3, 1, 38, 1, 39, 1, 3})
	f.Add(uint8(14), []byte{0, 0, 2, 5, 12, 6, 0, 7, 13, 7, 2, 7})
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		sched := churnScript(data, 10, 30)
		cfg := Config{
			N: sched.N, K: 3, Seed: 7, Metric: DelayPing, Policy: core.BRPolicy{},
			WarmEpochs: 1, MeasureEpochs: 2, Churn: sched, checkLive: true,
		}
		if mode&1 != 0 {
			cfg.Policy = core.BRPolicy{Donated: 2}
		}
		cfg.Immediate = mode&2 != 0
		if mode&4 != 0 {
			cfg.Metric = Bandwidth
		}
		if mode&8 != 0 {
			cfg.Epsilon = 0.1
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		alive := append([]bool(nil), sched.InitialOn...)
		for _, ev := range sched.Events {
			if ev.Time < 3 {
				alive[ev.Node] = ev.On
			}
		}
		for u, w := range res.FinalWiring {
			if !alive[u] && len(w) > 0 {
				t.Fatalf("departed node %d ended wired to %v", u, w)
			}
		}
	})
}
