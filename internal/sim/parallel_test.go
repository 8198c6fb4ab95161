package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"egoist/internal/cheat"
	"egoist/internal/churn"
	"egoist/internal/core"
)

// eqFloat treats NaN as equal to NaN (dead nodes report NaN costs) and is
// otherwise exact: the engines must agree bit for bit, not approximately.
func eqFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func eqFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diffResults returns a description of the first field where two Results
// diverge, or "" when they are byte-identical (modulo NaN == NaN).
func diffResults(a, b *Result) string {
	switch {
	case a.Cost != b.Cost:
		return fmt.Sprintf("Cost %+v vs %+v", a.Cost, b.Cost)
	case !eqFloats(a.PerNodeCost, b.PerNodeCost):
		return fmt.Sprintf("PerNodeCost %v vs %v", a.PerNodeCost, b.PerNodeCost)
	case a.Efficiency != b.Efficiency:
		return fmt.Sprintf("Efficiency %+v vs %+v", a.Efficiency, b.Efficiency)
	case !eqFloats(a.PerNodeEfficiency, b.PerNodeEfficiency):
		return fmt.Sprintf("PerNodeEfficiency %v vs %v", a.PerNodeEfficiency, b.PerNodeEfficiency)
	case !reflect.DeepEqual(a.Rewires.PerEpoch(), b.Rewires.PerEpoch()):
		return fmt.Sprintf("Rewires %v vs %v", a.Rewires.PerEpoch(), b.Rewires.PerEpoch())
	case !reflect.DeepEqual(a.FinalWiring, b.FinalWiring):
		return fmt.Sprintf("FinalWiring %v vs %v", a.FinalWiring, b.FinalWiring)
	case !reflect.DeepEqual(a.ProbeBits, b.ProbeBits):
		return fmt.Sprintf("ProbeBits %v vs %v", a.ProbeBits, b.ProbeBits)
	case a.LSABits != b.LSABits:
		return fmt.Sprintf("LSABits %v vs %v", a.LSABits, b.LSABits)
	case a.EpochsRun != b.EpochsRun:
		return fmt.Sprintf("EpochsRun %v vs %v", a.EpochsRun, b.EpochsRun)
	case a.WeightedCost != b.WeightedCost:
		return fmt.Sprintf("WeightedCost %+v vs %+v", a.WeightedCost, b.WeightedCost)
	}
	return ""
}

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

// workerDeterminismConfigs spans the policy/metric/feature matrix the
// engine supports; every entry must produce deep-equal Results at any
// worker count.
func workerDeterminismConfigs() map[string]Config {
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
		"kRandom/cycle":  base(core.KRandom{}),
		"kClosest/cycle": base(core.KClosest{}),
		"kRegular":       base(core.KRegular{}),
		"BR/churn/immed": base(core.BRPolicy{}),
		// Two larger rows: churn under the ε gate, whose clean epochs
		// let Workers 8 speculate, and the bottleneck algebra under
		// HybridBR's backbone repairs, which rebuild the live forest.
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

// TestWorkerCountDoesNotChangeResults is the engine's core determinism
// contract: a fixed seed yields deep-equal Results whether the
// best-response phase runs sequentially (Workers: 1) or speculatively over
// a pool (Workers: 8). Run with -race this also exercises the pool for
// data races across the full feature matrix.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	for name, cfg := range workerDeterminismConfigs() {
		t.Run(name, func(t *testing.T) {
			seq := cfg
			seq.Workers = 1
			par := cfg
			par.Workers = 8
			a, err := Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(par)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(a, b); d != "" {
				t.Fatalf("Workers 1 vs 8 diverge: %s", d)
			}
		})
	}
}

// TestLiveForestTracksAnnouncedView runs every BR row of the determinism
// matrix with the checkLive probe on: after each slot that edited the
// live forest — a restored cut or a committed re-wiring, on the
// sequential path and after a clean speculative adoption — the forest
// must equal a from-scratch all-pairs computation of the announced view.
// This is the "live forest ≡ BuildResidScratch" contract the
// worker-count suite no longer pins on its own, now that Workers: 1
// prices on the forest too.
func TestLiveForestTracksAnnouncedView(t *testing.T) {
	for name, cfg := range workerDeterminismConfigs() {
		if _, ok := cfg.Policy.(core.BRPolicy); !ok {
			continue
		}
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				cfg := cfg
				cfg.Workers = workers
				cfg.checkLive = true
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzFullChurnSchedule plays byte-scripted churn schedules (churnScript,
// at 10..39 nodes) through the full engine with the checkLive probe on,
// so every membership event, backbone repair, immediate victim and
// adoption exercises the live forest's rebuild and commit paths. mode
// picks the variant: bit 0 HybridBR, bit 1 immediate repair, bit 2 the
// bottleneck algebra, bit 3 ε = 0.1. It requires no error, a departed
// node ending with no wiring, and deep-equal Results at workers 1 and 3.
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
		run := func(workers int) *Result {
			cfg.Workers = workers
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		ref := run(1)
		alive := append([]bool(nil), sched.InitialOn...)
		for _, ev := range sched.Events {
			if ev.Time < 3 {
				alive[ev.Node] = ev.On
			}
		}
		for u, w := range ref.FinalWiring {
			if !alive[u] && len(w) > 0 {
				t.Fatalf("departed node %d ended wired to %v", u, w)
			}
		}
		if d := diffResults(ref, run(3)); d != "" {
			t.Fatalf("workers 1 and 3 diverged: %s", d)
		}
	})
}

// TestIntermediateWorkerCountsAgree pins a few more pool shapes, including
// the NumCPU default (Workers: 0), against the sequential engine.
func TestIntermediateWorkerCountsAgree(t *testing.T) {
	cfg := Config{
		N: 18, K: 3, Seed: 5, Metric: DelayPing, Policy: core.BRPolicy{},
		WarmEpochs: 2, MeasureEpochs: 3, Workers: 1,
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 16} {
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(want, got); d != "" {
			t.Fatalf("Workers %d diverges from sequential: %s", workers, d)
		}
	}
}

// TestSpeculativeProposalsMatchSequentialSlots drives one epoch's proposal
// phase directly and checks the clean-slot equivalence invariant: with no
// churn and no prior adoption, every node's speculative proposal (forest
// residual, per-worker scratch) equals, bit for bit, what propose computes
// on a from-scratch residual of the untouched announced view — the wiring
// and both BR(ε) test values.
func TestSpeculativeProposalsMatchSequentialSlots(t *testing.T) {
	for _, metric := range []Metric{DelayPing, Bandwidth} {
		t.Run(metric.String(), func(t *testing.T) {
			cfg := Config{
				N: 16, K: 3, Seed: 9, Metric: metric, Policy: core.BRPolicy{},
				WarmEpochs: 0, MeasureEpochs: 1, Workers: 4,
			}
			st, err := newState(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st.cleanSlots = cfg.N // as after a clean epoch: speculate
			props, err := st.computeProposals(0)
			if err != nil {
				t.Fatal(err)
			}
			if props == nil {
				t.Fatal("no proposals at Workers: 4")
			}
			g := st.announcedGraph()
			for i := 0; i < cfg.N; i++ {
				spec := props[i]
				if spec.set == nil {
					t.Fatalf("active node %d got no proposal", i)
				}
				resid := core.BuildResidScratch(g, i, metric.Kind(), st.active, nil)
				seq, err := st.propose(i, 0, st.active, resid, st.wiring[i], &st.seq)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(spec.set, seq.set) {
					t.Fatalf("node %d: speculative %v != sequential %v", i, spec.set, seq.set)
				}
				if math.Float64bits(spec.curVal) != math.Float64bits(seq.curVal) ||
					math.Float64bits(spec.newVal) != math.Float64bits(seq.newVal) {
					t.Fatalf("node %d: speculative values (%v, %v) != sequential (%v, %v)",
						i, spec.curVal, spec.newVal, seq.curVal, seq.newVal)
				}
			}
		})
	}
}

// equalInts reports element-wise equality of two int slices.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEqualInts(t *testing.T) {
	if !equalInts(nil, nil) || !equalInts([]int{1, 2}, []int{1, 2}) {
		t.Fatal("equal slices reported unequal")
	}
	if equalInts([]int{1}, []int{2}) || equalInts([]int{1}, []int{1, 2}) {
		t.Fatal("unequal slices reported equal")
	}
}

// TestPolicyRNGIsStable pins the per-(epoch,node) RNG derivation: equal
// coordinates agree, distinct coordinates draw independently.
func TestPolicyRNGIsStable(t *testing.T) {
	a := policyRNG(42, 3, 7).Int63()
	if b := policyRNG(42, 3, 7).Int63(); a != b {
		t.Fatalf("same coordinates drew %d and %d", a, b)
	}
	seen := map[int64]bool{a: true}
	for _, coord := range [][2]int{{3, 8}, {4, 7}, {0, 0}, {-1, 7}} {
		v := policyRNG(42, coord[0], coord[1]).Int63()
		if seen[v] {
			t.Fatalf("coordinate %v collides with an earlier stream", coord)
		}
		seen[v] = true
	}
	// A worker re-seeds one generator per proposal instead of allocating
	// one: after draws of every kind the policies use, its next stream
	// must be policyRNG's, draw for draw.
	var ps policyStream
	for _, c := range []struct {
		seed        int64
		epoch, node int
	}{{42, 3, 7}, {42, 3, 7}, {42, 3, 8}, {7, -1, 0}, {-9, 1 << 20, 599}} {
		fresh, reused := policyRNG(c.seed, c.epoch, c.node), ps.at(c.seed, c.epoch, c.node)
		for d := 0; d < 8; d++ {
			if a, b := fresh.Int63(), reused.Int63(); a != b {
				t.Fatalf("%+v draw %d: Int63 %d fresh, %d re-seeded", c, d, a, b)
			}
			if a, b := fresh.Float64(), reused.Float64(); a != b {
				t.Fatalf("%+v draw %d: Float64 %v fresh, %v re-seeded", c, d, a, b)
			}
		}
		pa, pb := make([]int, 10), make([]int, 10)
		for x := range pa {
			pa[x], pb[x] = x, x
		}
		fresh.Shuffle(len(pa), func(x, y int) { pa[x], pa[y] = pa[y], pa[x] })
		reused.Shuffle(len(pb), func(x, y int) { pb[x], pb[y] = pb[y], pb[x] })
		if !equalInts(pa, pb) {
			t.Fatalf("%+v: Shuffle %v fresh, %v re-seeded", c, pa, pb)
		}
	}
}
