// Package-level benchmarks: one testing.B benchmark per paper table/figure
// (regenerating its data series at Quick scale; use cmd/egoist-bench
// -scale full for paper-scale output), plus ablation benches for the
// engine's design choices.
package egoist

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/core"
	"egoist/internal/experiments"
	"egoist/internal/graph"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/topology"
)

// benchFigure runs a figure's experiment once per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	runner := experiments.Registry[id]
	if runner == nil {
		b.Fatalf("unknown figure %s", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := runner(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig1DelayPing(b *testing.B)             { benchFigure(b, "1a") }
func BenchmarkFig1DelayCoords(b *testing.B)           { benchFigure(b, "1b") }
func BenchmarkFig1Load(b *testing.B)                  { benchFigure(b, "1c") }
func BenchmarkFig1Bandwidth(b *testing.B)             { benchFigure(b, "1d") }
func BenchmarkFig2ChurnByK(b *testing.B)              { benchFigure(b, "2a") }
func BenchmarkFig2ChurnRate(b *testing.B)             { benchFigure(b, "2b") }
func BenchmarkFig3Rewirings(b *testing.B)             { benchFigure(b, "3a") }
func BenchmarkFig3BRTradeoff(b *testing.B)            { benchFigure(b, "3b") }
func BenchmarkFig3BREpsilon(b *testing.B)             { benchFigure(b, "3c") }
func BenchmarkFig4OneFreeRider(b *testing.B)          { benchFigure(b, "4a") }
func BenchmarkFig4ManyFreeRiders(b *testing.B)        { benchFigure(b, "4b") }
func BenchmarkFig5SamplingBRGraph(b *testing.B)       { benchFigure(b, "5") }
func BenchmarkFig6SamplingKRandomGraph(b *testing.B)  { benchFigure(b, "6") }
func BenchmarkFig7SamplingKRegularGraph(b *testing.B) { benchFigure(b, "7") }
func BenchmarkFig8SamplingKClosestGraph(b *testing.B) { benchFigure(b, "8") }
func BenchmarkFig10Multipath(b *testing.B)            { benchFigure(b, "10") }
func BenchmarkFig11DisjointPaths(b *testing.B)        { benchFigure(b, "11") }
func BenchmarkOverheadAccounting(b *testing.B)        { benchFigure(b, "overhead") }

// --- micro-benchmarks of the core machinery --------------------------------

// brInstance builds a representative best-response instance of size n.
func brInstance(n int, seed int64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for _, w := range []int{(u + 1) % n, (u + 7) % n, (u + n/2) % n} {
			if w != u {
				g.AddArc(u, w, 1+rng.Float64()*40)
			}
		}
	}
	direct := make([]float64, n)
	for j := 1; j < n; j++ {
		direct[j] = 1 + rng.Float64()*40
	}
	return &core.Instance{
		Self: 0, Kind: core.Additive, Direct: direct,
		Resid: core.BuildResidScratch(g, 0, core.Additive, nil, nil),
	}
}

// BenchmarkBestResponse50 measures one BR computation at deployment scale
// (n=50, k=5) — what every EGOIST node runs once per wiring epoch.
func BenchmarkBestResponse50(b *testing.B) {
	in := brInstance(50, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BestResponse(in, 5, core.BROptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestResponse295 measures BR at the paper's simulation scale.
func BenchmarkBestResponse295(b *testing.B) {
	in := brInstance(295, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BestResponse(in, 3, core.BROptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedEpoch measures a full 50-node simulation epoch
// (underlay step + probing + 50 staggered BR re-wirings + measurement).
func BenchmarkSimulatedEpoch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			N: 50, K: 5, Seed: 3, Metric: sim.DelayPing, Policy: core.BRPolicy{},
			WarmEpochs: 0, MeasureEpochs: 1, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestResponseScratch contrasts the allocating solver path with
// scratch reuse on a deployment-scale instance: the per-call Dijkstra
// heaps, per-destination arrays and membership sets all come from one
// reused Scratch in the second variant.
func BenchmarkBestResponseScratch(b *testing.B) {
	in := brInstance(50, 1)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BestResponse(in, 5, core.BROptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var s core.Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BestResponseScratch(in, 5, core.BROptions{}, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBestResponseParallel measures a multi-epoch BR simulation —
// dominated by the per-epoch best-response phase — on the sequential
// engine versus the speculative worker pool at NumCPU. The warm epochs
// exercise the fallback-heavy transient, the tail the fully speculative
// steady state; byte-identical results are pinned by the sim package's
// determinism tests.
func BenchmarkBestResponseParallel(b *testing.B) {
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := sim.Run(sim.Config{
				N: 64, K: 4, Seed: 9, Metric: sim.DelayPing, Policy: core.BRPolicy{},
				WarmEpochs: 6, MeasureEpochs: 2, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run(fmt.Sprintf("parallel-%d", runtime.NumCPU()), func(b *testing.B) { run(b, runtime.NumCPU()) })
}

// BenchmarkResidIncremental prices one epoch's worth of residual
// matrices three ways: a full APSP per node (BuildResidScratch, what the
// BR policy computes when handed no matrix); one shortest-path forest
// repaired per node and restored (SPForest.RemoveOut/RestoreOut, a slot
// that keeps its wiring); and the same forest with every node
// committing a changed out-set (SPForest.CommitOut, a slot that
// re-wires, the live forest's worst case). All produce bit-identical
// matrices; the forest pays one APSP up front and then only the
// affected-subtree repairs and insertions.
func BenchmarkResidIncremental(b *testing.B) {
	const n = 192
	rng := rand.New(rand.NewSource(11))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for _, w := range []int{(u + 1) % n, (u + 11) % n, (u + n/3) % n, (u + n/2) % n} {
			if w != u {
				g.AddArc(u, w, 1+rng.Float64()*40)
			}
		}
	}
	b.Run("full-apsp-per-node", func(b *testing.B) {
		var s core.Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for u := 0; u < n; u++ {
				core.BuildResidScratch(g, u, core.Additive, nil, &s)
			}
		}
	})
	b.Run("forest-repair-per-node", func(b *testing.B) {
		f := graph.NewSPForest()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Reset(g, false)
			for u := 0; u < n; u++ {
				f.RemoveOut(u)
				_ = f.Dist()
				f.RestoreOut()
			}
		}
	})
	b.Run("forest-commit-per-node", func(b *testing.B) {
		f := graph.NewSPForest()
		var next []graph.Arc
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Reset(g, false)
			for u := 0; u < n; u++ {
				// Re-wire: the same links, the first moved one node on.
				next = append(next[:0], g.Out(u)...)
				next[0].To = (next[0].To + 1) % n
				f.RemoveOut(u)
				_ = f.Dist()
				f.CommitOut(next)
			}
		}
	})
}

// BenchmarkScaleEpoch measures the large-scale sampled engine at a
// CI-friendly size: a full convergence-bounded run of sampled best
// responses over the constant-memory underlay.
func BenchmarkScaleEpoch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := sim.RunScale(sim.ScaleConfig{
			N: 400, K: 4, Seed: 7,
			Sample:    sampling.Spec{Strategy: sampling.Demand, M: 40},
			MaxEpochs: 3, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches -------------------------------------------------------

// BenchmarkAblationExactVsLocal reports the cost gap between exact and
// local-search BR on instances small enough to enumerate.
func BenchmarkAblationExactVsLocal(b *testing.B) {
	in := brInstance(16, 4)
	var gap float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, approxVal, err := core.BestResponse(in, 3, core.BROptions{})
		if err != nil {
			b.Fatal(err)
		}
		_, exactVal, err := core.BestResponse(in, 3, core.BROptions{Exact: true})
		if err != nil {
			b.Fatal(err)
		}
		gap = approxVal/exactVal - 1
	}
	b.ReportMetric(gap*100, "%cost-gap")
}

// BenchmarkAblationSwapDepth compares local-search pass budgets.
func BenchmarkAblationSwapDepth(b *testing.B) {
	for _, passes := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			in := brInstance(100, 5)
			b.ReportAllocs()
			b.ResetTimer()
			var val float64
			for i := 0; i < b.N; i++ {
				_, v, err := core.BestResponse(in, 4, core.BROptions{MaxPasses: passes})
				if err != nil {
					b.Fatal(err)
				}
				val = v
			}
			b.ReportMetric(val, "cost")
		})
	}
}

// BenchmarkAblationSamplingRadius sweeps the biased-sampling radius r.
func BenchmarkAblationSamplingRadius(b *testing.B) {
	delays := topology.Waxman(120, 150, rand.New(rand.NewSource(6)))
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunNewcomer(sim.NewcomerConfig{
					Delays: delays, K: 3, Grow: core.KRandom{},
					SampleSize: 10, Radius: r, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio += res.Ratio[sim.NewcomerBRtp]
			}
			b.ReportMetric(ratio/float64(b.N), "BRtp-ratio")
		})
	}
}

// BenchmarkAblationRewireMode compares delayed (paper default) and
// immediate failure repair under fixed churn.
func BenchmarkAblationRewireMode(b *testing.B) {
	sched, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: 26, Horizon: 12, On: churn.Exponential{Mean: 2}, Off: churn.Exponential{Mean: 0.7}, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, immediate := range []bool{false, true} {
		name := "delayed"
		if immediate {
			name = "immediate"
		}
		b.Run(name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					N: 26, K: 3, Seed: 8, Metric: sim.DelayPing,
					Policy:     core.BRPolicy{},
					WarmEpochs: 2, MeasureEpochs: 10,
					Churn: sched, Immediate: immediate,
				})
				if err != nil {
					b.Fatal(err)
				}
				eff = res.Efficiency.Mean
			}
			b.ReportMetric(eff*1000, "eff-x1000")
		})
	}
}

// BenchmarkAblationDonatedLinks sweeps HybridBR's k2 under fixed churn.
func BenchmarkAblationDonatedLinks(b *testing.B) {
	sched, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: 26, Horizon: 12, On: churn.Exponential{Mean: 1.2}, Off: churn.Exponential{Mean: 0.4}, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, k2 := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("k2=%d", k2), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					N: 26, K: 5, Seed: 8, Metric: sim.DelayPing,
					Policy:     core.BRPolicy{Donated: k2},
					WarmEpochs: 4, MeasureEpochs: 8, Churn: sched,
				})
				if err != nil {
					b.Fatal(err)
				}
				eff = res.Efficiency.Mean
			}
			b.ReportMetric(eff*1000, "eff-x1000")
		})
	}
}
