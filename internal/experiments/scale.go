package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// This file holds the large-scale experiments behind the sampling-scaled
// simulation engine (sim.RunScale): the n-sweep that demonstrates 10k+
// node convergence runs with their wall-clock and accuracy envelope, and
// the sampled-vs-full cost-gap curve that generalizes the paper's
// Figs. 5–8 newcomer result to whole-overlay dynamics.

// scaleSweepSizes are the sweep's overlay sizes per Scale.
func scaleSweepSizes(s Scale) []int {
	if s == Full {
		return []int{1000, 5000, 10000}
	}
	return []int{200, 400}
}

// ScaleSweepRecords runs the scale sweep and returns both the figure
// and the machine-readable benchmark records for BENCH_scale.json.
func ScaleSweepRecords(s Scale) (*Figure, []BenchRecord, error) {
	p := s.params()
	fig := &Figure{
		ID:     "scale",
		Title:  "Large-scale sampled engine: wall-clock and convergence vs n",
		XLabel: "overlay size n",
		YLabel: "seconds per epoch / epochs to converge / relative 95% band",
	}
	sizes := scaleSweepSizes(s)
	var xs, secs, epochs, relBand []float64
	var recs []BenchRecord
	for _, n := range sizes {
		k, spec := sim.HeadlineRecipe(n, 0)
		res, rec, err := MeasureScale(sim.ScaleConfig{
			N: n, K: k, Seed: p.seed, Sample: spec, Workers: Workers(),
		})
		if err != nil {
			return nil, nil, err
		}
		last := res.PerEpoch[res.Epochs-1]
		xs = append(xs, float64(n))
		secs = append(secs, rec.NsPerOp/1e9)
		epochs = append(epochs, float64(res.Epochs))
		relBand = append(relBand, last.MeanBand/math.Max(last.MeanEstCost, 1e-12))
		recs = append(recs, rec)
	}
	fig.Series = append(fig.Series,
		Series{Label: "seconds per epoch", X: xs, Y: secs},
		Series{Label: "epochs run (max 8)", X: xs, Y: epochs},
		Series{Label: "relative 95% band of cost estimate", X: xs, Y: relBand},
	)
	fig.Notes = "demand-proportional sampling, m = min(n/20, 500)"
	return fig, recs, nil
}

// FigScale is the registry wrapper for the scale sweep.
func FigScale(s Scale) (*Figure, error) {
	fig, _, err := ScaleSweepRecords(s)
	return fig, err
}

// MeasureScale runs one large-scale simulation and reports it as a
// benchmark record (ns and allocations per epoch, plus the process
// peak RSS after the run). The record name carries only (n, sample) —
// the engine's determinism contract keeps Workers invisible, so
// records gate cleanly against baselines measured at any worker count.
func MeasureScale(cfg sim.ScaleConfig) (*sim.ScaleResult, BenchRecord, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sim.RunScale(cfg)
	if err != nil {
		return nil, BenchRecord{}, err
	}
	runtime.ReadMemStats(&after)
	var wall int64
	for _, ep := range res.PerEpoch {
		wall += ep.WallNS
	}
	rec := BenchRecord{
		Name:         fmt.Sprintf("scale/n=%d/%v", cfg.N, cfg.Sample),
		NsPerOp:      float64(wall) / float64(res.Epochs),
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(res.Epochs),
		N:            res.Epochs,
		PeakRSSBytes: peakRSSBytes(),
	}
	return res, rec, nil
}

// peakRSSBytes reads the process peak resident set (VmHWM) from
// /proc/self/status, or 0 where unavailable. The high-water mark is
// process-wide and monotonic, so a multi-size sweep must run its sizes
// ascending for each reading to equal that size's own peak.
func peakRSSBytes() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// TrueScaleCost computes the exact full-roster mean per-node routing
// cost of a wiring over net — the ground truth the gap figure compares
// against. Only feasible at gap-experiment sizes (it is the O(n²) cost
// the scale engine avoids).
func TrueScaleCost(net sim.ScaleNet, wiring [][]int) float64 {
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

// FigScaleGap reproduces the paper's sampled-vs-full cost-gap curve at
// whole-overlay scale: the true social cost of overlays converged under
// sampled best response, normalized by the full-roster run, as a
// function of the sample size — with the estimator's stated 95% band as
// error bars.
func FigScaleGap(s Scale) (*Figure, error) {
	p := s.params()
	n := 150
	k := 3
	if s == Full {
		n = 400
		k = 4
	}
	fig := &Figure{
		ID:     "gap",
		Title:  fmt.Sprintf("Sampled-vs-full cost gap (n=%d, k=%d, converged overlays)", n, k),
		XLabel: "destination sample size m",
		YLabel: "true cost / full-roster BR cost",
	}
	net, err := underlay.NewLite(n, p.seed+81)
	if err != nil {
		return nil, err
	}
	run := func(spec sampling.Spec) (*sim.ScaleResult, error) {
		return sim.RunScale(sim.ScaleConfig{
			N: n, K: k, Seed: p.seed, Net: net, Sample: spec,
			MaxEpochs: 8, Workers: Workers(),
		})
	}
	full, err := run(sampling.Spec{Strategy: sampling.Uniform, M: n - 1})
	if err != nil {
		return nil, err
	}
	fullCost := TrueScaleCost(net, full.Wiring)
	ms := []int{n / 16, n / 8, n / 4, n / 2}
	strategies := []sampling.Strategy{sampling.Uniform, sampling.Demand, sampling.Stratified}
	for _, st := range strategies {
		var xs, ys, errs []float64
		for _, m := range ms {
			res, err := run(sampling.Spec{Strategy: st, M: m})
			if err != nil {
				return nil, err
			}
			last := res.PerEpoch[res.Epochs-1]
			xs = append(xs, float64(m))
			ys = append(ys, TrueScaleCost(net, res.Wiring)/fullCost)
			errs = append(errs, last.MeanBand/fullCost)
		}
		fig.Series = append(fig.Series, Series{
			Label: st.String(), X: xs, Y: ys, Err: errs,
		})
	}
	fig.Notes = "normalized by a full-roster (m=n-1) run on the same underlay; error bars are the estimator's mean 95% half-width"
	return fig, nil
}
