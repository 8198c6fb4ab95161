// Package experiments reproduces every figure of the paper's evaluation
// (Sect. 4–6). Each FigXX function runs the workload behind one figure and
// returns its data series in the same normalization the paper plots.
// cmd/egoist-bench prints them; bench_test.go wraps them in testing.B
// benchmarks.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"egoist/internal/apps"
	"egoist/internal/cheat"
	"egoist/internal/churn"
	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/measure"
	"egoist/internal/par"
	"egoist/internal/sim"
	"egoist/internal/topology"
	"egoist/internal/underlay"
)

// workers is the figure-level parallelism knob (0 = runtime.NumCPU()).
var workers atomic.Int64

// SetWorkers sets how many simulations a figure may run concurrently;
// values <= 0 restore the default of runtime.NumCPU(). Figure output is
// identical for any setting: every simulation in a sweep is independently
// seeded and results are merged in a fixed order, so the knob only changes
// wall-clock time.
func SetWorkers(n int) { workers.Store(int64(n)) }

// Workers reports the current figure-level parallelism (0 = NumCPU).
func Workers() int { return int(workers.Load()) }

// forEach runs fn(i) for every i in [0, n) over the experiment worker
// pool, returning the lowest-indexed error. Callers collect results into
// index i of a slice, which keeps merge order — and therefore figure
// bytes — independent of scheduling.
func forEach(n int, fn func(i int) error) error {
	return par.DoErr(n, Workers(), func(_, i int) error { return fn(i) })
}

// Scale selects experiment effort.
type Scale int

const (
	// Quick shrinks sizes and epochs for CI and benchmarks.
	Quick Scale = iota
	// Full matches the paper's dimensions (n=50 deployment, n=295
	// simulations, full k sweeps).
	Full
)

// Series is one plotted curve.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	// Err holds 95% confidence half-widths when available (may be nil).
	Err []float64
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string // e.g. "1a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

// params bundles the scale-dependent dimensions.
type params struct {
	n          int
	ks         []int
	k          int // the degree of the fixed-k figures
	warm, meas int
	bigN       int // sampling-simulation size
	sampleMs   []int
	reps       int
	longEpochs int
	seed       int64
}

func (s Scale) params() params {
	if s == Full {
		return params{
			n: 50, k: 5,
			ks:   []int{2, 3, 4, 5, 6, 7, 8},
			warm: 15, meas: 10,
			bigN:       296,
			sampleMs:   []int{6, 8, 10, 12, 14, 16, 18, 20},
			reps:       11,
			longEpochs: 300,
			seed:       2008,
		}
	}
	return params{
		n: 26, k: 3,
		ks:   []int{2, 4, 6},
		warm: 5, meas: 4,
		bigN:       80,
		sampleMs:   []int{6, 12, 20},
		reps:       3,
		longEpochs: 40,
		seed:       2008,
	}
}

// fig1Policies are the curves of Fig. 1 (full mesh only in panel a).
var fig1Policies = policies("k-Random", "k-Regular", "k-Closest")

// policies resolves a figure's curve names, which are constants: an
// unknown one is a programming error.
func policies(names ...string) []core.Policy {
	out := make([]core.Policy, len(names))
	for i, name := range names {
		p, err := core.PolicyByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

// runPolicy runs one (policy, metric, k) simulation. Figures parallelize
// across whole simulations (forEach); each run is sequential.
func runPolicy(p params, metric sim.Metric, policy core.Policy, k int, opts func(*sim.Config)) (*sim.Result, error) {
	cfg := sim.Config{
		N: p.n, K: k, Seed: p.seed, Metric: metric, Policy: policy,
		WarmEpochs: p.warm, MeasureEpochs: p.meas,
	}
	if opts != nil {
		opts(&cfg)
	}
	return sim.Run(cfg)
}

// fig1 builds one Fig. 1 panel: per-policy cost normalized by BR vs k.
func fig1(p params, id, title string, metric sim.Metric, includeMesh bool) (*Figure, error) {
	fig := &Figure{
		ID: id, Title: title,
		XLabel: "k", YLabel: "Individual cost / BR cost",
	}
	if metric == sim.Bandwidth {
		fig.YLabel = "Total Av.Bwth / BR Av.Bwth"
	}
	type curve struct {
		label string
		ys    []float64
	}
	curves := []curve{}
	for _, pol := range fig1Policies {
		curves = append(curves, curve{label: pol.Name()})
	}
	if includeMesh {
		curves = append(curves, curve{label: "Full mesh"})
	}
	// One job per (k, policy) cell, BR first in each k-column, plus — the
	// full-mesh baseline does not depend on k — a single mesh job at the
	// end; every run is independent, so the whole sweep fans out over the
	// pool and results merge back by index.
	type jobSpec struct {
		policy core.Policy
		k      int
	}
	cols := 1 + len(fig1Policies)
	jobs := make([]jobSpec, 0, len(p.ks)*cols+1)
	for _, k := range p.ks {
		jobs = append(jobs, jobSpec{core.BRPolicy{}, k})
		for _, pol := range fig1Policies {
			jobs = append(jobs, jobSpec{pol, k})
		}
	}
	if includeMesh {
		jobs = append(jobs, jobSpec{core.FullMesh{}, p.n - 1})
	}
	results := make([]*sim.Result, len(jobs))
	if err := forEach(len(jobs), func(i int) error {
		var err error
		results[i], err = runPolicy(p, metric, jobs[i].policy, jobs[i].k, nil)
		return err
	}); err != nil {
		return nil, err
	}
	xs := make([]float64, 0, len(p.ks))
	for ki, k := range p.ks {
		base := ki * cols
		br := results[base]
		xs = append(xs, float64(k))
		for ci := range fig1Policies {
			curves[ci].ys = append(curves[ci].ys, results[base+1+ci].Cost.Mean/br.Cost.Mean)
		}
		if includeMesh {
			mesh := results[len(results)-1]
			curves[len(curves)-1].ys = append(curves[len(curves)-1].ys, mesh.Cost.Mean/br.Cost.Mean)
		}
	}
	for _, c := range curves {
		fig.Series = append(fig.Series, Series{Label: c.label, X: xs, Y: c.ys})
	}
	return fig, nil
}

// Fig1a reproduces Fig. 1 top-left: delay via ping, with the full-mesh
// lower bound.
func Fig1a(s Scale) (*Figure, error) {
	return fig1(s.params(), "1a", "Normalized cost vs k — metric: delay (ping)", sim.DelayPing, true)
}

// Fig1b reproduces Fig. 1 top-right: delay via the coordinate system.
func Fig1b(s Scale) (*Figure, error) {
	return fig1(s.params(), "1b", "Normalized cost vs k — metric: delay (coords)", sim.DelayCoords, false)
}

// Fig1c reproduces Fig. 1 bottom-left: node load.
func Fig1c(s Scale) (*Figure, error) {
	return fig1(s.params(), "1c", "Normalized cost vs k — metric: system load", sim.Load, false)
}

// Fig1d reproduces Fig. 1 bottom-right: available bandwidth (ratios <= 1,
// larger is better).
func Fig1d(s Scale) (*Figure, error) {
	return fig1(s.params(), "1d", "Normalized bandwidth vs k — metric: available bandwidth", sim.Bandwidth, false)
}

// churnPolicies are the Fig. 2 curves (normalized against plain BR).
var churnPolicies = policies("k-Random", "k-Regular", "k-Closest", "HybridBR")

// traceChurn builds the moderate "PlanetLab-like" schedule of Fig. 2 left.
func traceChurn(p params, seed int64) (*churn.Schedule, error) {
	return churn.GenerateSynthetic(churn.SyntheticConfig{
		N:       p.n,
		Horizon: float64(p.warm + p.meas),
		On:      churn.Pareto{Mean: 25, Alpha: 1.8},
		Off:     churn.Exponential{Mean: 3},
		Seed:    seed,
		StartOn: 0.9,
	})
}

// Fig2a reproduces Fig. 2 left: efficiency normalized by BR vs k under
// trace-driven churn.
func Fig2a(s Scale) (*Figure, error) {
	p := s.params()
	fig := &Figure{
		ID: "2a", Title: "Efficiency / BR efficiency vs k — trace-driven churn",
		XLabel: "k", YLabel: "Node efficiency / BR efficiency",
	}
	sched, err := traceChurn(p, p.seed+21)
	if err != nil {
		return nil, err
	}
	ks := p.ks
	if s == Full {
		ks = []int{3, 4, 5, 6, 7, 8} // paper's Fig. 2 left starts at k=3
	}
	xs := make([]float64, len(ks))
	for ki, k := range ks {
		xs[ki] = float64(k)
	}
	if err := churnSeries(p, fig, xs, func(x int) (int, *churn.Schedule) { return ks[x], sched }); err != nil {
		return nil, err
	}
	fig.Notes = fmt.Sprintf("churn rate %.4f per epoch", sched.Rate(float64(p.warm+p.meas)))
	return fig, nil
}

// Fig2b reproduces Fig. 2 right: efficiency normalized by BR vs churn rate
// at fixed k=5 (k=3 at Quick scale).
func Fig2b(s Scale) (*Figure, error) {
	p := s.params()
	k := p.k
	fig := &Figure{
		ID: "2b", Title: fmt.Sprintf("Efficiency / BR efficiency vs churn — k=%d", k),
		XLabel: "churn (events/epoch, normalized)", YLabel: "Node efficiency / BR efficiency",
	}
	// Target churn rates per epoch: mean session+gap = 2/rate.
	targets := []float64{0.002, 0.02, 0.2, 1, 3}
	if s == Quick {
		targets = []float64{0.02, 0.5}
	}
	var xs []float64
	horizon := float64(p.warm + p.meas)
	// Schedules are generated up front (their seeds are fixed per target),
	// then the (target, policy) grid fans out over the pool.
	scheds := make([]*churn.Schedule, len(targets))
	for ti, target := range targets {
		total := 2 / target
		sched, err := churn.GenerateSynthetic(churn.SyntheticConfig{
			N: p.n, Horizon: horizon,
			On:   churn.Exponential{Mean: total * 5 / 6},
			Off:  churn.Exponential{Mean: total / 6},
			Seed: p.seed + 31,
		})
		if err != nil {
			return nil, err
		}
		scheds[ti] = sched
		xs = append(xs, sched.Rate(horizon))
	}
	if err := churnSeries(p, fig, xs, func(x int) (int, *churn.Schedule) { return k, scheds[x] }); err != nil {
		return nil, err
	}
	return fig, nil
}

// churnSeries plays plain BR and every churnPolicies curve at each point
// x of xs — degree and churn schedule given by at(x) — and adds one
// series per policy: its efficiency over BR's.
func churnSeries(p params, fig *Figure, xs []float64, at func(x int) (int, *churn.Schedule)) error {
	cols := 1 + len(churnPolicies)
	results := make([]*sim.Result, len(xs)*cols)
	if err := forEach(len(results), func(i int) error {
		k, sched := at(i / cols)
		policy := core.Policy(core.BRPolicy{})
		if ci := i%cols - 1; ci >= 0 {
			policy = churnPolicies[ci]
		}
		var err error
		results[i], err = runPolicy(p, sim.DelayPing, policy, k, func(c *sim.Config) { c.Churn = sched })
		return err
	}); err != nil {
		return err
	}
	for ci, pol := range churnPolicies {
		y := make([]float64, len(xs))
		for x := range xs {
			y[x] = results[x*cols+1+ci].Efficiency.Mean / results[x*cols].Efficiency.Mean
		}
		fig.Series = append(fig.Series, Series{Label: pol.Name(), X: xs, Y: y})
	}
	return nil
}

// Fig3a reproduces Fig. 3 left: total re-wirings per epoch over time for a
// range of k.
func Fig3a(s Scale) (*Figure, error) {
	p := s.params()
	fig := &Figure{
		ID: "3a", Title: "Total re-wirings per epoch over time (BR, delay)",
		XLabel: "epoch", YLabel: "re-wirings per epoch",
	}
	ks := []int{2, 3, 5, 8}
	if s == Quick {
		ks = []int{2, 4}
	}
	results := make([]*sim.Result, len(ks))
	if err := forEach(len(ks), func(i int) error {
		var err error
		results[i], err = sim.Run(sim.Config{
			N: p.n, K: ks[i], Seed: p.seed, Metric: sim.DelayPing, Policy: core.BRPolicy{},
			WarmEpochs: 0, MeasureEpochs: p.longEpochs,
		})
		return err
	}); err != nil {
		return nil, err
	}
	for ki, k := range ks {
		per := results[ki].Rewires.PerEpoch()
		xs := make([]float64, len(per))
		ys := make([]float64, len(per))
		for i, v := range per {
			xs[i], ys[i] = float64(i), float64(v)
		}
		fig.Series = append(fig.Series, Series{Label: fmt.Sprintf("k=%d", k), X: xs, Y: ys})
	}
	return fig, nil
}

// fig3Tradeoff runs BR(eps) across k and reports normalized cost against
// full mesh alongside steady-state re-wirings (Fig. 3 center/right).
func fig3Tradeoff(p params, id string, eps float64) (*Figure, error) {
	label := "BR"
	if eps > 0 {
		label = fmt.Sprintf("BR(%.1f)", eps)
	}
	fig := &Figure{
		ID: id, Title: fmt.Sprintf("%s cost vs full mesh, and re-wirings, vs k", label),
		XLabel: "k", YLabel: "normalized cost / re-wirings per epoch",
	}
	// One BR run per k plus a single full-mesh baseline (it does not
	// depend on k), all fanned out together.
	var xs, costRatio, rewires []float64
	brs := make([]*sim.Result, len(p.ks))
	var mesh *sim.Result
	if err := forEach(len(p.ks)+1, func(i int) error {
		var err error
		if i == len(p.ks) {
			mesh, err = runPolicy(p, sim.DelayPing, core.FullMesh{}, p.n-1, nil)
		} else {
			brs[i], err = runPolicy(p, sim.DelayPing, core.BRPolicy{}, p.ks[i], func(c *sim.Config) {
				c.Epsilon = eps
				c.WarmEpochs = 0
				c.MeasureEpochs = p.warm + p.meas
			})
		}
		return err
	}); err != nil {
		return nil, err
	}
	for ki, k := range p.ks {
		xs = append(xs, float64(k))
		costRatio = append(costRatio, brs[ki].Cost.Mean/mesh.Cost.Mean)
		rewires = append(rewires, brs[ki].Rewires.Tail(0.5))
	}
	fig.Series = append(fig.Series,
		Series{Label: label + " cost / full-mesh cost", X: xs, Y: costRatio},
		Series{Label: label + " re-wirings (steady)", X: xs, Y: rewires},
	)
	return fig, nil
}

// Fig3b reproduces Fig. 3 center: exact BR cost versus full mesh plus
// re-wiring rate.
func Fig3b(s Scale) (*Figure, error) { return fig3Tradeoff(s.params(), "3b", 0) }

// Fig3c reproduces Fig. 3 right: the same trade-off for BR(ε = 10%).
func Fig3c(s Scale) (*Figure, error) { return fig3Tradeoff(s.params(), "3c", 0.10) }

// fig4Run measures per-node cost with a cheat model and without, returning
// (free-rider ratio, non-free-rider ratio).
func fig4Run(p params, k int, model *cheat.Model) (riders, others float64, err error) {
	honest, err := runPolicy(p, sim.DelayPing, core.BRPolicy{}, k, nil)
	if err != nil {
		return 0, 0, err
	}
	cheated, err := runPolicy(p, sim.DelayPing, core.BRPolicy{}, k, func(c *sim.Config) { c.Cheat = model })
	if err != nil {
		return 0, 0, err
	}
	isCheater := map[int]bool{}
	for _, c := range model.Cheaters() {
		isCheater[c] = true
	}
	var riderRatios, otherRatios []float64
	for i := 0; i < p.n; i++ {
		if honest.PerNodeCost[i] == 0 || math.IsNaN(honest.PerNodeCost[i]) || math.IsNaN(cheated.PerNodeCost[i]) {
			continue
		}
		r := cheated.PerNodeCost[i] / honest.PerNodeCost[i]
		if isCheater[i] {
			riderRatios = append(riderRatios, r)
		} else {
			otherRatios = append(otherRatios, r)
		}
	}
	return measure.Summarize(riderRatios).Mean, measure.Summarize(otherRatios).Mean, nil
}

// Fig4a reproduces Fig. 4 left: a single free rider announcing 2× costs,
// versus k.
func Fig4a(s Scale) (*Figure, error) {
	p := s.params()
	fig := &Figure{
		ID: "4a", Title: "One free rider (2x inflation): cost ratio vs k",
		XLabel: "k", YLabel: "individual cost / cost without free rider",
	}
	xs := make([]float64, len(p.ks))
	riders := make([]float64, len(p.ks))
	others := make([]float64, len(p.ks))
	if err := forEach(len(p.ks), func(i int) error {
		k := p.ks[i]
		r, o, err := fig4Run(p, k, cheat.Single(p.n, p.n/3, 2))
		xs[i], riders[i], others[i] = float64(k), r, o
		return err
	}); err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series,
		Series{Label: "Free rider", X: xs, Y: riders},
		Series{Label: "Non free riders", X: xs, Y: others},
	)
	return fig, nil
}

// Fig4b reproduces Fig. 4 right: a growing free-rider population at k=2.
func Fig4b(s Scale) (*Figure, error) {
	p := s.params()
	fig := &Figure{
		ID: "4b", Title: "Many free riders (k=2): cost ratio vs population",
		XLabel: "free riders", YLabel: "individual cost / cost without free riders",
	}
	pops := []int{2, 4, 8, 12, 16}
	if s == Quick {
		pops = []int{2, 6}
	}
	// Cheater populations draw from one shared stream, so the models are
	// built sequentially up front; the simulations then fan out.
	rng := rand.New(rand.NewSource(p.seed + 41))
	models := make([]*cheat.Model, len(pops))
	for pi, pop := range pops {
		models[pi] = cheat.Population(p.n, pop, 2, rng)
	}
	xs := make([]float64, len(pops))
	riders := make([]float64, len(pops))
	others := make([]float64, len(pops))
	if err := forEach(len(pops), func(i int) error {
		r, o, err := fig4Run(p, 2, models[i])
		xs[i], riders[i], others[i] = float64(pops[i]), r, o
		return err
	}); err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series,
		Series{Label: "Free riders", X: xs, Y: riders},
		Series{Label: "Non free riders", X: xs, Y: others},
	)
	return fig, nil
}

// graphBase pairs a pre-grown base graph with the seed that grew it.
type graphBase struct {
	g    *graph.Digraph
	seed int64
}

// samplingDelayMatrix builds the n=295-site stand-in for the all-pairs
// ping trace: the geographic underlay's quiescent delays.
func samplingDelayMatrix(n int, seed int64) (topology.DelayMatrix, error) {
	u, err := underlay.New(underlay.Config{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	m := topology.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m[i][j] = u.Delay(i, j)
			}
		}
	}
	return m, nil
}

// figSampling builds one of Figs. 5–8 for a base-graph policy.
func figSampling(p params, id string, grow core.Policy) (*Figure, error) {
	delays, err := samplingDelayMatrix(p.bigN, p.seed+51)
	if err != nil {
		return nil, err
	}
	return figSamplingOn(p, id, grow, delays)
}

// figSamplingOn builds a sampling figure over an explicit delay matrix.
func figSamplingOn(p params, id string, grow core.Policy, delays topology.DelayMatrix) (*Figure, error) {
	fig := &Figure{
		ID:     id,
		Title:  fmt.Sprintf("Newcomer cost vs sample size on a %s graph (n=%d, k=3, r=2)", grow.Name(), p.bigN-1),
		XLabel: "size of the sample", YLabel: "newcomer's cost / BR-no-sampling cost",
	}
	strategies := []sim.NewcomerStrategy{
		sim.NewcomerKRandom, sim.NewcomerKRegular, sim.NewcomerKClosest,
		sim.NewcomerBR, sim.NewcomerBRtp,
	}
	// Base graphs depend only on (delays, grow, seed): grow each rep's once
	// and share it across the sample-size sweep. Growing is independent per
	// rep, so it fans out over the pool.
	bases := make([]*graphBase, p.reps)
	if err := forEach(p.reps, func(rep int) error {
		cfg := sim.NewcomerConfig{
			Delays: delays, K: 3, Grow: grow,
			SampleSize: 6, Seed: p.seed + int64(rep)*97,
		}
		g, err := sim.GrowBase(cfg)
		if err != nil {
			return err
		}
		bases[rep] = &graphBase{g: g, seed: cfg.Seed}
		return nil
	}); err != nil {
		return nil, err
	}
	// The (sample size, repetition) grid is this package's biggest sweep;
	// every cell is an independent newcomer simulation.
	cells := make([]*sim.NewcomerResult, len(p.sampleMs)*p.reps)
	if err := forEach(len(cells), func(i int) error {
		m, rep := p.sampleMs[i/p.reps], i%p.reps
		var err error
		cells[i], err = sim.RunNewcomer(sim.NewcomerConfig{
			Delays: delays, K: 3, Grow: grow,
			SampleSize: m, SamplePrime: 4 * m, Radius: 2,
			Seed: bases[rep].seed, Base: bases[rep].g,
		})
		return err
	}); err != nil {
		return nil, err
	}
	curves := make(map[sim.NewcomerStrategy][]float64)
	var xs []float64
	for mi, m := range p.sampleMs {
		xs = append(xs, float64(m))
		acc := map[sim.NewcomerStrategy][]float64{}
		for rep := 0; rep < p.reps; rep++ {
			res := cells[mi*p.reps+rep]
			for _, st := range strategies {
				acc[st] = append(acc[st], res.Ratio[st])
			}
		}
		// Median across repetitions: a rare pre-sample that misses every
		// good candidate produces an outlier that would swamp a mean.
		for _, st := range strategies {
			curves[st] = append(curves[st], measure.Median(acc[st]))
		}
	}
	for _, st := range strategies {
		fig.Series = append(fig.Series, Series{Label: st.String(), X: xs, Y: curves[st]})
	}
	fig.Notes = "median over repetitions; m' = 4m pre-samples"
	return fig, nil
}

// Fig5 reproduces Fig. 5: sampling strategies joining a BR-grown graph.
func Fig5(s Scale) (*Figure, error) { return figSampling(s.params(), "5", core.BRPolicy{}) }

// Fig5BRITE repeats Fig. 5 on a BRITE-like (Barabási–Albert) topology —
// the paper reports that results on BRITE and AS topologies "were
// similar" to the PlanetLab trace.
func Fig5BRITE(s Scale) (*Figure, error) {
	p := s.params()
	fig, err := figSamplingOn(p, "5brite", core.BRPolicy{},
		topology.BarabasiAlbert(p.bigN, 2, rand.New(rand.NewSource(p.seed+53))))
	if err != nil {
		return nil, err
	}
	fig.Title = fmt.Sprintf("Newcomer cost vs sample size on a BR graph over a BRITE-like topology (n=%d)", p.bigN-1)
	return fig, nil
}

// Fig6 reproduces Fig. 6: joining a k-Random graph.
func Fig6(s Scale) (*Figure, error) { return figSampling(s.params(), "6", core.KRandom{}) }

// Fig7 reproduces Fig. 7: joining a k-Regular graph.
func Fig7(s Scale) (*Figure, error) { return figSampling(s.params(), "7", core.KRegular{}) }

// Fig8 reproduces Fig. 8: joining a k-Closest graph.
func Fig8(s Scale) (*Figure, error) { return figSampling(s.params(), "8", core.KClosest{}) }

// Fig10 reproduces Fig. 10: available-bandwidth gain vs k for multipath
// transfer via first-hop neighbors and for full multipath redirection.
func Fig10(s Scale) (*Figure, error) {
	p := s.params()
	fig := &Figure{
		ID: "10", Title: "Available bandwidth gain vs k (multipath transfer)",
		XLabel: "k", YLabel: "available bandwidth gain",
	}
	u, err := underlay.New(underlay.Config{N: p.n, Seed: p.seed + 61})
	if err != nil {
		return nil, err
	}
	var xs, parallel, redirect []float64
	for _, k := range p.ks {
		res, err := runPolicy(p, sim.Bandwidth, core.BRPolicy{}, k, func(c *sim.Config) {
			c.UnderlaySeed = p.seed + 61
		})
		if err != nil {
			return nil, err
		}
		par, mf, err := apps.SweepMultipathGain(u, res.FinalWiring)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(k))
		parallel = append(parallel, par.Mean)
		redirect = append(redirect, mf.Mean)
	}
	fig.Series = append(fig.Series,
		Series{Label: "source establ. parallel connections", X: xs, Y: parallel},
		Series{Label: "peers allow multipath redirections", X: xs, Y: redirect},
	)
	return fig, nil
}

// Fig11 reproduces Fig. 11: number of vertex-disjoint paths vs k on the
// delay-based overlay.
func Fig11(s Scale) (*Figure, error) {
	p := s.params()
	fig := &Figure{
		ID: "11", Title: "Number of disjoint paths vs k (delay overlay)",
		XLabel: "k", YLabel: "number of disjoint paths",
	}
	var xs, ys []float64
	for _, k := range p.ks {
		res, err := runPolicy(p, sim.DelayPing, core.BRPolicy{}, k, nil)
		if err != nil {
			return nil, err
		}
		stats, err := apps.SweepDisjointPaths(res.FinalWiring)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(k))
		ys = append(ys, stats.Mean)
	}
	fig.Series = append(fig.Series, Series{Label: "disjoint paths", X: xs, Y: ys})
	return fig, nil
}

// Streaming is the Sect. 6.2 "future work" experiment the paper sketches:
// duplicate real-time packets over vertex-disjoint overlay paths and
// measure the fraction arriving before the playout deadline, as a
// function of the number of copies, under per-hop loss.
func Streaming(s Scale) (*Figure, error) {
	p := s.params()
	fig := &Figure{
		ID: "streaming", Title: "In-time delivery vs duplicated copies (Sect. 6.2 extension)",
		XLabel: "copies over disjoint paths", YLabel: "fraction in time",
	}
	u, err := underlay.New(underlay.Config{N: p.n, Seed: p.seed + 71})
	if err != nil {
		return nil, err
	}
	k := p.k
	res, err := runPolicy(p, sim.DelayPing, core.BRPolicy{}, k, func(c *sim.Config) {
		c.UnderlaySeed = p.seed + 71
	})
	if err != nil {
		return nil, err
	}
	maxCopies := k
	pairs := 20
	if s == Quick {
		pairs = 8
	}
	for _, loss := range []float64{0.02, 0.10} {
		curve, err := apps.StreamSweep(apps.StreamingConfig{
			Wiring:     res.FinalWiring,
			Delay:      u.Delay,
			DeadlineMS: 400,
			LossPerHop: loss,
			JitterFrac: 0.1,
			Packets:    200,
			Seed:       p.seed,
			Copies:     1,
		}, maxCopies, pairs)
		if err != nil {
			return nil, err
		}
		xs := make([]float64, len(curve))
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("%.0f%% per-hop loss", loss*100),
			X:     xs, Y: curve,
		})
	}
	return fig, nil
}

// Overhead reproduces the protocol-overhead accounting of Sect. 4.3:
// analytic bps-per-node formulas next to the simulator's measured traffic.
func Overhead(s Scale) (*Figure, error) {
	p := s.params()
	k := p.k
	const epochSeconds = 60.0   // T
	const announceSeconds = 20. // Tannounce
	fig := &Figure{
		ID: "overhead", Title: fmt.Sprintf("Protocol overhead (n=%d, k=%d, T=60s)", p.n, k),
		XLabel: "quantity", YLabel: "bits per second per node",
	}
	res, err := runPolicy(p, sim.DelayPing, core.BRPolicy{}, k, nil)
	if err != nil {
		return nil, err
	}
	epochs := float64(res.EpochsRun)
	perNodePerSec := func(totalBits float64) float64 {
		return totalBits / float64(p.n) / (epochs * epochSeconds)
	}
	analyticPing := float64(p.n-k-1) * 320 / epochSeconds
	analyticLSA := (192 + 32*float64(k)) / announceSeconds
	fig.Series = append(fig.Series,
		Series{Label: "ping (analytic)", X: []float64{0}, Y: []float64{analyticPing}},
		Series{Label: "ping (measured)", X: []float64{0}, Y: []float64{perNodePerSec(res.ProbeBits["ping"])}},
		Series{Label: "LSA (analytic)", X: []float64{1}, Y: []float64{analyticLSA}},
		Series{Label: "LSA (measured)", X: []float64{1}, Y: []float64{perNodePerSec(res.LSABits)}},
	)
	fig.Notes = "coord query analytic: (320+32n)/T bps = " +
		fmt.Sprintf("%.1f", (320+32*float64(p.n))/epochSeconds)
	return fig, nil
}

// Registry maps figure ids to their runners.
var Registry = map[string]func(Scale) (*Figure, error){
	"1a": Fig1a, "1b": Fig1b, "1c": Fig1c, "1d": Fig1d,
	"2a": Fig2a, "2b": Fig2b,
	"3a": Fig3a, "3b": Fig3b, "3c": Fig3c,
	"4a": Fig4a, "4b": Fig4b,
	"5": Fig5, "5brite": Fig5BRITE, "6": Fig6, "7": Fig7, "8": Fig8,
	"10": Fig10, "11": Fig11,
	"overhead": Overhead, "streaming": Streaming,
	"scale": FigScale, "gap": FigScaleGap, "churnscale": FigChurnScale,
}

// IDs returns the registry's figure ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
