// Package egoist is the public API of the EGOIST overlay routing library —
// a reproduction of "EGOIST: Overlay Routing using Selfish Neighbor
// Selection" (Smaragdakis et al., CoNEXT 2008).
//
// EGOIST overlays let every node selfishly choose its k overlay neighbors
// with a Best-Response (BR) strategy: minimize its own (weighted) sum of
// shortest-path costs to all destinations, given the residual overlay
// learned through a link-state protocol. The package exposes three layers:
//
//   - Simulate / Compare: epoch-driven simulations over a synthetic
//     wide-area underlay, reproducing the paper's PlanetLab experiments
//     (delay, load and bandwidth metrics; churn; free riders; BR(ε)).
//   - SampleJoin: the scalability-by-sampling experiments of Sect. 5.
//   - ScaleRun: the large-scale simulation mode — sampled best-response
//     dynamics for overlays of 10k+ nodes with an unbiased cost
//     estimator (Sect. 5 generalized to every node's periodic
//     re-wiring).
//   - StartLocalOverlay / overlay daemon (cmd/egoistd): the live,
//     goroutine-per-node runtime speaking the link-state protocol over an
//     in-memory bus or real UDP sockets.
//
// See README.md for the package layout and how to regenerate the
// paper's figures.
package egoist

import (
	"fmt"
	"math/rand"
	"os"

	"egoist/internal/cheat"
	"egoist/internal/churn"
	"egoist/internal/core"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/topology"
	"egoist/internal/underlay"
)

// PolicyKind names a neighbor-selection policy.
type PolicyKind string

// The neighbor-selection policies of Sect. 3.2–3.3.
const (
	// BR is the Best-Response strategy, EGOIST's default.
	BR PolicyKind = "BR"
	// KRandom picks k random neighbors.
	KRandom PolicyKind = "k-Random"
	// KClosest picks the k nodes with best direct cost.
	KClosest PolicyKind = "k-Closest"
	// KRegular wires a fixed offset pattern over the id ring.
	KRegular PolicyKind = "k-Regular"
	// HybridBR donates part of the degree budget to a connectivity
	// backbone and plays BR with the rest.
	HybridBR PolicyKind = "HybridBR"
	// FullMesh links to everyone: the O(n²) RON-style upper bound.
	FullMesh PolicyKind = "Full mesh"
)

// Policies lists every selectable policy kind.
func Policies() []PolicyKind {
	return []PolicyKind{BR, KRandom, KClosest, KRegular, HybridBR, FullMesh}
}

// MetricKind names a link-cost metric (Sect. 4.1).
type MetricKind string

// The cost metrics incorporated in EGOIST.
const (
	// DelayPing measures one-way delay with active pings.
	DelayPing MetricKind = "delay-ping"
	// DelayCoords estimates delay from a virtual coordinate system.
	DelayCoords MetricKind = "delay-coords"
	// NodeLoad charges each link the smoothed CPU load of its target.
	NodeLoad MetricKind = "load"
	// Bandwidth maximizes bottleneck available bandwidth (higher=better).
	Bandwidth MetricKind = "bandwidth"
)

// Metrics lists every metric kind.
func Metrics() []MetricKind {
	return []MetricKind{DelayPing, DelayCoords, NodeLoad, Bandwidth}
}

func (m MetricKind) toSim() (sim.Metric, error) {
	switch m {
	case DelayPing, "":
		return sim.DelayPing, nil
	case DelayCoords:
		return sim.DelayCoords, nil
	case NodeLoad:
		return sim.Load, nil
	case Bandwidth:
		return sim.Bandwidth, nil
	default:
		return 0, fmt.Errorf("egoist: unknown metric %q", m)
	}
}

// HigherIsBetter reports whether larger values of the metric are better.
func (m MetricKind) HigherIsBetter() bool { return m == Bandwidth }

// SimOptions configures one simulated overlay run.
type SimOptions struct {
	// N is the overlay size (paper deployment: 50). K is the per-node
	// neighbor budget.
	N, K int
	// Seed makes runs reproducible. Runs with the same Seed observe
	// identical underlay conditions regardless of policy, enabling the
	// paper's concurrent-deployment comparisons.
	Seed int64
	// Metric selects the cost metric; default DelayPing.
	Metric MetricKind
	// Policy selects neighbor selection; default BR.
	Policy PolicyKind
	// Epsilon enables BR(ε): re-wire only on improvements above this
	// fraction (Sect. 4.3).
	Epsilon float64
	// Donated is HybridBR's k2 (ignored for other policies; default 2
	// when Policy is HybridBR).
	Donated int
	// WarmEpochs (default 10) run before the MeasureEpochs (default 10)
	// that produce measurements.
	WarmEpochs, MeasureEpochs int
	// Churn optionally drives membership. Use MakeChurn or load a trace.
	Churn *churn.Schedule
	// Cheaters installs that many free riders announcing costs scaled by
	// CheatFactor (default 2 when Cheaters > 0).
	Cheaters int
	// CheatFactor scales cheaters' announced outgoing costs.
	CheatFactor float64
	// CheaterIDs pins the cheater identities (overrides Cheaters count).
	CheaterIDs []int
	// Delays, when non-nil, replaces the synthetic underlay with a
	// measured all-pairs delay matrix (see internal/topology's trace
	// format and cmd/egoist-trace). Only the delay metrics are meaningful
	// over a trace. N must equal the matrix size.
	Delays topology.DelayMatrix
	// DelayJitter is the per-epoch relative delay wobble applied on top of
	// a trace (default 0.05 when Delays is set).
	DelayJitter float64
	// Workers is ignored: the full engine re-wires one node after
	// another, as the paper's staggered dynamics do. It stays only
	// because the benchmark module still sets it.
	Workers int
}

// resolvePolicy looks kind up by name and applies a non-zero HybridBR
// donation.
func resolvePolicy(kind PolicyKind, donated int) (core.Policy, error) {
	p, err := core.PolicyByName(string(kind))
	if err != nil {
		return nil, fmt.Errorf("egoist: %w", err)
	}
	if br, ok := p.(core.BRPolicy); ok && br.Donated > 0 && donated != 0 {
		br.Donated = donated
		p = br
	}
	return p, nil
}

func (o SimOptions) build() (sim.Config, error) {
	metric, err := o.Metric.toSim()
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		N: o.N, K: o.K, Seed: o.Seed, Metric: metric,
		Epsilon:    o.Epsilon,
		WarmEpochs: o.WarmEpochs, MeasureEpochs: o.MeasureEpochs,
		Churn: o.Churn,
	}
	if cfg.WarmEpochs == 0 {
		cfg.WarmEpochs = 10
	}
	if cfg.MeasureEpochs == 0 {
		cfg.MeasureEpochs = 10
	}
	if cfg.Policy, err = resolvePolicy(o.Policy, o.Donated); err != nil {
		return sim.Config{}, err
	}
	if _, mesh := cfg.Policy.(core.FullMesh); mesh {
		cfg.K = o.N - 1
	}
	factor := o.CheatFactor
	if factor == 0 {
		factor = 2
	}
	switch {
	case len(o.CheaterIDs) > 0:
		m := cheat.None(o.N)
		m.Factor = factor
		for _, id := range o.CheaterIDs {
			if id < 0 || id >= o.N {
				return sim.Config{}, fmt.Errorf("egoist: cheater id %d out of range", id)
			}
			m.Cheater[id] = true
		}
		cfg.Cheat = m
	case o.Cheaters > 0:
		cfg.Cheat = cheat.Population(o.N, o.Cheaters, factor, rand.New(rand.NewSource(o.Seed+77)))
	}
	if o.Delays != nil {
		if o.Delays.N() != o.N {
			return sim.Config{}, fmt.Errorf("egoist: delay trace has %d nodes, N is %d", o.Delays.N(), o.N)
		}
		jitter := o.DelayJitter
		if jitter == 0 {
			jitter = 0.05
		}
		net, err := sim.NewTraceNetwork(o.Delays, jitter, o.Seed+11)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Network = net
	}
	return cfg, nil
}

// LoadDelayTrace reads an all-pairs delay matrix in the trace format of
// cmd/egoist-trace (and of public all-pairs ping datasets).
func LoadDelayTrace(path string) (topology.DelayMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.ReadTrace(f)
}

// SimResult reports a simulation's measurements.
type SimResult struct {
	// MeanCost is the mean per-node routing cost (aggregate bandwidth for
	// the Bandwidth metric, where higher is better).
	MeanCost float64
	// CI95 is the 95% confidence half-width across nodes.
	CI95 float64
	// PerNodeCost is each node's time-averaged cost.
	PerNodeCost []float64
	// MeanEfficiency is the churn-robustness metric of Sect. 4.4.
	MeanEfficiency float64
	// RewiresPerEpoch counts established links per epoch.
	RewiresPerEpoch []int
	// SteadyRewires is the mean re-wiring rate over the last third of the
	// run.
	SteadyRewires float64
	// FinalWiring is the final neighbor set of every node.
	FinalWiring [][]int
	// ProbeBits tallies measurement traffic in bits by category; LSABits
	// is the link-state announcement traffic.
	ProbeBits map[string]float64
	LSABits   float64
}

// Simulate runs one simulated overlay and reports its measurements.
func Simulate(opts SimOptions) (*SimResult, error) {
	cfg, err := opts.build()
	if err != nil {
		return nil, err
	}
	r, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &SimResult{
		MeanCost:        r.Cost.Mean,
		CI95:            r.Cost.CI95,
		PerNodeCost:     r.PerNodeCost,
		MeanEfficiency:  r.Efficiency.Mean,
		RewiresPerEpoch: r.Rewires.PerEpoch(),
		SteadyRewires:   r.Rewires.Tail(1.0 / 3),
		FinalWiring:     r.FinalWiring,
		ProbeBits:       r.ProbeBits,
		LSABits:         r.LSABits,
	}, nil
}

// Comparison holds per-policy results over identical network conditions,
// plus each policy's cost normalized by BR's — the exact quantity Fig. 1
// plots.
type Comparison struct {
	Results    map[PolicyKind]*SimResult
	Normalized map[PolicyKind]float64
}

// Compare runs the listed policies (default: all but FullMesh) under
// identical conditions and normalizes their costs by BR's cost. BR is
// always included.
func Compare(opts SimOptions, policies ...PolicyKind) (*Comparison, error) {
	if len(policies) == 0 {
		policies = []PolicyKind{BR, KRandom, KClosest, KRegular}
	}
	hasBR := false
	for _, p := range policies {
		if p == BR {
			hasBR = true
		}
	}
	if !hasBR {
		policies = append([]PolicyKind{BR}, policies...)
	}
	cmp := &Comparison{
		Results:    map[PolicyKind]*SimResult{},
		Normalized: map[PolicyKind]float64{},
	}
	for _, p := range policies {
		o := opts
		o.Policy = p
		res, err := Simulate(o)
		if err != nil {
			return nil, fmt.Errorf("egoist: policy %v: %w", p, err)
		}
		cmp.Results[p] = res
	}
	// Fig. 1 plots policy-cost/BR-cost for cost metrics (>= 1 when BR wins)
	// and policy-bandwidth/BR-bandwidth for the bandwidth metric (<= 1 when
	// BR wins); both are the same ratio.
	br := cmp.Results[BR].MeanCost
	for p, r := range cmp.Results {
		cmp.Normalized[p] = r.MeanCost / br
	}
	return cmp, nil
}

// MakeChurn builds a synthetic ON/OFF churn schedule with exponential
// session (mean onEpochs) and gap (mean offEpochs) durations over the
// given horizon in epochs.
func MakeChurn(n int, horizon, onEpochs, offEpochs float64, seed int64) (*churn.Schedule, error) {
	return churn.GenerateSynthetic(churn.SyntheticConfig{
		N: n, Horizon: horizon,
		On:   churn.Exponential{Mean: onEpochs},
		Off:  churn.Exponential{Mean: offEpochs},
		Seed: seed,
	})
}

// ChurnRate computes the paper's churn metric of a schedule over a horizon.
func ChurnRate(s *churn.Schedule, horizon float64) float64 { return s.Rate(horizon) }

// SampleJoinOptions configures a Sect.-5 sampling experiment: a newcomer
// joins a grown n-node overlay using BR over a sample.
type SampleJoinOptions struct {
	// N is the total node count including the newcomer (paper: 295+1
	// sites from the all-pairs ping trace; here a Waxman stand-in unless
	// Delays is given).
	N int
	// K is the degree budget (paper: 3).
	K int
	// SampleSize is m; Radius is the bias radius r (paper: 2).
	SampleSize, Radius int
	// Graph selects the base overlay's construction policy: BR, KRandom,
	// KRegular or KClosest (Figs. 5–8).
	Graph PolicyKind
	// Seed drives the randomness; Delays optionally replaces the synthetic
	// delay matrix with a trace.
	Seed   int64
	Delays topology.DelayMatrix
}

// SampleJoinResult maps strategy name to the newcomer's cost ratio versus
// BR without sampling.
type SampleJoinResult struct {
	// Ratio[name] is newcomer-cost(name)/newcomer-cost(BR-no-sampling).
	Ratio map[string]float64
}

// SampleJoin runs one newcomer-join experiment.
func SampleJoin(opts SampleJoinOptions) (*SampleJoinResult, error) {
	// The base graph grows with BR, KRandom, KRegular or KClosest;
	// sim.RunNewcomer rejects the other two.
	grow, err := core.PolicyByName(string(opts.Graph))
	if err != nil {
		return nil, fmt.Errorf("egoist: unsupported base graph %q", opts.Graph)
	}
	delays := opts.Delays
	if delays == nil {
		if opts.N < 4 {
			return nil, fmt.Errorf("egoist: N = %d too small", opts.N)
		}
		delays = topology.Waxman(opts.N, 180, rand.New(rand.NewSource(opts.Seed+5)))
	}
	res, err := sim.RunNewcomer(sim.NewcomerConfig{
		Delays: delays, K: opts.K, Grow: grow,
		SampleSize: opts.SampleSize, Radius: opts.Radius, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := &SampleJoinResult{Ratio: map[string]float64{}}
	for s, r := range res.Ratio {
		out.Ratio[s.String()] = r
	}
	return out, nil
}

// NewUnderlay builds the synthetic wide-area underlay used by the
// simulations, exposed for applications that want to evaluate multipath
// gains (see MultipathGain).
func NewUnderlay(n int, seed int64) (*underlay.Underlay, error) {
	return underlay.New(underlay.Config{N: n, Seed: seed})
}

// ScaleOptions configures a large-scale sampled simulation (ScaleRun):
// best-response dynamics where every node optimizes an unbiased
// estimate of its full-roster cost computed on a weighted destination
// sample, which is what makes 10k+-node overlays tractable.
type ScaleOptions struct {
	// N is the overlay size; K the degree budget (0 = 8, or 4 below
	// 1000 nodes).
	N, K int
	// Sample is the sampling spec "strategy:m" — strategies uniform,
	// demand (preference-proportional) and strat (distance-stratified).
	// Empty selects "demand:<n/20>".
	Sample string
	// Epochs caps the run (0 = engine default with early convergence
	// stop). Epsilon is the BR(ε) adoption threshold (0 = 0.05).
	Epochs  int
	Epsilon float64
	// Seed drives all randomness; Workers the parallelism (0 = NumCPU;
	// results are byte-identical for any value).
	Seed    int64
	Workers int
	// Churn optionally drives dynamic membership (times in epochs):
	// joins bootstrap into the overlay and its facility directory,
	// leaves orphan their in-links immediately and the victims re-wire
	// within one epoch. Use MakeChurn or load a trace.
	Churn *churn.Schedule
}

// ScaleEpochStats is one epoch's aggregate measurements of a ScaleRun.
type ScaleEpochStats struct {
	// Rewires counts nodes that adopted a new wiring.
	Rewires int
	// EstCost is the mean per-node estimated full-roster cost; Band the
	// mean 95% confidence half-width of that estimate.
	EstCost, Band float64
	// Joins and Leaves count membership events applied this epoch;
	// Alive is the population at the epoch's end.
	Joins, Leaves int
	Alive         int
}

// ScaleRunResult reports a large-scale run.
type ScaleRunResult struct {
	// Epochs run; Converged reports whether re-wiring activity fell
	// below 1% of alive nodes (with no membership events pending)
	// before the epoch cap.
	Epochs    int
	Converged bool
	// PerEpoch holds the per-epoch statistics; Wiring the final overlay
	// (nil rows for departed nodes).
	PerEpoch []ScaleEpochStats
	Wiring   [][]int
	// Joins and Leaves total the membership events applied.
	Joins, Leaves int
}

// ScaleRun executes one large-scale sampled simulation.
func ScaleRun(opts ScaleOptions) (*ScaleRunResult, error) {
	k, spec := sim.HeadlineRecipe(opts.N, opts.K)
	if opts.Sample != "" {
		var err error
		if spec, err = sampling.ParseSpec(opts.Sample); err != nil {
			return nil, err
		}
	}
	res, err := sim.RunScale(sim.ScaleConfig{
		N: opts.N, K: k, Seed: opts.Seed, Sample: spec,
		Epsilon: opts.Epsilon, MaxEpochs: opts.Epochs, Workers: opts.Workers,
		Churn: opts.Churn,
	})
	if err != nil {
		return nil, err
	}
	out := &ScaleRunResult{
		Epochs:    res.Epochs,
		Converged: res.Converged,
		Wiring:    res.Wiring,
		Joins:     res.Joins,
		Leaves:    res.Leaves,
	}
	for _, ep := range res.PerEpoch {
		out.PerEpoch = append(out.PerEpoch, ScaleEpochStats{
			Rewires: ep.Rewires, EstCost: ep.MeanEstCost, Band: ep.MeanBand,
			Joins: ep.Joins, Leaves: ep.Leaves, Alive: ep.Alive,
		})
	}
	return out, nil
}
