package sim

import (
	"fmt"
	"math/rand"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/sampling"
	"egoist/internal/topology"
)

// NewcomerStrategy names the wiring strategy of the joining node in the
// sampling experiments. All strategies operate on a size-m sample except
// BRtp, which draws its sample with topology bias.
type NewcomerStrategy int

const (
	// NewcomerKRandom wires to k random members of a random sample.
	NewcomerKRandom NewcomerStrategy = iota
	// NewcomerKRegular wires with the offset rule over a random sample.
	NewcomerKRegular
	// NewcomerKClosest wires to the k closest members of a random sample.
	NewcomerKClosest
	// NewcomerBR computes BR over a random sample.
	NewcomerBR
	// NewcomerBRtp computes BR over a topology-biased sample.
	NewcomerBRtp
	// NewcomerBRFull computes BR over the full residual graph (the
	// normalization baseline of Figs. 5–8).
	NewcomerBRFull
)

// String names the strategy as the figures label it.
func (s NewcomerStrategy) String() string {
	switch s {
	case NewcomerKRandom:
		return "k-Random"
	case NewcomerKRegular:
		return "k-Regular"
	case NewcomerKClosest:
		return "k-Closest"
	case NewcomerBR:
		return "BR"
	case NewcomerBRtp:
		return "BRtp"
	case NewcomerBRFull:
		return "BR-no-sampling"
	default:
		return fmt.Sprintf("NewcomerStrategy(%d)", int(s))
	}
}

// NewcomerConfig parameterizes one sampling experiment.
type NewcomerConfig struct {
	// Delays is the static all-pairs delay matrix (the n=295 PlanetLab
	// trace or a synthetic stand-in). The newcomer is node Delays.N()-1;
	// the base graph is grown over nodes 0..N-2.
	Delays topology.DelayMatrix
	// K is the degree budget (paper: 3).
	K int
	// Grow is the policy the base graph grows with (Sect. 5): the
	// incremental construction where node i joins the overlay formed by
	// nodes 0..i-1. BR (nil), core.KRandom, core.KRegular or
	// core.KClosest.
	Grow core.Policy
	// SampleSize is m; SamplePrime is m' (default 2m); Radius is r
	// (default 2).
	SampleSize, SamplePrime, Radius int
	// Seed drives sampling and random wiring.
	Seed int64
	// Base, when non-nil, supplies a pre-grown base graph (from GrowBase)
	// so sweeps over sample sizes need not re-grow it. It must have been
	// grown over the same Delays, K and Grow policy.
	Base *graph.Digraph
}

// GrowBase builds (and settles) the base overlay graph for the sampling
// experiments, for reuse across RunNewcomer calls via NewcomerConfig.Base.
func GrowBase(cfg NewcomerConfig) (*graph.Digraph, error) {
	return growBase(cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// NewcomerResult reports the newcomer's achieved cost per strategy.
type NewcomerResult struct {
	// Cost[strategy] is the newcomer's uniform-preference routing cost.
	Cost map[NewcomerStrategy]float64
	// Ratio[strategy] is Cost[strategy] / Cost[NewcomerBRFull].
	Ratio map[NewcomerStrategy]float64
}

// RunNewcomer grows the base overlay, then wires the newcomer with every
// strategy and reports the cost each one achieves (Figs. 5–8).
func RunNewcomer(cfg NewcomerConfig) (*NewcomerResult, error) {
	n := cfg.Delays.N()
	if n < 4 {
		return nil, fmt.Errorf("sim: need >= 4 nodes, got %d", n)
	}
	if cfg.K < 1 || cfg.K >= n-1 {
		return nil, fmt.Errorf("sim: bad k %d", cfg.K)
	}
	if cfg.SampleSize < cfg.K {
		return nil, fmt.Errorf("sim: sample size %d below k %d", cfg.SampleSize, cfg.K)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := cfg.Base
	if base == nil {
		var err error
		base, err = growBase(cfg, rng)
		if err != nil {
			return nil, err
		}
	}
	newcomer := n - 1
	direct := make([]float64, n)
	for j := 0; j < n; j++ {
		if j != newcomer {
			direct[j] = cfg.Delays[newcomer][j]
		}
	}
	var cands []int
	for j := 0; j < n-1; j++ {
		cands = append(cands, j)
	}

	// The residual graph G−newcomer: a forest of the base, cut at the
	// newcomer.
	live := graph.NewSPForest()
	live.Reset(base, false)
	live.RemoveOut(newcomer)
	resid := live.Dist()
	// brInst builds the scaled-input instance of Sect. 5: when a sample is
	// in play, both the candidate set and the objective's destination pairs
	// are limited to the sample.
	brInst := func(sample []int) *core.Instance {
		return &core.Instance{
			Self: newcomer, Kind: core.Additive, Direct: direct, Resid: resid,
			Candidates: sample, Dests: sample,
		}
	}

	res := &NewcomerResult{Cost: map[NewcomerStrategy]float64{}, Ratio: map[NewcomerStrategy]float64{}}
	// Evaluation is always over the full destination set, regardless of
	// what the newcomer sampled while deciding.
	evalInst := &core.Instance{Self: newcomer, Kind: core.Additive, Direct: direct, Resid: resid}

	wire := func(s NewcomerStrategy) ([]int, error) {
		switch s {
		case NewcomerBRFull:
			full := brInst(nil)
			chosen, _, err := core.BestResponse(full, cfg.K, core.BROptions{})
			return chosen, err
		case NewcomerBR:
			sample := sampling.Random(rng, cands, cfg.SampleSize)
			chosen, _, err := core.BestResponse(brInst(sample), cfg.K, core.BROptions{})
			return chosen, err
		case NewcomerBRtp:
			sample, err := sampling.Biased(rng, base.WithoutNode(newcomer), cands, direct, sampling.BiasedConfig{
				M: cfg.SampleSize, MPrime: cfg.SamplePrime, Radius: cfg.Radius,
			})
			if err != nil {
				return nil, err
			}
			chosen, _, err := core.BestResponse(brInst(sample), cfg.K, core.BROptions{})
			return chosen, err
		case NewcomerKRandom:
			sample := sampling.Random(rng, cands, cfg.SampleSize)
			return sampling.Random(rng, sample, cfg.K), nil
		case NewcomerKClosest:
			sample := sampling.Random(rng, cands, cfg.SampleSize)
			req := &core.Request{Self: newcomer, K: cfg.K, Kind: core.Additive, Direct: direct, Sample: sample}
			return core.KClosest{}.Select(req)
		case NewcomerKRegular:
			sample := sampling.Random(rng, cands, cfg.SampleSize)
			// Offset rule over the sampled ring: pick evenly spaced members.
			var out []int
			k := cfg.K
			for j := 0; j < k && j*len(sample)/k < len(sample); j++ {
				out = append(out, sample[j*len(sample)/k])
			}
			return out, nil
		default:
			return nil, fmt.Errorf("sim: unknown strategy %d", s)
		}
	}

	for _, s := range []NewcomerStrategy{
		NewcomerBRFull, NewcomerBR, NewcomerBRtp,
		NewcomerKRandom, NewcomerKClosest, NewcomerKRegular,
	} {
		chosen, err := wire(s)
		if err != nil {
			return nil, fmt.Errorf("sim: strategy %v: %w", s, err)
		}
		res.Cost[s] = evalInst.Eval(chosen) / float64(n-1)
	}
	baseCost := res.Cost[NewcomerBRFull]
	for s, c := range res.Cost {
		res.Ratio[s] = c / baseCost
	}
	return res, nil
}

// growBase grows the overlay of nodes 0..n-2 with the configured policy,
// using true delays as direct costs (the static-trace setting of Sect. 5),
// in one loop of passes. Pass 0 is the incremental join: node v picks
// over the nodes 0..v-1 that joined before it. Each settle pass after it
// re-wires every node over the whole base: a node that joined early chose
// among the handful of nodes present at the time, and without these
// passes the base keeps degenerate early wirings no deployed system
// (which re-wires every epoch) would retain. BR settles twice — the
// best-response dynamics converging toward the SNS equilibria of the
// underlying game — and k-Random and k-Closest once. k-Regular's offsets
// are taken over the final ring, so it skips the join and wires in one
// pass.
//
// Under BR every step is priced on one shortest-path forest carried
// through the growth, the full engine's slot: cut v's out-links, read the
// residual matrix, commit v's new links.
func growBase(cfg NewcomerConfig, rng *rand.Rand) (*graph.Digraph, error) {
	n := cfg.Delays.N() - 1 // newcomer excluded
	g := graph.New(cfg.Delays.N())
	active := aliveUpTo(cfg.Delays.N(), n)
	var live *graph.SPForest
	var sc core.Scratch
	if b, ok := cfg.Grow.(core.BRPolicy); ok && b.Donated > 0 {
		return nil, fmt.Errorf("sim: a base graph cannot grow with %s", b.Name())
	}
	first, last := 0, 1
	switch cfg.Grow.(type) {
	case nil, core.BRPolicy:
		live = graph.NewSPForest()
		live.Reset(g, false)
		last = 2
	case core.KRandom, core.KClosest:
	case core.KRegular:
		first = 1
	default:
		return nil, fmt.Errorf("sim: a base graph cannot grow with %s", cfg.Grow.Name())
	}
	pick := func(v int, pool []int, k int, resid [][]float64) ([]int, error) {
		switch cfg.Grow.(type) {
		case core.KRandom:
			return sampling.Random(rng, pool, k), nil
		case core.KClosest:
			return core.KClosest{}.Select(&core.Request{Self: v, K: k, Kind: core.Additive, Direct: directRow(cfg.Delays, v), Sample: pool})
		case core.KRegular:
			return core.KRegular{}.Select(&core.Request{Self: v, K: k, Direct: cfg.Delays[v], Active: active})
		}
		inst := &core.Instance{
			Self: v, Kind: core.Additive, Direct: directRow(cfg.Delays, v),
			Resid: resid, Candidates: pool, Dests: pool,
		}
		chosen, _, err := core.BestResponseScratch(inst, k, core.BROptions{}, &sc)
		return chosen, err
	}
	for pass := first; pass <= last; pass++ {
		for v := 0; v < n; v++ {
			pool := seqExcept(0, v, -1)
			if pass > 0 {
				pool = seqExcept(0, n, v)
			}
			k := min(cfg.K, len(pool))
			if k == 0 {
				continue
			}
			var resid [][]float64
			if live != nil {
				live.RemoveOut(v)
				resid = live.Dist()
			}
			chosen, err := pick(v, pool, k, resid)
			if err != nil {
				return nil, err
			}
			g.ClearOut(v)
			for _, w := range chosen {
				g.AddArc(v, w, cfg.Delays[v][w])
			}
			if live != nil {
				live.CommitOut(g.Out(v))
			}
		}
	}
	// The paper's growth processes keep the graph connected (BR reconnects
	// via the disconnection penalty); enforce a cycle for the heuristics.
	wirings := make([][]int, cfg.Delays.N())
	for v := 0; v < n; v++ {
		wirings[v] = g.Neighbors(v)
	}
	if core.EnforceCycle(wirings, core.Additive, active, func(i, j int) float64 { return cfg.Delays[i][j] }) {
		g = graph.New(cfg.Delays.N())
		for v := 0; v < n; v++ {
			for _, w := range wirings[v] {
				g.AddArc(v, w, cfg.Delays[v][w])
			}
		}
	}
	return g, nil
}

// seqExcept returns lo..hi-1 without skip.
func seqExcept(lo, hi, skip int) []int {
	var out []int
	for v := lo; v < hi; v++ {
		if v != skip {
			out = append(out, v)
		}
	}
	return out
}

func directRow(m topology.DelayMatrix, v int) []float64 {
	out := make([]float64, m.N())
	for j := range out {
		if j != v {
			out[j] = m[v][j]
		}
	}
	return out
}

func aliveUpTo(n, hi int) []bool {
	out := make([]bool, n)
	for v := 0; v < hi && v < n; v++ {
		out[v] = true
	}
	return out
}
