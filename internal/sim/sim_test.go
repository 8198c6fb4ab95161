package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"egoist/internal/cheat"
	"egoist/internal/churn"
	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/topology"
)

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func baseCfg(policy core.Policy) Config {
	return Config{
		N: 24, K: 3, Seed: 42, Metric: DelayPing, Policy: policy,
		WarmEpochs: 6, MeasureEpochs: 4,
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{N: 1, K: 1, Policy: core.BRPolicy{}, MeasureEpochs: 1},
		{N: 10, K: 0, Policy: core.BRPolicy{}, MeasureEpochs: 1},
		{N: 10, K: 10, Policy: core.BRPolicy{}, MeasureEpochs: 1},
		{N: 10, K: 2, MeasureEpochs: 1},
		{N: 10, K: 2, Policy: core.BRPolicy{}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// TestRunRejectsChurnOfWrongSize: a schedule built for another overlay
// size is an error naming both sizes, not an index panic (larger N) or
// churn on a prefix of the nodes (smaller N).
func TestRunRejectsChurnOfWrongSize(t *testing.T) {
	for _, n := range []int{20, 30} {
		cfg := baseCfg(core.BRPolicy{})
		cfg.Churn = testChurn(n)
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("%d-node schedule accepted for N = %d", n, cfg.N)
		}
		if want := fmt.Sprintf("%d nodes, config %d", n, cfg.N); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name both sizes (%q)", err, want)
		}
	}
}

func TestRunProducesFiniteCosts(t *testing.T) {
	res := run(t, baseCfg(core.BRPolicy{}))
	if math.IsNaN(res.Cost.Mean) || res.Cost.Mean <= 0 {
		t.Fatalf("mean cost = %v", res.Cost.Mean)
	}
	if res.Cost.Mean >= core.DisconnectedPenalty {
		t.Fatalf("mean cost %v includes disconnection penalties; BR overlay should be connected", res.Cost.Mean)
	}
	if res.EpochsRun != 10 {
		t.Fatalf("EpochsRun = %d, want 10", res.EpochsRun)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := run(t, baseCfg(core.BRPolicy{}))
	b := run(t, baseCfg(core.BRPolicy{}))
	if a.Cost.Mean != b.Cost.Mean {
		t.Fatalf("same seed, different costs: %v vs %v", a.Cost.Mean, b.Cost.Mean)
	}
}

func TestBRBeatsHeuristicsOnDelay(t *testing.T) {
	br := run(t, baseCfg(core.BRPolicy{}))
	krand := run(t, baseCfg(core.KRandom{}))
	cfgReg := baseCfg(core.KRegular{})
	kreg := run(t, cfgReg)

	if br.Cost.Mean >= krand.Cost.Mean {
		t.Errorf("BR %.1f not better than k-Random %.1f", br.Cost.Mean, krand.Cost.Mean)
	}
	if br.Cost.Mean >= kreg.Cost.Mean {
		t.Errorf("BR %.1f not better than k-Regular %.1f", br.Cost.Mean, kreg.Cost.Mean)
	}
}

func TestFullMeshLowerBoundsBR(t *testing.T) {
	cfgMesh := baseCfg(core.FullMesh{})
	cfgMesh.K = cfgMesh.N - 1
	mesh := run(t, cfgMesh)
	br := run(t, baseCfg(core.BRPolicy{}))
	// Allow a tiny tolerance: the mesh is measured on the same dynamic
	// underlay, so individual epochs can wobble.
	if mesh.Cost.Mean > br.Cost.Mean*1.05 {
		t.Fatalf("full mesh %.1f worse than BR %.1f; should be a lower bound", mesh.Cost.Mean, br.Cost.Mean)
	}
}

func TestBandwidthMetricHigherIsBetter(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{})
	cfg.Metric = Bandwidth
	br := run(t, cfg)
	cfgR := baseCfg(core.KRegular{})
	cfgR.Metric = Bandwidth
	kreg := run(t, cfgR)
	if br.Cost.Mean <= kreg.Cost.Mean {
		t.Errorf("bandwidth-BR %.1f not above k-Regular %.1f", br.Cost.Mean, kreg.Cost.Mean)
	}
}

func TestLoadMetricRuns(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{})
	cfg.Metric = Load
	res := run(t, cfg)
	if math.IsNaN(res.Cost.Mean) || res.Cost.Mean <= 0 {
		t.Fatalf("load cost = %v", res.Cost.Mean)
	}
}

func TestCoordsMetricRuns(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{})
	cfg.Metric = DelayCoords
	res := run(t, cfg)
	if math.IsNaN(res.Cost.Mean) || res.Cost.Mean <= 0 {
		t.Fatalf("coords cost = %v", res.Cost.Mean)
	}
	if res.ProbeBits["coord"] <= 0 {
		t.Fatal("coordinate queries not accounted")
	}
}

func TestRewiringsDecayOverTime(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{})
	cfg.WarmEpochs = 0
	cfg.MeasureEpochs = 24
	res := run(t, cfg)
	per := res.Rewires.PerEpoch()
	if len(per) == 0 {
		t.Fatal("no re-wiring data")
	}
	early := 0
	for _, v := range per[:4] {
		early += v
	}
	late := 0
	for _, v := range per[len(per)-4:] {
		late += v
	}
	if late > early {
		t.Fatalf("re-wirings grew over time: early %d late %d", early, late)
	}
}

func TestEpsilonReducesRewirings(t *testing.T) {
	plain := baseCfg(core.BRPolicy{})
	plain.WarmEpochs, plain.MeasureEpochs = 0, 20
	resPlain := run(t, plain)

	eps := plain
	eps.Epsilon = 0.10
	resEps := run(t, eps)

	plainTail := resPlain.Rewires.Tail(0.5)
	epsTail := resEps.Rewires.Tail(0.5)
	if epsTail > plainTail {
		t.Fatalf("BR(0.1) tail re-wirings %.1f above plain BR %.1f", epsTail, plainTail)
	}
	// And cost should not explode: within 25% of plain BR.
	if resEps.Cost.Mean > resPlain.Cost.Mean*1.25 {
		t.Fatalf("BR(0.1) cost %.1f far above plain %.1f", resEps.Cost.Mean, resPlain.Cost.Mean)
	}
}

func TestChurnReducesEfficiency(t *testing.T) {
	calm := baseCfg(core.BRPolicy{})
	calm.WarmEpochs, calm.MeasureEpochs = 4, 8
	resCalm := run(t, calm)

	sched, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: calm.N, Horizon: 12, On: churn.Exponential{Mean: 3}, Off: churn.Exponential{Mean: 1.5}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	churned := calm
	churned.Churn = sched
	resChurn := run(t, churned)

	if resChurn.Efficiency.Mean >= resCalm.Efficiency.Mean {
		t.Fatalf("churned efficiency %.4f not below calm %.4f",
			resChurn.Efficiency.Mean, resCalm.Efficiency.Mean)
	}
}

func TestChurnedNodesRejoinAndRewire(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{})
	cfg.WarmEpochs, cfg.MeasureEpochs = 2, 10
	sched := &churn.Schedule{
		N:         cfg.N,
		InitialOn: allOn(cfg.N),
		Events: []churn.Event{
			{Time: 3.2, Node: 5, On: false},
			{Time: 6.7, Node: 5, On: true},
		},
	}
	cfg.Churn = sched
	res := run(t, cfg)
	if len(res.FinalWiring[5]) == 0 {
		t.Fatal("rejoined node has no links")
	}
	if math.IsNaN(res.PerNodeCost[5]) {
		t.Fatal("rejoined node has no cost samples")
	}
}

func TestCheaterImpactIsBounded(t *testing.T) {
	honest := baseCfg(core.BRPolicy{})
	honest.WarmEpochs, honest.MeasureEpochs = 6, 6
	resHonest := run(t, honest)

	cheating := honest
	cheating.Cheat = cheat.Single(honest.N, 3, 2)
	resCheat := run(t, cheating)

	ratio := resCheat.Cost.Mean / resHonest.Cost.Mean
	if ratio > 1.3 || ratio < 0.7 {
		t.Fatalf("single cheater moved mean cost by %.0f%%; paper says impact is small", (ratio-1)*100)
	}
}

func TestHybridBRUsesDonatedLinks(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{Donated: 2})
	res := run(t, cfg)
	// Every node should carry its two ring links (alive ring = all nodes).
	for i, ws := range res.FinalWiring {
		succ := (i + 1) % cfg.N
		pred := (i - 1 + cfg.N) % cfg.N
		if !contains(ws, succ) || !contains(ws, pred) {
			t.Fatalf("node %d wiring %v missing donated ring links %d/%d", i, ws, succ, pred)
		}
	}
}

func TestOverheadAccountingPing(t *testing.T) {
	cfg := baseCfg(core.BRPolicy{})
	res := run(t, cfg)
	if res.ProbeBits["ping"] <= 0 {
		t.Fatal("ping traffic not accounted")
	}
	if res.LSABits <= 0 {
		t.Fatal("LSA traffic not accounted")
	}
}

func TestFinalWiringRespectsK(t *testing.T) {
	res := run(t, baseCfg(core.BRPolicy{}))
	for i, ws := range res.FinalWiring {
		if len(ws) > 3 {
			t.Fatalf("node %d has %d links, budget 3", i, len(ws))
		}
	}
}

// --- newcomer / sampling simulations ---------------------------------------

func newcomerCfg(grow core.Policy, m int) NewcomerConfig {
	rng := rand.New(rand.NewSource(11))
	return NewcomerConfig{
		Delays:     topology.Waxman(60, 150, rng),
		K:          3,
		Grow:       grow,
		SampleSize: m,
		Seed:       5,
	}
}

func TestNewcomerFullBRIsBestOnAverage(t *testing.T) {
	var brWins, trials int
	for seed := int64(0); seed < 5; seed++ {
		cfg := newcomerCfg(nil, 10)
		cfg.Seed = seed
		res, err := RunNewcomer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trials++
		if res.Ratio[NewcomerBR] >= 1-1e-9 && res.Ratio[NewcomerBRtp] >= 1-1e-9 {
			brWins++
		}
		for s, r := range res.Ratio {
			if r <= 0 || math.IsNaN(r) {
				t.Fatalf("strategy %v ratio %v", s, r)
			}
		}
	}
	if brWins < trials-1 {
		t.Fatalf("full BR beaten by sampled strategies in %d/%d trials", trials-brWins, trials)
	}
}

func TestNewcomerSampledBRBeatsHeuristics(t *testing.T) {
	sumBR, sumRand := 0.0, 0.0
	const trials = 6
	for seed := int64(0); seed < trials; seed++ {
		cfg := newcomerCfg(nil, 10)
		cfg.Seed = seed
		res, err := RunNewcomer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sumBR += res.Ratio[NewcomerBR]
		sumRand += res.Ratio[NewcomerKRandom]
	}
	if sumBR >= sumRand {
		t.Fatalf("sampled BR mean ratio %.3f not below k-Random %.3f", sumBR/trials, sumRand/trials)
	}
}

func TestNewcomerLargerSamplesHelp(t *testing.T) {
	avg := func(m int) float64 {
		sum := 0.0
		const trials = 6
		for seed := int64(0); seed < trials; seed++ {
			cfg := newcomerCfg(nil, m)
			cfg.Seed = seed
			res, err := RunNewcomer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Ratio[NewcomerBR]
		}
		return sum / trials
	}
	small, large := avg(5), avg(25)
	if large > small*1.05 {
		t.Fatalf("sample 25 ratio %.3f worse than sample 5 ratio %.3f", large, small)
	}
}

func TestNewcomerAllGrowPolicies(t *testing.T) {
	for _, g := range []core.Policy{core.BRPolicy{}, core.KRandom{}, core.KRegular{}, core.KClosest{}} {
		cfg := newcomerCfg(g, 10)
		res, err := RunNewcomer(cfg)
		if err != nil {
			t.Fatalf("grow %s: %v", g.Name(), err)
		}
		if res.Ratio[NewcomerBRFull] != 1 {
			t.Fatalf("grow %s: baseline ratio %v != 1", g.Name(), res.Ratio[NewcomerBRFull])
		}
	}
}

func TestNewcomerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := topology.Waxman(10, 100, rng)
	bad := []NewcomerConfig{
		{Delays: m[:2], K: 1, SampleSize: 2},
		{Delays: m, K: 0, SampleSize: 5},
		{Delays: m, K: 3, SampleSize: 1},
	}
	for i, cfg := range bad {
		if _, err := RunNewcomer(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestGrowBaseKRegularFullBudget: at the largest budget, K = n-2 over the
// n-1 base nodes, the offset rule wraps onto the node itself and must
// resolve the collision, so every base node still gets K links.
func TestGrowBaseKRegularFullBudget(t *testing.T) {
	cfg := NewcomerConfig{Delays: topology.Waxman(7, 150, rand.New(rand.NewSource(2))), K: 5, Grow: core.KRegular{}}
	base, err := GrowBase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if got := len(base.Neighbors(v)); got != cfg.K {
			t.Errorf("node %d has %d links, want %d", v, got, cfg.K)
		}
	}
}

func TestGrowBaseConnected(t *testing.T) {
	for _, g := range []core.Policy{core.BRPolicy{}, core.KRandom{}, core.KRegular{}, core.KClosest{}} {
		cfg := newcomerCfg(g, 10)
		rng := rand.New(rand.NewSource(3))
		base, err := growBase(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := cfg.Delays.N()
		active := aliveUpTo(n, n-1)
		if !graph.StronglyConnected(base, active) {
			t.Fatalf("grow %s: base graph disconnected", g.Name())
		}
	}
}

func allOn(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestRejoinerWiresFullyAtNextEpoch pins the join rule of Sect. 3.1 on a
// hand-written schedule: node 5 leaves in epoch 1 and re-joins early in
// epoch 2 with one bootstrap link. After its next wiring slot it must
// hold the full K links, under the static policies as under the others.
func TestRejoinerWiresFullyAtNextEpoch(t *testing.T) {
	const n, k, node = 12, 3, 5
	on := make([]bool, n)
	for i := range on {
		on[i] = true
	}
	sched := &churn.Schedule{N: n, InitialOn: on, Events: []churn.Event{
		{Time: 1.05, Node: node, On: false},
		{Time: 2.05, Node: node, On: true},
	}}
	for _, p := range []core.Policy{core.KRandom{}, core.KRegular{}, core.KClosest{}, core.BRPolicy{}} {
		res, err := Run(Config{
			N: n, K: k, Seed: 7, Metric: DelayPing, Policy: p,
			WarmEpochs: 2, MeasureEpochs: 2, Churn: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.FinalWiring[node]; len(got) != k {
			t.Errorf("%s: re-joined node %d holds %v after a full epoch, want %d links", p.Name(), node, got, k)
		}
	}
}
