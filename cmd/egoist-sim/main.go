// Command egoist-sim runs a single simulated EGOIST overlay and prints its
// measurements: mean routing cost with confidence interval, efficiency,
// re-wiring counts and protocol overheads.
//
// Examples:
//
//	egoist-sim -n 50 -k 5 -policy BR -metric delay-ping
//	egoist-sim -n 50 -k 5 -policy HybridBR -churn 0.02
//	egoist-sim -n 50 -k 2 -cheaters 8 -epochs 40
//	egoist-sim -scenario ci/scenarios/churn-storm.json
//
// With -scenario the flags above are ignored: the declarative spec
// (the same format the scenario runner, examples/churn and the CI
// matrix consume) fully describes the run, executed here on the full
// simulator unless the spec pins an engine.
package main

import (
	"flag"
	"fmt"
	"os"

	"egoist"
	"egoist/internal/scenario"
	"egoist/internal/vis"
)

// runScenario executes a declarative spec file and prints its metrics.
func runScenario(path string, workers int) {
	spec, err := scenario.Load(path)
	if err != nil {
		die(2, "%v", err)
	}
	engine := spec.Engine
	if engine == "" {
		engine = scenario.EngineFull // this is the full simulator's CLI
	}
	m, runErr := scenario.Run(spec, scenario.Options{Engine: engine, Workers: workers})
	if m != nil {
		fmt.Printf("scenario %s on %s: n=%d k=%d seed=%d\n", m.Scenario, m.Engine, m.N, m.K, m.Seed)
		fmt.Printf("epochs=%d converged=%v churn=%.4f joins=%d leaves=%d\n",
			m.Epochs, m.Converged, m.ChurnRate, m.Joins, m.Leaves)
		fmt.Printf("%-7s %14s %9s\n", "epoch", "cost", "rewires")
		for e := 0; e < m.Epochs; e++ {
			fmt.Printf("%-7d %14.2f %9d\n", e, m.CostPerEpoch[e], m.RewiresPerEpoch[e])
		}
		fmt.Printf("pre-event cost=%.2f final=%.2f recovery epochs=%d\n",
			m.PreEventCost, m.FinalCost, m.RecoveryEpochs)
	}
	if runErr != nil {
		// Expectation violations still print the record above for
		// diagnosis, then fail.
		die(1, "%v", runErr)
	}
}

func main() {
	var (
		n        = flag.Int("n", 50, "overlay size")
		k        = flag.Int("k", 5, "neighbors per node")
		policy   = flag.String("policy", "BR", "BR | k-Random | k-Closest | k-Regular | HybridBR | Full mesh")
		metric   = flag.String("metric", "delay-ping", "delay-ping | delay-coords | load | bandwidth")
		seed     = flag.Int64("seed", 1, "random seed")
		epochs   = flag.Int("epochs", 25, "measured epochs (after warmup)")
		warm     = flag.Int("warm", 15, "warmup epochs")
		epsilon  = flag.Float64("epsilon", 0, "BR(eps) re-wiring threshold, e.g. 0.1")
		churnR   = flag.Float64("churn", 0, "approximate churn rate in events/epoch (0 = none)")
		cheaters = flag.Int("cheaters", 0, "number of free riders announcing 2x costs")
		delays   = flag.String("delays", "", "all-pairs delay trace file (replaces the synthetic underlay; see egoist-trace)")
		topoSVG  = flag.String("topo", "", "write the final overlay topology as SVG to this file")
		workers  = flag.Int("workers", 0, "scale-engine workers for a -scenario spec that pins engine scale (0 = NumCPU; identical results either way); the full simulator is sequential")
		scenFile = flag.String("scenario", "", "run a declarative scenario spec file instead of the ad-hoc flags")
	)
	flag.Parse()

	if *scenFile != "" {
		runScenario(*scenFile, *workers)
		return
	}

	opts := egoist.SimOptions{
		N: *n, K: *k, Seed: *seed,
		Policy: egoist.PolicyKind(*policy), Metric: egoist.MetricKind(*metric),
		Epsilon:    *epsilon,
		WarmEpochs: *warm, MeasureEpochs: *epochs,
		Cheaters: *cheaters,
	}
	if *delays != "" {
		m, err := egoist.LoadDelayTrace(*delays)
		if err != nil {
			die(1, "%v", err)
		}
		opts.Delays = m
		opts.N = m.N()
		fmt.Printf("loaded delay trace: %d nodes\n", m.N())
	}
	if *churnR > 0 {
		total := 2 / *churnR
		sched, err := egoist.MakeChurn(opts.N, float64(*warm+*epochs), total*5/6, total/6, *seed+1)
		if err != nil {
			die(1, "churn: %v", err)
		}
		opts.Churn = sched
		fmt.Printf("churn: requested %.4f, generated %.4f events/epoch\n",
			*churnR, egoist.ChurnRate(sched, float64(*warm+*epochs)))
	}

	res, err := egoist.Simulate(opts)
	if err != nil {
		die(1, "%v", err)
	}

	dir := "lower is better"
	if egoist.MetricKind(*metric).HigherIsBetter() {
		dir = "higher is better"
	}
	fmt.Printf("policy=%s metric=%s n=%d k=%d\n", *policy, *metric, opts.N, *k)
	fmt.Printf("mean cost          : %.2f ± %.2f (%s)\n", res.MeanCost, res.CI95, dir)
	fmt.Printf("mean efficiency    : %.5f\n", res.MeanEfficiency)
	fmt.Printf("steady re-wirings  : %.2f links/epoch\n", res.SteadyRewires)
	fmt.Printf("LSA traffic        : %.0f bits total\n", res.LSABits)
	for cat, bits := range res.ProbeBits {
		fmt.Printf("probe traffic %-6s: %.0f bits total\n", cat, bits)
	}
	fmt.Printf("final wiring (first 5 nodes):\n")
	for i := 0; i < 5 && i < len(res.FinalWiring); i++ {
		fmt.Printf("  node %2d -> %v\n", i, res.FinalWiring[i])
	}
	if *topoSVG != "" {
		f, err := os.Create(*topoSVG)
		if err != nil {
			die(1, "%v", err)
		}
		defer f.Close()
		g := vis.FromWiring(res.FinalWiring, nil)
		if err := vis.Topology(f, g, vis.CirclePositions(len(res.FinalWiring)), -1); err != nil {
			die(1, "%v", err)
		}
		fmt.Printf("topology written to %s\n", *topoSVG)
	}
}

// die reports a fatal error on stderr and exits with code.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "egoist-sim: "+format+"\n", args...)
	os.Exit(code)
}
