// Command egoist-bench regenerates the paper's evaluation figures
// (Sect. 4–6) as text tables: the same series, normalizations and axes the
// paper plots, produced by the simulator over the synthetic underlay.
//
// Usage:
//
//	egoist-bench -fig 1a              # one figure, paper-scale
//	egoist-bench -fig all -scale quick
//	egoist-bench -list
//	egoist-bench -scale 10000 -sample demand:500 -bench-json BENCH_scale.json
//	egoist-bench -scale-sweep 10000,30000,100000 -bench-json BENCH_scale.json
//	egoist-bench -scenario leave-wave-10k -scenarios-json BENCH_scenarios.json
//	egoist-bench -scenarios ci/scenarios -engines scale,full
//
// The -scale <n> form runs the large-scale sampled simulation engine (a
// single convergence run of n nodes, sampled best responses) and writes
// the machine-readable benchmark record CI uploads as an artifact. The
// -scenario form runs one declarative scenario (a built-in name or a
// spec file) and -scenarios runs a whole directory of specs as a
// matrix across the listed engines, writing the BENCH_scenarios.json
// artifact.
//
// -list prints the figure ids; README.md "Experiments" shows the common
// invocations.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"egoist/internal/experiments"
	"egoist/internal/obs"
	"egoist/internal/sampling"
	"egoist/internal/scenario"
	"egoist/internal/sim"
)

// loadScenario resolves a -scenario argument: a built-in name first,
// then a spec file path.
func loadScenario(arg string) (scenario.Spec, error) {
	if spec, ok := scenario.Builtin(arg); ok {
		return spec, nil
	}
	return scenario.Load(arg)
}

// runScenarios executes specs × engines (a spec with an explicit
// engine runs only there) and writes the metrics artifact.
func runScenarios(specs []scenario.Spec, engines []string, workers int, outJSON string) {
	var recs []*scenario.Metrics
	failed := false
	for _, spec := range specs {
		specEngines := engines
		if spec.Engine != "" {
			specEngines = []string{spec.Engine}
		}
		for _, eng := range specEngines {
			start := time.Now()
			m, err := scenario.Run(spec, scenario.Options{Engine: eng, Workers: workers})
			if err != nil {
				fmt.Fprintf(os.Stderr, "egoist-bench: scenario %s/%s: %v\n", spec.Name, eng, err)
				failed = true
				if m == nil {
					continue
				}
			}
			recs = append(recs, m)
			fmt.Printf("scenario %-18s %-5s n=%-6d epochs=%-3d churn=%.4f joins=%-4d leaves=%-4d rewires/ep=%.1f recovery=%d final=%.1f (%v)\n",
				m.Scenario, m.Engine, m.N, m.Epochs, m.ChurnRate, m.Joins, m.Leaves,
				m.MeanRewires, m.RecoveryEpochs, m.FinalCost, time.Since(start).Round(time.Millisecond))
		}
	}
	if outJSON != "" {
		if err := scenario.WriteMetricsJSON(outJSON, recs); err != nil {
			die(1, "%v", err)
		}
		fmt.Printf("wrote %s (%d records)\n", outJSON, len(recs))
	}
	if failed {
		os.Exit(1)
	}
}

// parsePositiveInt parses s as a positive integer (an overlay size for
// the large-scale mode), rejecting the named scales and any trailing
// garbage.
func parsePositiveInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("not positive: %d", n)
	}
	return n, nil
}

// writeSVG renders one figure to dir/fig-<id>.svg.
func writeSVG(dir string, fig *experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "fig-"+fig.ID+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.RenderSVG(f, fig)
}

// runScaleSize executes one large-scale convergence run and returns
// its benchmark record plus whether the run converged. A non-empty
// tracePath streams every engine phase event as one JSON line.
func runScaleSize(n int, spec sampling.Spec, epochs, k, workers int, tracePath string) (experiments.BenchRecord, bool, error) {
	k, _ = sim.HeadlineRecipe(n, k)
	cfg := sim.ScaleConfig{
		N: n, K: k, Seed: 2008, Sample: spec,
		MaxEpochs: epochs, Workers: workers,
	}
	if tracePath != "" {
		tw, err := obs.OpenTrace(tracePath)
		if err != nil {
			return experiments.BenchRecord{}, false, err
		}
		defer tw.Close()
		cfg.OnPhase = func(ev sim.PhaseEvent) {
			if err := tw.Emit(ev); err != nil {
				die(1, "trace: %v", err)
			}
		}
	}
	start := time.Now()
	res, rec, err := experiments.MeasureScale(cfg)
	if err != nil {
		return rec, false, err
	}
	fmt.Printf("scale run: n=%d k=%d sample=%v workers=%d\n", n, k, spec, workers)
	fmt.Printf("%-7s %9s %14s %14s %6s %9s\n", "epoch", "rewires", "est cost", "95% band", "pool", "wall")
	for e, ep := range res.PerEpoch {
		fmt.Printf("%-7d %9d %14.1f %14.1f %6d %8.1fs\n",
			e, ep.Rewires, ep.MeanEstCost, ep.MeanBand, ep.PoolSize, float64(ep.WallNS)/1e9)
	}
	fmt.Printf("converged=%v epochs=%d meanSample=%.1f peakRSS=%.0fMB total=%v\n",
		res.Converged, res.Epochs, res.MeanSampleSize, rec.PeakRSSBytes/1e6,
		time.Since(start).Round(time.Millisecond))
	return rec, res.Converged, nil
}

// runScaleMode executes one large-scale convergence run and optionally
// writes its BENCH_scale.json record.
func runScaleMode(n int, sampleSpec string, epochs, k, workers int, benchJSON, tracePath string) {
	spec, err := sampling.ParseSpec(sampleSpec)
	if err != nil {
		die(2, "%v", err)
	}
	rec, _, err := runScaleSize(n, spec, epochs, k, workers, tracePath)
	if err != nil {
		die(1, "scale run: %v", err)
	}
	if benchJSON != "" {
		if err := experiments.WriteBenchJSON(benchJSON, []experiments.BenchRecord{rec}); err != nil {
			die(1, "%v", err)
		}
		fmt.Printf("wrote %s\n", benchJSON)
	}
}

// runScaleSweep runs the explicit n-sweep (sizes ascending, so each
// VmHWM reading is that size's own peak — see peakRSSBytes) and writes
// one record per size. Sample sizes follow sim.HeadlineRecipe. Unlike
// the single -scale mode, a non-converging size fails the sweep: the
// nightly n-sweep doubles as the converges-within-the-bound acceptance
// gate.
func runScaleSweep(sizesCSV string, epochs, k, workers int, benchJSON string) {
	var sizes []int
	for _, f := range strings.Split(sizesCSV, ",") {
		n, err := parsePositiveInt(strings.TrimSpace(f))
		if err != nil {
			die(2, "bad -scale-sweep size %q: %v", f, err)
		}
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	var recs []experiments.BenchRecord
	for _, n := range sizes {
		_, spec := sim.HeadlineRecipe(n, k)
		rec, converged, err := runScaleSize(n, spec, epochs, k, workers, "")
		if err == nil && !converged {
			err = fmt.Errorf("n=%d did not converge in %d epochs", n, rec.N)
		}
		if err != nil {
			die(1, "scale sweep: %v", err)
		}
		recs = append(recs, rec)
	}
	if benchJSON != "" {
		if err := experiments.WriteBenchJSON(benchJSON, recs); err != nil {
			die(1, "%v", err)
		}
		fmt.Printf("wrote %s (%d records)\n", benchJSON, len(recs))
	}
}

func main() {
	var (
		figID     = flag.String("fig", "all", "figure id to regenerate (see -list), or 'all'")
		scale     = flag.String("scale", "full", "experiment scale: full (paper dimensions) or quick — or an overlay size n (e.g. 10000) to run the large-scale sampled engine instead of figures")
		list      = flag.Bool("list", false, "list available figure ids and exit")
		maxRows   = flag.Int("rows", 30, "max table rows per figure (time series are downsampled)")
		svgDir    = flag.String("svg", "", "also write one SVG plot per figure into this directory")
		workers   = flag.Int("workers", 0, "concurrent simulations per figure sweep (0 = NumCPU, 1 = sequential; identical output either way)")
		sample    = flag.String("sample", "demand:500", "sampling spec for the large-scale engine: strategy:m (uniform, demand, strat)")
		epochs    = flag.Int("epochs", 0, "epoch cap for the large-scale engine (0 = engine default)")
		kFlag     = flag.Int("k", 0, "degree budget for the large-scale engine (0 = size default)")
		scaleSwp  = flag.String("scale-sweep", "", "comma-separated overlay sizes (e.g. 10000,30000,100000): run the large-scale engine once per size, ascending, and write one BENCH record each")
		benchJSON = flag.String("bench-json", "", "write BENCH_scale.json-style records to this path (scale runs and -fig scale)")
		traceOut  = flag.String("trace", "", "stream engine phase events (propose/adopt/churn/publish timings) as JSONL to this path during a -scale <n> run")
		scenOne   = flag.String("scenario", "", "run one declarative scenario: a built-in name (see internal/scenario) or a spec file")
		scenDir   = flag.String("scenarios", "", "run every *.json scenario spec in this directory as a matrix across -engines")
		enginesF  = flag.String("engines", "scale", "comma-separated engines for scenario runs: scale,full (specs with an explicit engine ignore this)")
		scenJSON  = flag.String("scenarios-json", "BENCH_scenarios.json", "write scenario metric records to this path ('' disables)")
	)
	flag.Parse()
	experiments.SetWorkers(*workers)

	if *scenOne != "" || *scenDir != "" {
		engines, err := scenario.EngineList(*enginesF)
		if err != nil {
			die(2, "%v", err)
		}
		var specs []scenario.Spec
		if *scenOne != "" {
			spec, err := loadScenario(*scenOne)
			if err != nil {
				die(2, "%v", err)
			}
			specs = append(specs, spec)
		}
		if *scenDir != "" {
			dirSpecs, err := scenario.LoadDir(*scenDir)
			if err != nil {
				die(2, "%v", err)
			}
			specs = append(specs, dirSpecs...)
		}
		runScenarios(specs, engines, *workers, *scenJSON)
		return
	}

	if *scaleSwp != "" {
		runScaleSweep(*scaleSwp, *epochs, *kFlag, *workers, *benchJSON)
		return
	}

	if n, err := parsePositiveInt(*scale); err == nil {
		runScaleMode(n, *sample, *epochs, *kFlag, *workers, *benchJSON, *traceOut)
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	var sc experiments.Scale
	switch *scale {
	case "full":
		sc = experiments.Full
	case "quick":
		sc = experiments.Quick
	default:
		die(2, "unknown scale %q (want full or quick)", *scale)
	}

	ids := []string{*figID}
	if *figID == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		runner, ok := experiments.Registry[id]
		if !ok {
			die(2, "unknown figure %q (use -list)", id)
		}
		start := time.Now()
		var fig *experiments.Figure
		var err error
		if id == "scale" && *benchJSON != "" {
			var recs []experiments.BenchRecord
			fig, recs, err = experiments.ScaleSweepRecords(sc)
			if err == nil {
				err = experiments.WriteBenchJSON(*benchJSON, recs)
			}
		} else {
			fig, err = runner(sc)
		}
		if err != nil {
			die(1, "figure %s: %v", id, err)
		}
		if err := experiments.Render(os.Stdout, fig, *maxRows); err != nil {
			die(1, "render %s: %v", id, err)
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, fig); err != nil {
				die(1, "svg %s: %v", id, err)
			}
		}
		fmt.Printf("  [figure %s computed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// die reports a fatal error on stderr and exits with code.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "egoist-bench: "+format+"\n", args...)
	os.Exit(code)
}
