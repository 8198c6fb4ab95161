// Command benchmark is the one performance ledger of this repository:
// five named workloads over the engines and the route service, seven
// end-to-end metrics a user of the system would see, and a traced mode
// that explains them layer by layer. BENCHMARK.json at the checkout
// root fixes every name, unit, direction and bound; README.md in this
// directory says why each workload and metric exists.
//
// The benchmark is a module of its own (go.mod beside this file) that
// drives the system only through its public entry points, so that a
// later change to the program cannot edit its own yardstick.
//
//	go run -C benchmark . -workload serve-route-zipf -seed 7 -seconds 10 -trace 0
//	go run -C benchmark .                 # every workload, untraced, one table
//	go run -C benchmark . -trace 1        # then every workload traced, per-layer table
//	go run -C benchmark . -list
//	go run -C benchmark . -compare A1.json,A2.json B1.json,B2.json
//	go run -C benchmark . -regen-fixtures
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// profile sizes the workloads. There are two: the measured one, sized
// so that a run of any workload ends within the contract's budget on a
// 2-vCPU box, and a toy one for the package's own smoke test.
type profile struct {
	scaleN, scaleM, scaleK, scaleEpochs int
	fullN, fullK, fullWarm, fullMeasure int
	churnN, churnM, churnEpochs         int
	fixture                             string // wiring file served by egoist-route
	setupReps                           int
	warmup, window, probe               time.Duration
	childDeadline                       time.Duration
}

func measuredProfile(root string) profile {
	return profile{
		scaleN: 600, scaleM: 100, scaleK: 8, scaleEpochs: 4,
		fullN: 80, fullK: 5, fullWarm: 5, fullMeasure: 5,
		churnN: 600, churnM: 100, churnEpochs: 4,
		fixture:   filepath.Join(root, "benchmark", "fixtures", fixtureName),
		setupReps: 3,
		warmup:    500 * time.Millisecond, window: time.Second, probe: 100 * time.Millisecond,
		childDeadline: 150 * time.Second,
	}
}

func smokeProfile(out string) profile {
	return profile{
		scaleN: 64, scaleM: 16, scaleK: 4, scaleEpochs: 2,
		fullN: 20, fullK: 3, fullWarm: 1, fullMeasure: 1,
		churnN: 64, churnM: 16, churnEpochs: 2,
		fixture:   filepath.Join(out, "smoke-wiring.json"),
		setupReps: 1,
		warmup:    20 * time.Millisecond, window: 100 * time.Millisecond, probe: 2 * time.Millisecond,
		childDeadline: 60 * time.Second,
	}
}

// env is what a workload runs in.
type env struct {
	root, out string
	prof      profile
	seed      int64
	seconds   float64
	workers   int
	tr        *tracer // nil on the untraced run
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	broken            []string // correctness checks that did not hold
	e2e, layer        map[string]float64
	notes             []string
	degraded          bool
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.broken = append(o.broken, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// timeSetup runs a workload's set-up prof.setupReps times and returns
// the median duration in seconds; the last set-up is the one the timed
// section uses. teardown, when non-nil, undoes a set-up that will be
// repeated. One set-up alone would report the first run's cold build.
func (e *env) timeSetup(setup func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < e.prof.setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if teardown != nil && i < e.prof.setupReps-1 {
			teardown()
		}
	}
	return median(secs), nil
}

var workloads = map[string]func(*env) (*outcome, error){
	"scale-converge":   runScaleConverge,
	"full-converge":    runFullConverge,
	"churn-publish":    runChurnPublish,
	"serve-onehop-bin": func(e *env) (*outcome, error) { return runServe(e, serveOneHopBin) },
	"serve-route-zipf": func(e *env) (*outcome, error) { return runServe(e, serveRouteZipf) },
}

// record is one workload's result, as stored in results.json and as
// printed (without the name) on the driver's final line.
type record struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Degraded  bool                   `json:"degraded,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
	smoke    bool
}

func main() {
	var (
		o       options
		trace   = flag.Int("trace", 0, "1 = traced run: spans on, micro-probes, per-layer metrics instead of end-to-end ones")
		list    = flag.Bool("list", false, "print every workload and metric from BENCHMARK.json and exit")
		compare = flag.Bool("compare", false, "compare two result sets: -compare A1.json[,A2.json...] B1.json[,B2.json...]")
		regen   = flag.Bool("regen-fixtures", false, "rebuild fixtures/"+fixtureName+" and its .sha256")
		echo    = flag.String("echo", "", "internal: reqLen,respLen,thinkNS — serve as the loopback echo peer of the wire.loopback_rtt_us probe")
	)
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line (the driver's mode)")
	flag.Int64Var(&o.seed, "seed", 2008, "workload seed: drives engine seeds, churn schedules and query streams")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed section (0 = run_seconds of BENCHMARK.json)")
	flag.StringVar(&o.out, "out", "", "directory for results.json, traces and the built egoist-route (default .bench_build/out under the checkout root)")
	flag.BoolVar(&o.smoke, "smoke", false, "toy sizes and sub-second sections: the package's own smoke test")
	flag.Parse()
	o.traced = *trace == 1
	var err error
	switch {
	case *echo != "":
		err = runEcho(*echo)
	case *list, *compare, *regen:
		err = runTool(*list, *compare, flag.Args())
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// runTool serves the modes that measure nothing: -list, -compare,
// -regen-fixtures.
func runTool(list, compare bool, args []string) error {
	root, spec, err := locate()
	if err != nil {
		return err
	}
	switch {
	case list:
		spec.list()
		return nil
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two comma-separated lists of results.json files")
		}
		return compareSets(spec, args[0], args[1])
	}
	return regenFixture(root, runtime.NumCPU())
}

func locate() (string, *benchSpec, error) {
	root, err := findRoot()
	if err != nil {
		return "", nil, err
	}
	spec, err := loadSpec(root)
	return root, spec, err
}

func run(o options) error {
	root, spec, err := locate()
	if err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(root, ".bench_build", "out")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.workload == "" {
		return runAll(root, spec, o)
	}
	if !spec.hasWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q (see -list)", o.workload)
	}
	// A workload that hangs must end as a failure, not as a run the
	// driver has to kill: the children carry their own, earlier
	// deadlines (see startRoute), this one ends the harness.
	watchdog := time.AfterFunc(workloadDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: no result after %v\n", o.workload, workloadDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	rec, err := runOne(root, spec, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: a correctness check failed", o.workload)
	}
	return nil
}

// runOne runs one workload in this process and prints its metrics by
// name with their units. The caller prints the machine-readable line.
func runOne(root string, spec *benchSpec, opt options) (*record, error) {
	name := opt.workload
	e := &env{root: root, out: opt.out, seed: opt.seed, seconds: opt.seconds, workers: runtime.NumCPU()}
	e.prof = measuredProfile(root)
	if opt.smoke {
		e.prof = smokeProfile(opt.out)
		if err := ensureSmokeFixture(e.prof.fixture); err != nil {
			return nil, err
		}
	}
	if opt.traced {
		e.tr = newTracer()
	}
	o, err := workloads[name](e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rec := &record{
		Correct: len(o.broken) == 0 && o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}, Degraded: o.degraded,
	}
	defs, values := spec.EndToEnd, o.e2e
	if opt.traced {
		defs, values = spec.PerLayer, o.layer
		o.layer["bench.spans"] = float64(e.tr.count())
		path := filepath.Join(opt.out, "trace-"+name+".jsonl")
		if err := e.tr.write(path); err != nil {
			return nil, err
		}
		printSpanTable(e.tr)
		fmt.Printf("trace written to %s\n", path)
	}
	fmt.Printf("%s seed=%d seconds=%g traced=%v\n", name, opt.seed, opt.seconds, opt.traced)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !opt.traced {
			return nil, fmt.Errorf("%s did not produce end-to-end metric %s", name, d.Name)
		}
		// A per-layer metric whose layer is not on this workload's path
		// reads 0.
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for k := range values {
		if _, ok := rec.Metrics[k]; !ok {
			return nil, fmt.Errorf("%s produced metric %s, which BENCHMARK.json does not list", name, k)
		}
	}
	fmt.Printf("  attempted %d, failed %d\n", o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, b := range o.broken {
		fmt.Printf("  INCORRECT: %s\n", b)
	}
	return rec, nil
}

// printSpanTable prints every span name with its count, total and self
// time, and its share of its parent's total: a layer can save the
// result at most its share of the steps that block it, so a later claim
// larger than that share is wrong on its face.
func printSpanTable(t *tracer) {
	tot := t.totals()
	byName := map[string]spanTotals{}
	for _, s := range tot {
		byName[s.Name] = s
	}
	fmt.Printf("  %-16s %-12s %8s %11s %11s %10s\n", "span", "parent", "count", "total ms", "self ms", "of parent")
	for _, s := range tot {
		share := ""
		if p, ok := byName[s.Parent]; ok && p.Total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(s.Total)/float64(p.Total))
		}
		fmt.Printf("  %-16s %-12s %8d %11.3f %11.3f %10s\n", s.Name, s.Parent, s.Count,
			float64(s.Total.Nanoseconds())/1e6, float64(s.Self.Nanoseconds())/1e6, share)
	}
}

// resultsFile is results.json.
type resultsFile struct {
	Host     hostStamp `json:"host"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Smoke    bool      `json:"smoke,omitempty"`
	Records  []record  `json:"end_to_end"`
	PerLayer []record  `json:"per_layer,omitempty"`
}

func (f *resultsFile) find(workload string) *record {
	for i := range f.Records {
		if f.Records[i].Workload == workload {
			return &f.Records[i]
		}
	}
	return nil
}
