package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// childEnv marks a re-execution of the test binary as the benchmark
// program itself: the all-workloads pass and the loopback probe both
// start os.Executable(), which under `go test` is this binary.
const childEnv = "EGOIST_BENCH_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func testSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

// TestFixture pins the committed serve overlay: it loads, has exactly k
// distinct in-range out-links per node, and matches the recorded
// SHA-256 (loadFixture checks all three).
func TestFixture(t *testing.T) {
	root, _ := testSpec(t)
	path := filepath.Join(root, "benchmark", "fixtures", fixtureName)
	if _, err := os.Stat(path + ".sha256"); err != nil {
		t.Fatalf("no recorded digest beside the fixture: %v", err)
	}
	wf, err := loadFixture(path)
	if err != nil {
		t.Fatal(err)
	}
	if wf.N != 2500 || wf.K != 8 {
		t.Fatalf("fixture is n=%d k=%d, want n=2500 k=8", wf.N, wf.K)
	}
}

// TestSpecNames checks BENCHMARK.json against the contract's naming
// rules and the workload table against the spec.
func TestSpecNames(t *testing.T) {
	_, spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d workloads implemented, %d listed", len(workloads), len(spec.Workloads))
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %q: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestSmoke runs every workload, untraced and traced, at toy scale
// through the same code path as the measured run, and checks that the
// emitted names are exactly those of BENCHMARK.json, that every
// end-to-end value is non-zero, and that -compare passes a file against
// itself and fails it against a doctored copy.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts processes")
	}
	root, spec := testSpec(t)
	t.Setenv(childEnv, "1")
	out := t.TempDir()
	t0 := time.Now()
	if err := runAll(root, spec, options{seed: 2008, seconds: 0.3, traced: true, out: out, smoke: true}); err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke pass took %v", time.Since(t0).Round(time.Millisecond))
	path := filepath.Join(out, "results.json")
	res, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.GoVersion == "" || res.Host.NProc < 1 || res.Seed != 2008 {
		t.Errorf("results.json is not stamped: %+v", res.Host)
	}
	sameNames := func(kind string, defs []metricDef, recs []record) {
		if len(recs) != len(spec.Workloads) {
			t.Fatalf("%s: %d records for %d workloads", kind, len(recs), len(spec.Workloads))
		}
		for i, r := range recs {
			if r.Workload != spec.Workloads[i].Name {
				t.Errorf("%s record %d is %q, want %q", kind, i, r.Workload, spec.Workloads[i].Name)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s %s: correct=%v failed=%d attempted=%d", kind, r.Workload, r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s %s: %d metrics emitted, %d listed", kind, r.Workload, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s %s: metric %s missing", kind, r.Workload, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s %s: metric %s has unit %q, want %q", kind, r.Workload, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
	sameNames("end-to-end", spec.EndToEnd, res.Records)
	sameNames("per-layer", spec.PerLayer, res.PerLayer)
	for _, r := range res.Records {
		for _, k := range sortedKeys(r.Metrics) {
			if r.Metrics[k].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v", r.Workload, k, r.Metrics[k].Value)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil {
			t.Errorf("no trace file for %s: %v", w.Name, err)
		}
	}

	if err := compareSets(spec, path, path); err != nil {
		t.Errorf("a file compared with itself: %v", err)
	}
	res.Records[0].Metrics["op_ms"] = metricValue{Value: 2 * res.Records[0].Metrics["op_ms"].Value, Unit: "ms"}
	doctored := filepath.Join(out, "doctored.json")
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareSets(spec, path, doctored); err == nil {
		t.Error("a doubled op_ms passed -compare")
	}
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "kid", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "kid", Start: 30, End: 60},  // overlaps the first
		{ID: 3, Parent: 0, Name: "kid", Start: 90, End: 120}, // runs past the parent
	}
	var parent spanTotals
	for _, s := range tr.totals() {
		if s.Name == "parent" {
			parent = s
		}
	}
	// Children cover [10,60) and [90,100): 60 of the parent's 100.
	if parent.Total != 100 || parent.Self != 40 {
		t.Errorf("parent total=%d self=%d, want 100 and 40", parent.Total, parent.Self)
	}
	var none *tracer
	none.end(none.begin("x", -1, 0))
	if none.count() != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6}
	if m := median(xs); m != 3.5 {
		t.Errorf("median = %v, want 3.5", m)
	}
	if p := percentile(xs, 0.5); p != 3 {
		t.Errorf("p50 = %v, want 3", p)
	}
	if p := percentile(xs, 0.99); p != 6 {
		t.Errorf("p99 = %v, want 6", p)
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio by zero is not 0")
	}
}
