package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"egoist/internal/clitest"
	"egoist/internal/experiments"
	"egoist/internal/scenario"
)

// TestMainInProcess drives main()'s scenario, list and scale paths in
// process for coverage (subprocess smoke binaries run uninstrumented;
// see clitest.RunMain).
func TestMainInProcess(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "smoke.json")
	spec := `{"name":"bench-main-smoke","engine":"scale","n":60,"k":2,"seed":7,"epochs":2,"sample":"uniform:8"}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	outJSON := filepath.Join(dir, "out.json")
	clitest.RunMain(t, main, "egoist-bench", "-scenario", specPath, "-workers", "2", "-scenarios-json", outJSON)
	if _, err := scenario.ReadMetricsJSON(outJSON); err != nil {
		t.Fatal(err)
	}
	clitest.RunMain(t, main, "egoist-bench", "-list")
	tracePath := filepath.Join(dir, "trace.jsonl")
	clitest.RunMain(t, main, "egoist-bench", "-scale", "80", "-sample", "uniform:10", "-k", "2", "-epochs", "2", "-workers", "2",
		"-bench-json", filepath.Join(dir, "scale.json"), "-trace", tracePath)
	// Propose events carry the proposers that solved and those kept on
	// the bound; the bootstrap epoch solves.
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	solved := 0
	for _, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
		var ev struct {
			Phase  string
			Kept   int
			Solved int
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Phase == "propose" {
			solved += ev.Solved
		}
	}
	if solved == 0 {
		t.Fatalf("no propose event in the trace reports a solve:\n%s", trace)
	}

	// The n-sweep path: both sizes converge well inside 24 epochs, and
	// the artifact carries one record per size with the RSS column set.
	sweepJSON := filepath.Join(dir, "sweep.json")
	clitest.RunMain(t, main, "egoist-bench", "-scale-sweep", "60,40", "-epochs", "24", "-workers", "2",
		"-bench-json", sweepJSON)
	recs, err := experiments.ReadBenchJSON(sweepJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "scale/n=40/demand:6" || recs[1].Name != "scale/n=60/demand:6" {
		t.Fatalf("sweep records = %+v, want ascending n=40,60", recs)
	}
	for _, rec := range recs {
		if rec.NsPerOp <= 0 {
			t.Fatalf("sweep record missing per-epoch wall-clock: %+v", rec)
		}
	}
}

// Smoke tests: build the real binary and drive its scenario mode end
// to end, asserting exit status and that the JSON artifact it writes
// parses back — the contract the CI scenario matrix and the nightly
// 10k job depend on.

// TestSmokeScenarioJSON runs one tiny spec file through -scenario and
// round-trips the BENCH_scenarios.json artifact.
func TestSmokeScenarioJSON(t *testing.T) {
	bin := clitest.Build(t, "egoist-bench")
	dir := t.TempDir()
	specPath := filepath.Join(dir, "smoke.json")
	spec := `{"name":"bench-smoke","engine":"scale","n":60,"k":2,"seed":7,"epochs":2,"sample":"uniform:8"}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	outJSON := filepath.Join(dir, "out.json")
	out, err := exec.Command(bin, "-scenario", specPath, "-workers", "2", "-scenarios-json", outJSON).CombinedOutput()
	if err != nil {
		t.Fatalf("egoist-bench -scenario: %v\n%s", err, out)
	}
	recs, err := scenario.ReadMetricsJSON(outJSON)
	if err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, out)
	}
	if len(recs) != 1 || recs[0].Scenario != "bench-smoke" || recs[0].Engine != "scale" {
		t.Fatalf("unexpected records: %+v", recs)
	}
	if recs[0].Epochs != 2 || len(recs[0].CostPerEpoch) != 2 {
		t.Fatalf("record incomplete: %+v", recs[0])
	}
}

// TestSmokeBuiltinScenario resolves a built-in scenario by name — the
// exact invocation shape of the nightly leave-wave-10k job, on the
// smallest builtin.
func TestSmokeBuiltinScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("builtin scenario run in -short mode")
	}
	bin := clitest.Build(t, "egoist-bench")
	outJSON := filepath.Join(t.TempDir(), "out.json")
	out, err := exec.Command(bin, "-scenario", "flash-crowd", "-workers", "2", "-scenarios-json", outJSON).CombinedOutput()
	if err != nil {
		t.Fatalf("egoist-bench -scenario flash-crowd: %v\n%s", err, out)
	}
	recs, err := scenario.ReadMetricsJSON(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Scenario != "flash-crowd" {
		t.Fatalf("unexpected records: %+v", recs)
	}
}

// TestSmokeList checks -list prints the figure index and exits 0.
func TestSmokeList(t *testing.T) {
	bin := clitest.Build(t, "egoist-bench")
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("egoist-bench -list: %v\n%s", err, out)
	}
	if strings.TrimSpace(string(out)) == "" {
		t.Fatal("-list printed nothing")
	}
}

// TestSmokeUnknownScenarioFails checks a bad -scenario argument exits
// non-zero.
func TestSmokeUnknownScenarioFails(t *testing.T) {
	bin := clitest.Build(t, "egoist-bench")
	out, err := exec.Command(bin, "-scenario", "no-such-scenario").CombinedOutput()
	if err == nil {
		t.Fatalf("unknown scenario accepted:\n%s", out)
	}
}
