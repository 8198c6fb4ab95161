package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"egoist/internal/clitest"
	"egoist/internal/topology"
)

// TestMainInProcess drives both main() paths in process for coverage
// (subprocess smoke binaries run uninstrumented; see clitest.RunMain):
// the ad-hoc flag path and the -scenario path.
func TestMainInProcess(t *testing.T) {
	clitest.RunMain(t, main, "egoist-sim", "-n", "16", "-k", "2", "-warm", "1", "-epochs", "2")
	clitest.RunMain(t, main, "egoist-sim", "-scenario", writeSmokeSpec(t), "-workers", "2")
}

// Smoke tests: build the real binary and drive it end to end on
// tiny inputs — main() and its flag plumbing had no coverage at all
// before these, so a broken flag default or a panic in the print path
// could ship while every internal package stayed green.

// smokeSpecJSON is a tiny scale-engine scenario that finishes in well
// under a second.
const smokeSpecJSON = `{
  "name": "cli-smoke",
  "engine": "scale",
  "n": 60,
  "k": 2,
  "seed": 7,
  "epochs": 2,
  "sample": "uniform:8"
}
`

func writeSmokeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := os.WriteFile(path, []byte(smokeSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSmokeScenarioRun runs a declarative spec through the -scenario
// path: exit 0 and the metrics header on stdout.
func TestSmokeScenarioRun(t *testing.T) {
	bin := clitest.Build(t, "egoist-sim")
	out, err := exec.Command(bin, "-scenario", writeSmokeSpec(t), "-workers", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("egoist-sim -scenario: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"scenario cli-smoke on scale", "epochs=2", "rewires"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestSmokeAdHocRun runs the classic flag path on a tiny overlay.
func TestSmokeAdHocRun(t *testing.T) {
	bin := clitest.Build(t, "egoist-sim")
	out, err := exec.Command(bin, "-n", "16", "-k", "2", "-warm", "1", "-epochs", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("egoist-sim: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"mean cost", "mean efficiency", "final wiring"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestSmokeTraceChurn runs churn over a delay trace whose size differs
// from -n: the schedule must follow the trace's size, in both directions.
func TestSmokeTraceChurn(t *testing.T) {
	bin := clitest.Build(t, "egoist-sim")
	for _, size := range []int{20, 60} {
		path := filepath.Join(t.TempDir(), "trace.txt")
		var buf bytes.Buffer
		if err := topology.WriteTrace(&buf, topology.Waxman(size, 150, rand.New(rand.NewSource(3)))); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-delays", path, "-k", "3", "-churn", "0.5",
			"-warm", "2", "-epochs", "2").CombinedOutput()
		if err != nil {
			t.Fatalf("%d-node trace with -churn: %v\n%s", size, err, out)
		}
		if want := fmt.Sprintf("n=%d k=3", size); !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeBadScenarioFails checks a malformed spec exits non-zero
// with a diagnostic instead of running garbage.
func TestSmokeBadScenarioFails(t *testing.T) {
	bin := clitest.Build(t, "egoist-sim")
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"bad","n":1,"k":5,"epochs":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-scenario", path).CombinedOutput()
	if err == nil {
		t.Fatalf("invalid spec accepted:\n%s", out)
	}
}
