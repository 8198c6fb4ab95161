package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The harness side of the scale engine's worker-count contract: every
// committed CI scenario spec that runs on the scale engine is twin-run
// at workers=1 and workers=4, and the resulting Metrics records must
// marshal to byte-identical JSON. Together with the ScaleResult suite
// in internal/sim this pins the contract end to end — the worker knob
// changes wall-clock time, never a single output byte. The full engine
// is sequential and has no worker knob; its goldens pin its bytes.

// ciSpecs loads the committed CI matrix, skipping when the test runs
// outside the repository layout.
func ciSpecs(t *testing.T) []Spec {
	t.Helper()
	dir := filepath.Join("..", "..", "ci", "scenarios")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no ci/scenarios directory: %v", err)
	}
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestCIScenariosByteIdenticalAcrossWorkers twin-runs every spec in
// ci/scenarios/ that the scale engine runs (all but those pinned to
// another engine) with workers=1 vs workers=4.
func TestCIScenariosByteIdenticalAcrossWorkers(t *testing.T) {
	for _, spec := range ciSpecs(t) {
		spec := spec
		if spec.Engine != "" && spec.Engine != EngineScale {
			continue
		}
		t.Run(spec.Name+"/"+EngineScale, func(t *testing.T) {
			a, err := Run(spec, Options{Engine: EngineScale, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(spec, Options{Engine: EngineScale, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			ja, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			jb, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("workers 1 vs 4 metrics diverged:\n%s\n%s", ja, jb)
			}
		})
	}
}
