package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"egoist/internal/sampling"
)

// This file pins the scale engine's trajectory across refactors. The
// digests below are the SHA-256 of the wall-clock-stripped ScaleResult
// JSON, recorded at PR 7 and reproduced by every engine refactor since.
// A digest change here means the dynamics changed for existing users,
// which is exactly what the no-regression acceptance criterion forbids;
// do not regenerate these values to make a refactor pass.

// goldenConfigs returns the pinned configurations. The churn-heavy one
// exercises every serial mutation path (leaves, rejoins, fresh joins,
// demand flips, directory repair between sub-rounds); the static one is
// the plain convergence path most callers run.
func goldenConfigs() map[string]ScaleConfig {
	return map[string]ScaleConfig{
		"churn-heavy": churnHeavyConfig(2),
		"static": {
			N: 200, K: 3, Seed: 5,
			Sample:    sampling.Spec{Strategy: sampling.Demand, M: 40},
			MaxEpochs: 10, Workers: 2,
		},
	}
}

// goldenDigests are the pre-PR-7 reference digests (see file comment).
var goldenDigests = map[string]string{
	"churn-heavy": "ea40cffbb49f7086f7dffebb33b99e687c5046815cf8bf2b4ba57992d82fece0",
	"static":      "3ff027fa3381426679d273c8914cc24aa33c55e2d22cf812061b49c783c29db6",
}

// TestScaleGoldenDigest runs each pinned config and compares the result
// digest against the pre-refactor reference.
func TestScaleGoldenDigest(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		t.Run(name, func(t *testing.T) {
			res, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(resultJSON(t, res))
			got := hex.EncodeToString(sum[:])
			if want := goldenDigests[name]; got != want {
				t.Fatalf("ScaleResult digest drifted from the pinned engine trajectory:\n got %s\nwant %s", got, want)
			}
		})
	}
}
