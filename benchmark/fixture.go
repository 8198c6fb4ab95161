package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"egoist"
)

// fixtureName is the committed overlay the serve-* workloads query:
// the scale engine's converged wiring at n=2500, k=8, demand:200, seed
// 2008. Serving a fixture instead of a freshly converged overlay means
// an engine change can never move a serve number.
const fixtureName = "wiring-n2500-k8.json"

// wiringFixture is the file shape `egoist-route -wiring` loads. The
// delay oracle is derived from (n, seed+1), like the engine's default
// underlay.
type wiringFixture struct {
	N      int     `json:"n"`
	K      int     `json:"k"`
	Seed   int64   `json:"seed"`
	Epoch  int64   `json:"epoch"`
	Wiring [][]int `json:"wiring"`
}

// loadFixture reads a wiring file and checks its shape: n rows, exactly
// k distinct in-range out-links per node, none to itself. When a
// .sha256 file sits beside it the bytes must match it.
func loadFixture(path string) (*wiringFixture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if want, err := os.ReadFile(path + ".sha256"); err == nil {
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
			return nil, fmt.Errorf("%s: sha256 %s does not match the recorded %s", path, got, strings.TrimSpace(string(want)))
		}
	}
	var wf wiringFixture
	if err := json.Unmarshal(data, &wf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if wf.N < 2 || len(wf.Wiring) != wf.N {
		return nil, fmt.Errorf("%s: %d wiring rows for n=%d", path, len(wf.Wiring), wf.N)
	}
	for u, row := range wf.Wiring {
		if len(row) != wf.K {
			return nil, fmt.Errorf("%s: node %d has %d out-links, want k=%d", path, u, len(row), wf.K)
		}
		if v, bad := malformedLink(u, row, wf.N); bad {
			return nil, fmt.Errorf("%s: node %d has a malformed out-link %d", path, u, v)
		}
	}
	return &wf, nil
}

// malformedLink returns the first out-link of node u that is out of
// range, points back at u, or repeats an earlier one.
func malformedLink(u int, row []int, n int) (int, bool) {
	for i, v := range row {
		if v < 0 || v >= n || v == u {
			return v, true
		}
		for _, w := range row[:i] {
			if w == v {
				return v, true
			}
		}
	}
	return 0, false
}

// convergeFixture runs the scale engine to convergence through the
// public facade and returns the wiring as a fixture.
func convergeFixture(n, k int, sample string, seed int64, workers int) (*wiringFixture, error) {
	res, err := egoist.ScaleRun(egoist.ScaleOptions{N: n, K: k, Sample: sample, Seed: seed, Workers: workers})
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("n=%d did not converge in %d epochs", n, res.Epochs)
	}
	return &wiringFixture{N: n, K: k, Seed: seed, Epoch: int64(res.Epochs - 1), Wiring: res.Wiring}, nil
}

func writeFixture(path string, wf *wiringFixture) error {
	data, err := json.Marshal(wf)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	return os.WriteFile(path+".sha256", []byte(hex.EncodeToString(sum[:])+"\n"), 0o644)
}

// regenFixture rebuilds the committed fixture. The engine's result is a
// pure function of (config, seed), so this reproduces the committed
// bytes until an engine change alters the dynamics — at which point
// the fixture should stay as it is, not follow.
func regenFixture(root string, workers int) error {
	wf, err := convergeFixture(2500, 8, "demand:200", 2008, workers)
	if err != nil {
		return err
	}
	path := filepath.Join(root, "benchmark", "fixtures", fixtureName)
	if err := writeFixture(path, wf); err != nil {
		return err
	}
	fmt.Printf("wrote %s (+ .sha256), converged at epoch %d\n", path, wf.Epoch)
	return nil
}

// ensureSmokeFixture converges a toy overlay for the smoke profile the
// first time it is asked for.
func ensureSmokeFixture(path string) error {
	if _, err := loadFixture(path); err == nil {
		return nil
	}
	wf, err := convergeFixture(64, 4, "demand:16", 2008, 1)
	if err != nil {
		return err
	}
	return writeFixture(path, wf)
}
