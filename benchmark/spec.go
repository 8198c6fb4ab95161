package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json, the single place the workload and
// metric names, units, directions and bounds are fixed. The harness
// reads them from there instead of repeating them, so -list, -compare
// and the emitted key sets cannot drift from the contract.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json. `go run -C benchmark .`
// starts the program inside benchmark/, a test inside the package
// directory, a by-hand run anywhere below the root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: workloads, end_to_end and per_layer must all be non-empty")
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// list prints every workload and metric with unit, direction and bound.
func (s *benchSpec) list() {
	fmt.Printf("workloads (%d), %d s per run:\n", len(s.Workloads), s.RunSeconds)
	for _, w := range s.Workloads {
		fmt.Printf("  %-18s %s\n", w.Name, w.Why)
	}
	fmt.Printf("end-to-end metrics (%d):\n", len(s.EndToEnd))
	for _, m := range s.EndToEnd {
		fmt.Printf("  %-34s %-8s %-6s better, may worsen by %.0f%%\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Printf("per-layer metrics (%d, traced run only, no bound):\n", len(s.PerLayer))
	for _, m := range s.PerLayer {
		fmt.Printf("  %-34s %-8s %-6s better\n", m.Name, m.Unit, m.Better)
	}
}
