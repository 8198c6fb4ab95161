package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BenchRecord is one machine-readable scale-engine measurement — the
// schema of the BENCH_scale.json artifact cmd/egoist-bench writes and
// the nightly sweep uploads.
type BenchRecord struct {
	// Name identifies the measurement, e.g. "scale/n=10000/demand:500".
	Name string `json:"name"`
	// NsPerOp is nanoseconds per simulated epoch.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per epoch (0 when not measured).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// N is the number of epochs run.
	N int `json:"n"`
	// PeakRSSBytes is the process peak resident set (VmHWM) observed
	// after the measurement — the memory-ceiling column of the scale
	// n-sweep. Zero (and omitted) on platforms without /proc.
	PeakRSSBytes float64 `json:"peak_rss_bytes,omitempty"`
}

// WriteBenchJSON writes records to path as a sorted, indented JSON
// array.
func WriteBenchJSON(path string, recs []BenchRecord) error {
	out := append([]BenchRecord(nil), recs...)
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchJSON reads a BENCH_*.json file back.
func ReadBenchJSON(path string) ([]BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []BenchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
