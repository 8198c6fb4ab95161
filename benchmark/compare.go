package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Records) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end records", path)
	}
	return &f, nil
}

func loadSet(list string) ([]*resultsFile, error) {
	var set []*resultsFile
	for _, p := range strings.Split(list, ",") {
		f, err := loadResults(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		set = append(set, f)
	}
	return set, nil
}

// setMedian is the median over a set's files of one workload's metric,
// and the largest failed share any of them recorded.
func setMedian(set []*resultsFile, workload, metric string) (med, failFrac float64, ok bool) {
	var vals []float64
	for _, f := range set {
		r := f.find(workload)
		if r == nil {
			continue
		}
		m, has := r.Metrics[metric]
		if !has {
			continue
		}
		vals = append(vals, m.Value)
		if ff := ratio(float64(r.Failed), float64(r.Attempted)); ff > failFrac {
			failFrac = ff
		}
		if !r.Correct && failFrac == 0 {
			failFrac = 1
		}
	}
	return median(vals), failFrac, len(vals) > 0
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians, how much worse B is than A in the metric's own direction,
// and the bound; it fails when any pair disagrees beyond its bound or
// the failed shares differ. Run on two interleaved sets of the same
// commit (A1 B1 A2 B2 ...) it is the A/A check.
func compareSets(spec *benchSpec, listA, listB string) error {
	a, err := loadSet(listA)
	if err != nil {
		return err
	}
	b, err := loadSet(listB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %d file(s), B: %d file(s); medians per side\n", len(a), len(b))
	fmt.Printf("%-18s %-18s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B worse", "bound")
	bad := 0
	for _, w := range spec.Workloads {
		var fa, fb float64
		for _, m := range spec.EndToEnd {
			va, failA, okA := setMedian(a, w.Name, m.Name)
			vb, failB, okB := setMedian(b, w.Name, m.Name)
			if !okA || !okB {
				fmt.Printf("%-18s %-18s missing from one side\n", w.Name, m.Name)
				bad++
				continue
			}
			fa, fb = failA, failB
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  BEYOND BOUND"
				bad++
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		if fa != fb {
			fmt.Printf("%-18s failed share differs: A %.4g, B %.4g\n", w.Name, fa, fb)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("compare: %d disagreement(s) beyond bound", bad)
	}
	fmt.Println("compare: every pair within its bound")
	return nil
}
