package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workloadDeadline bounds one workload of the all-workloads pass: the
// contract gives a run 180 s.
const workloadDeadline = 170 * time.Second

// runAll runs every workload of BENCHMARK.json, each in a process of
// its own so that peak_rss_mb is that workload's peak and not the
// largest so far, prints one table, and writes results.json. A
// workload that errors or times out fails the whole pass: a partial
// table must never look healthy.
func runAll(root string, spec *benchSpec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := resultsFile{Host: stampHost(root), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke}
	pass := func(traced bool) ([]record, error) {
		var recs []record
		for _, w := range spec.Workloads {
			rec, err := runChild(self, root, w.Name, traced, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			rec.Workload = w.Name
			recs = append(recs, *rec)
		}
		return recs, nil
	}
	if res.Records, err = pass(false); err != nil {
		return err
	}
	if o.traced {
		if res.PerLayer, err = pass(true); err != nil {
			return err
		}
	}
	printTable("end-to-end (untraced run)", spec.EndToEnd, res.Records)
	if o.traced {
		printTable("per-layer (traced run)", spec.PerLayer, res.PerLayer)
	}
	data, err := json.MarshalIndent(&res, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	for _, r := range append(res.Records, res.PerLayer...) {
		if !r.Correct {
			return fmt.Errorf("%s: a correctness check failed", r.Workload)
		}
	}
	return nil
}

// runChild re-executes this binary for one workload and parses the
// result line it prints last.
func runChild(self, root, workload string, traced bool, o options) (*record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadDeadline)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-out", o.out,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("timed out after %v", workloadDeadline)
	}
	var rec record
	if err := json.Unmarshal([]byte(last), &rec); err != nil || rec.Metrics == nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line (last line: %q)", last)
	}
	// A child that printed correct=false also exits non-zero; the
	// record says why, so the pass goes on and fails at the end.
	return &rec, nil
}

func printTable(title string, defs []metricDef, recs []record) {
	fmt.Printf("\n%s\n%-34s %-8s", title, "metric", "unit")
	for _, r := range recs {
		fmt.Printf(" %17s", r.Workload)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-34s %-8s", d.Name, d.Unit)
		for _, r := range recs {
			fmt.Printf(" %17.6g", r.Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-34s %-8s", "failed/attempted", "")
	for _, r := range recs {
		s := fmt.Sprintf("%d/%d", r.Failed, r.Attempted)
		if r.Degraded {
			s += " degraded"
		}
		if !r.Correct {
			s += " INCORRECT"
		}
		fmt.Printf(" %17s", s)
	}
	fmt.Println()
}
