package sim

import (
	"bytes"
	"strings"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/sampling"
)

// This file is the shard layer's half of the equivalence suite (the
// worker half lives in equivalence_test.go): the shard count is a
// physical layout knob and must never reach the output bytes, a
// drained shard is a valid shard, and the id-band plan itself holds
// its invariants for any (n, s).

// TestScaleResultJSONByteIdenticalAcrossShards pins the PR-7
// acceptance criterion on the engine output itself: the marshaled
// ScaleResult of a churn-heavy run is byte-identical across shards
// {1, 2, 4} × workers {1, 4}. The shards=1/workers=1 leg doubles as
// the pre-shard reference (its digest is pinned by golden_test.go).
func TestScaleResultJSONByteIdenticalAcrossShards(t *testing.T) {
	ref, err := RunScale(churnHeavyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Joins == 0 || ref.Leaves == 0 {
		t.Fatalf("run exercised no churn: joins=%d leaves=%d", ref.Joins, ref.Leaves)
	}
	refJSON := resultJSON(t, ref)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			if shards == 1 && workers == 1 {
				continue
			}
			cfg := churnHeavyConfig(workers)
			cfg.Shards = shards
			// Every shard layout also re-derives its member proposers'
			// directory rows against its own graph replica.
			cfg.probe = &scaleProbe{checkRows: true}
			got, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gotJSON := resultJSON(t, got); !bytes.Equal(refJSON, gotJSON) {
				t.Fatalf("shards=1/workers=1 vs shards=%d/workers=%d ScaleResult JSON diverged", shards, workers)
			}
		}
	}
}

// TestScaleShardValidation pins the config surface: non-positive shard
// counts normalize to 1, a shard count above N is an error (bands
// would be empty of ids entirely), and N shards — one node per band —
// is the legal maximum.
func TestScaleShardValidation(t *testing.T) {
	base := ScaleConfig{
		N: 20, K: 2, Seed: 7,
		Sample:    sampling.Spec{Strategy: sampling.Uniform, M: 8},
		MaxEpochs: 2, Workers: 2,
	}
	for _, shards := range []int{0, -3, 1, 5, 20} {
		cfg := base
		cfg.Shards = shards
		if _, err := RunScale(cfg); err != nil {
			t.Fatalf("Shards=%d: unexpected error %v", shards, err)
		}
	}
	cfg := base
	cfg.Shards = 21
	if _, err := RunScale(cfg); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("Shards=21 > N=20: want validation error, got %v", err)
	}
}

// TestScaleShardDrainedBand routes a leave wave at one whole id band —
// shard 0 of 4 empties completely mid-run, then partially refills —
// and requires the run to survive with the same bytes at any shard
// count: churn events target the owning shard, and a drained shard
// keeps participating in rebuilds and repairs with zero rows.
func TestScaleShardDrainedBand(t *testing.T) {
	mk := func(shards, workers int) ScaleConfig {
		const n = 160 // shard 0 of 4 owns [0, 40)
		sched := emptySchedule(n)
		for v := 0; v < 40; v++ {
			sched.Events = append(sched.Events, churn.Event{Time: 1 + float64(v)/128, Node: v, On: false})
		}
		for v := 0; v < 40; v += 4 { // rejoins into the drained band
			sched.Events = append(sched.Events, churn.Event{Time: 2.5 + float64(v)/256, Node: v, On: true})
		}
		return ScaleConfig{
			N: n, K: 3, Seed: 83, MaxEpochs: 4, Workers: workers, Shards: shards,
			Sample:         sampling.Spec{Strategy: sampling.Uniform, M: 24},
			StaggerBatches: 16,
			ConvergedFrac:  -1,
			Churn:          sched,
		}
	}
	ref, err := RunScale(mk(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Leaves != 40 || ref.Joins != 10 {
		t.Fatalf("drain schedule did not play out: joins=%d leaves=%d", ref.Joins, ref.Leaves)
	}
	refJSON := resultJSON(t, ref)
	for _, shards := range []int{4, 8} {
		got, err := RunScale(mk(shards, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refJSON, resultJSON(t, got)) {
			t.Fatalf("drained-band run diverged at shards=%d", shards)
		}
	}
}

// TestShardPlanCut checks the id-band partition invariants directly:
// bands tile [0, n) contiguously, owner agrees with the bounds, and
// cut reassembles any sorted id subset without loss, duplication or
// cross-band leakage — including empty bands when s does not divide n
// evenly or the subset skips a band.
func TestShardPlanCut(t *testing.T) {
	for _, tc := range []struct{ n, s int }{
		{10, 1}, {10, 3}, {10, 10}, {160, 4}, {7, 5}, {100, 7},
	} {
		p := newShardPlan(tc.n, tc.s)
		if p.bounds[0] != 0 || p.bounds[tc.s] != tc.n {
			t.Fatalf("n=%d s=%d: bounds %v do not tile [0,n)", tc.n, tc.s, p.bounds)
		}
		for v := 0; v < tc.n; v++ {
			sh := int(p.owner[v])
			if v < p.bounds[sh] || v >= p.bounds[sh+1] {
				t.Fatalf("n=%d s=%d: owner[%d]=%d outside its band", tc.n, tc.s, v, sh)
			}
		}
		// A subset that skips every third id, leaving some bands sparse
		// or empty.
		var ids []int
		for v := 0; v < tc.n; v++ {
			if v%3 != 0 {
				ids = append(ids, v)
			}
		}
		parts := p.cut(ids, nil)
		if len(parts) != tc.s {
			t.Fatalf("n=%d s=%d: cut returned %d parts", tc.n, tc.s, len(parts))
		}
		var rejoined []int
		for sh, part := range parts {
			for _, v := range part {
				if int(p.owner[v]) != sh {
					t.Fatalf("n=%d s=%d: id %d landed in part %d, owner %d", tc.n, tc.s, v, sh, p.owner[v])
				}
				rejoined = append(rejoined, v)
			}
		}
		if len(rejoined) != len(ids) {
			t.Fatalf("n=%d s=%d: cut lost ids: %d != %d", tc.n, tc.s, len(rejoined), len(ids))
		}
		for x := range rejoined {
			if rejoined[x] != ids[x] {
				t.Fatalf("n=%d s=%d: cut reordered ids", tc.n, tc.s)
			}
		}
	}
}

// TestScaleShardRaceStress is the -race half for the shard seam: many
// shards × several workers over the churn-heavy run, so concurrent
// shard pools price proposals against their replicas while the serial
// sections between sub-rounds fan repairs across all instances.
func TestScaleShardRaceStress(t *testing.T) {
	cfg := churnHeavyConfig(4)
	cfg.Shards = 8
	cfg.MaxEpochs = 4
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirectoryApplies == 0 {
		t.Fatal("stress run never repaired the directory incrementally")
	}
}
