package sim

import (
	"math"
	"reflect"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/core"
)

// TestFullEngineRescueWithinOneEpoch is the full simulator's half of
// the rescue-path property: after a node's neighbors all depart, every
// alive node — the orphan included — holds a non-empty, all-alive
// wiring within one full epoch. The victim set comes from an identical
// churn-free run (adding an event-only schedule does not perturb the
// prefix), so the kill provably targets the node's live links.
func TestFullEngineRescueWithinOneEpoch(t *testing.T) {
	const n, k, warm, meas = 40, 3, 3, 3
	const total = warm + meas
	for _, seed := range []int64{4, 5, 6} {
		base := Config{
			N: n, K: k, Seed: seed,
			Policy:     core.BRPolicy{},
			WarmEpochs: warm, MeasureEpochs: meas,
		}
		pre, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		const x = 7
		victims := append([]int(nil), pre.FinalWiring[x]...)
		if len(victims) == 0 {
			t.Fatalf("seed %d: node %d has no wiring to kill", seed, x)
		}
		sched := &churn.Schedule{N: n, InitialOn: make([]bool, n)}
		for i := range sched.InitialOn {
			sched.InitialOn[i] = true
		}
		for _, v := range victims {
			sched.Events = append(sched.Events, churn.Event{Time: total, Node: v, On: false})
		}
		run := base
		run.MeasureEpochs = meas + 2 // the event epoch plus one full epoch after it
		run.Churn = sched
		res, err := Run(run)
		if err != nil {
			t.Fatal(err)
		}
		dead := map[int]bool{}
		for _, v := range victims {
			dead[v] = true
		}
		if len(res.FinalWiring[x]) == 0 {
			t.Fatalf("seed %d: orphaned node %d never re-wired", seed, x)
		}
		for i, w := range res.FinalWiring {
			if dead[i] {
				continue
			}
			if len(w) == 0 {
				t.Fatalf("seed %d: alive node %d ended unwired", seed, i)
			}
			for _, v := range w {
				if dead[v] {
					t.Fatalf("seed %d: node %d still wired to departed node %d", seed, i, v)
				}
			}
		}
	}
}

// TestPrefAtShiftChangesDynamics checks a demand flip actually reaches
// the policies: flipping the hotspot set mid-run must produce a
// different final wiring than the unflipped run.
func TestPrefAtShiftChangesDynamics(t *testing.T) {
	hotA := func(i, j int) float64 {
		if j < 5 {
			return 10
		}
		return 1
	}
	hotB := func(i, j int) float64 {
		if j >= 20 {
			return 10
		}
		return 1
	}
	base := Config{
		N: 25, K: 3, Seed: 3,
		Policy:     core.BRPolicy{},
		WarmEpochs: 0, MeasureEpochs: 8,
	}
	flat := base
	flat.PrefAt = func(epoch int) func(i, j int) float64 { return hotA }
	shift := base
	shift.PrefAt = func(epoch int) func(i, j int) float64 {
		if epoch >= 4 {
			return hotB
		}
		return hotA
	}
	rf, err := Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(shift)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rf.FinalWiring, rs.FinalWiring) {
		t.Fatal("demand flip left the final wiring untouched")
	}
	if len(rf.PerEpochCost) != 8 {
		t.Fatalf("PerEpochCost has %d entries, want 8", len(rf.PerEpochCost))
	}
	for e, c := range rf.PerEpochCost {
		if math.IsNaN(c) || c <= 0 {
			t.Fatalf("PerEpochCost[%d] = %v", e, c)
		}
	}
}
