package sampling

import (
	"math/rand"
	"testing"
)

// TestRemapPreservesWeights pins the contract local sub-instances (the
// scale engine's block probe, the benchmark's solver probes) rely on:
// Remap translates destination ids through an
// injective map while leaving the HT weights and variance bookkeeping
// untouched, and never mutates the original sample.
func TestRemapPreservesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := Spec{Strategy: Demand, M: 12}
	pref := make([]float64, 40)
	for j := range pref {
		pref[j] = 1 + float64(j%5)
	}
	ds, err := spec.Draw(rng, 0, 40, pref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Strategy() != Demand {
		t.Fatalf("Strategy() = %v, want %v", ds.Strategy(), Demand)
	}
	origDests := append([]int(nil), ds.Dests...)
	mapped := ds.Remap(func(j int) int { return j + 1000 })
	if len(mapped.Dests) != len(origDests) {
		t.Fatalf("Remap changed sample size: %d -> %d", len(origDests), len(mapped.Dests))
	}
	for i, j := range origDests {
		if mapped.Dests[i] != j+1000 {
			t.Fatalf("dest %d mapped to %d, want %d", j, mapped.Dests[i], j+1000)
		}
		if ds.Dests[i] != j {
			t.Fatalf("Remap mutated the original sample at %d", i)
		}
		if mapped.InvProb[i] != ds.InvProb[i] {
			t.Fatalf("Remap changed weight %d: %v -> %v", i, ds.InvProb[i], mapped.InvProb[i])
		}
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{Uniform: "uniform", Demand: "demand", Stratified: "strat"}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
	if got := Strategy(42).String(); got != "Strategy(42)" {
		t.Fatalf("unknown strategy prints %q", got)
	}
}
