package core

import (
	"math"
	"math/rand"
	"testing"

	"egoist/internal/graph"
	"egoist/internal/sampling"
)

// randomSampledInstance builds a random connected instance of n <= 12
// nodes for the sampled-vs-exact property tests.
func randomSampledInstance(rng *rand.Rand, n int, kind CostKind) *Instance {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		g.AddArc(u, (u+1)%n, 1+rng.Float64()*30) // ring keeps it connected
		for t := 0; t < 2; t++ {
			v := rng.Intn(n)
			if v != u {
				g.AddArc(u, v, 1+rng.Float64()*30)
			}
		}
	}
	direct := make([]float64, n)
	pref := make([]float64, n)
	for j := 1; j < n; j++ {
		direct[j] = 1 + rng.Float64()*30
		pref[j] = 0.2 + rng.Float64()
	}
	return &Instance{
		Self:   0,
		Kind:   kind,
		Direct: direct,
		Resid:  BuildResidScratch(g, 0, kind, nil, nil),
		Pref:   pref,
	}
}

// TestSampledWithinBandOfExact is the accuracy contract of the sampled
// solver: on random small instances, the sampled best response's cost —
// estimated honestly, i.e. on a fresh evaluation sample independent of
// the one it optimized — must sit within its own stated 95% confidence
// band of the exact solver's ground truth: of the chosen wiring's true
// cost at roughly the nominal rate (estimator validity), and of the
// exact optimum at better than ~5x the nominal miss rate (the
// sampled-vs-exact cost gap).
func TestSampledWithinBandOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20080101))
	const trials = 300
	coveredChosen, coveredOpt := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 5 + rng.Intn(8) // 5..12
		k := 1 + rng.Intn(2)
		in := randomSampledInstance(rng, n, Additive)
		_, optVal, err := BestResponse(in, k, BROptions{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		m := k + 1 + rng.Intn(n-1-k) // k+1 .. n-1
		spec := []sampling.Spec{{Strategy: sampling.Uniform, M: m}, {Strategy: sampling.Demand, M: m}}[trial%2]
		ds, err := spec.Draw(rng, in.Self, n, in.Pref, in.Direct)
		if err != nil {
			t.Fatal(err)
		}
		chosen, _, err := BestResponseSampled(in, k, ds, BROptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(chosen) == 0 {
			t.Fatalf("trial %d: empty wiring", trial)
		}
		evalDS, err := spec.Draw(rng, in.Self, n, in.Pref, in.Direct)
		if err != nil {
			t.Fatal(err)
		}
		est := EvalSampled(in, chosen, evalDS, nil)
		trueChosen := in.Eval(chosen)
		if est.Contains(trueChosen) {
			coveredChosen++
		}
		if est.Hi >= optVal { // optimum can only be below the chosen cost
			coveredOpt++
		}
		if trueChosen < optVal-1e-9 {
			t.Fatalf("trial %d: chosen wiring beats the exact optimum: %f < %f", trial, trueChosen, optVal)
		}
	}
	if rate := float64(coveredChosen) / trials; rate < 0.88 {
		t.Errorf("95%% band covered the chosen wiring's true cost in only %.0f%% of trials", rate*100)
	}
	if rate := float64(coveredOpt) / trials; rate < 0.80 {
		t.Errorf("95%% band reached the exact optimum in only %.0f%% of trials", rate*100)
	}
}

// TestSampledFullRosterMatchesExact pins the degenerate case: with the
// sample equal to the full roster, the sampled solver is the plain
// solver and its estimate is exact (zero-width band).
func TestSampledFullRosterMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(6)
		in := randomSampledInstance(rng, n, Additive)
		ds, err := sampling.Spec{Strategy: sampling.Uniform, M: n - 1}.Draw(rng, in.Self, n, in.Pref, in.Direct)
		if err != nil {
			t.Fatal(err)
		}
		chosen, est, err := BestResponseSampled(in, 2, ds, BROptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, fullVal, err := BestResponse(in, 2, BROptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(chosen) != len(full) {
			t.Fatalf("wiring size mismatch: %v vs %v", chosen, full)
		}
		for i := range chosen {
			if chosen[i] != full[i] {
				t.Fatalf("full-roster sample diverged from plain solver: %v vs %v", chosen, full)
			}
		}
		if est.StdErr != 0 || math.Abs(est.Total-fullVal) > 1e-9 {
			t.Fatalf("full-roster estimate not exact: %+v vs %f", est, fullVal)
		}
	}
}

// TestEvalSampledUnbiased checks EvalSampled averages to Eval over many
// draws for a fixed wiring (the HT unbiasedness contract on the solver's
// own cost surface), for both cost algebras.
func TestEvalSampledUnbiased(t *testing.T) {
	for _, kind := range []CostKind{Additive, Bottleneck} {
		rng := rand.New(rand.NewSource(77))
		in := randomSampledInstance(rng, 12, kind)
		chosen := []int{2, 5, 9}
		truth := in.Eval(chosen)
		var s Scratch
		sum := 0.0
		const trials = 600
		for trial := 0; trial < trials; trial++ {
			ds, err := sampling.Spec{Strategy: sampling.Uniform, M: 5}.Draw(rng, in.Self, 12, in.Pref, in.Direct)
			if err != nil {
				t.Fatal(err)
			}
			sum += EvalSampled(in, chosen, ds, &s).Total
		}
		mean := sum / trials
		if rel := math.Abs(mean-truth) / math.Abs(truth); rel > 0.03 {
			t.Errorf("kind %v: mean sampled eval %.2f vs truth %.2f (rel %.3f)", kind, mean, truth, rel)
		}
	}
}
