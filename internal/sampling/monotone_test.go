package sampling

import (
	"math"
	"math/rand"
	"testing"
)

// The scale engine skips a sampled best response when the estimate of a
// per-destination lower bound already fails its adoption gate. That
// rests on two properties of EstimateAt pinned here: raising any value
// y ≥ 0 never lowers Total, under every strategy; and under Demand it
// never lowers the noise term either, because the Poisson variance
// Σ(1−π)(y/π)² grows with every y. The without-replacement variance of
// Uniform and Stratified measures spread, not size, so there the noise
// term can fall as a value rises (TestUniformHalfWidthCanFall).

// TestEstimateMonotoneInValues raises random values of random samples,
// one at a time, and checks the estimate never moves the wrong way: Total
// bit for bit under every strategy; StdErr bit for bit under Demand, and
// the half-width Hi − Total up to the rounding of the subtraction that
// forms it.
func TestEstimateMonotoneInValues(t *testing.T) {
	const n, self, m = 300, 11, 40
	_, pref, direct := population(n, 3)
	rng := rand.New(rand.NewSource(9))
	for _, st := range []Strategy{Uniform, Demand, Stratified} {
		spec := Spec{Strategy: st, M: m}
		for trial := 0; trial < 50; trial++ {
			ds, err := spec.Draw(rng, self, n, pref, direct)
			if err != nil {
				t.Fatal(err)
			}
			if trial%2 == 1 { // certainty inclusions, as the engine forces
				ds = ds.EnsureCertain([]int{rng.Intn(self), self + 1 + rng.Intn(n-self-1)})
			}
			y := make([]float64, len(ds.Dests))
			for i := range y {
				switch rng.Intn(4) {
				case 0:
					y[i] = 0
				case 1:
					y[i] = 1e9 * rng.Float64() // disconnection-penalty scale
				default:
					y[i] = 100 * rng.Float64()
				}
			}
			at := func(i int) float64 { return y[i] }
			prev := ds.EstimateAt(at)
			for step := 0; step < 30; step++ {
				i := rng.Intn(len(y))
				switch rng.Intn(3) {
				case 0:
					y[i] = math.Nextafter(y[i], math.Inf(1)) // one ulp
				case 1:
					y[i] *= 1 + rng.Float64()
				default:
					y[i] += 1e9 * rng.Float64()
				}
				next := ds.EstimateAt(at)
				if next.Total < prev.Total {
					t.Fatalf("%v: raising y[%d] lowered Total %v → %v", st, i, prev.Total, next.Total)
				}
				if st == Demand {
					if next.StdErr < prev.StdErr {
						t.Fatalf("demand: raising y[%d] lowered StdErr %v → %v", i, prev.StdErr, next.StdErr)
					}
					if was, now := prev.Hi-prev.Total, next.Hi-next.Total; now < was-1e-12*next.Hi {
						t.Fatalf("demand: raising y[%d] lowered the half-width %v → %v", i, was, now)
					}
				}
				prev = next
			}
		}
	}
}

// TestUniformHalfWidthCanFall is the worked counterexample behind the
// Demand-only noise term: under Uniform, raising the one zero value of a
// sample whose other values are all 10 removes the sample's spread, and
// the half-width drops from positive to exactly 0 while Total rises.
func TestUniformHalfWidthCanFall(t *testing.T) {
	ds, err := Spec{Strategy: Uniform, M: 4}.Draw(rand.New(rand.NewSource(1)), 0, 20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{0, 10, 10, 10}
	low := ds.EstimateAt(func(i int) float64 { return y[i] })
	y[0] = 10
	high := ds.EstimateAt(func(i int) float64 { return y[i] })
	if !(high.Total > low.Total) {
		t.Fatalf("Total did not rise: %v → %v", low.Total, high.Total)
	}
	if w := low.Hi - low.Total; !(w > 0) {
		t.Fatalf("spread sample has half-width %v, want > 0", w)
	}
	if w := high.Hi - high.Total; w != 0 {
		t.Fatalf("constant sample has half-width %v, want 0", w)
	}
}
