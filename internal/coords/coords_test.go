package coords

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"egoist/internal/underlay"
)

func TestDistSymmetricAndNonNegative(t *testing.T) {
	a := Coord{X: 1, Y: 2, Height: 3}
	b := Coord{X: -4, Y: 0, Height: 1}
	if Dist(a, b) != Dist(b, a) {
		t.Fatal("Dist not symmetric")
	}
	if Dist(a, b) < 0 {
		t.Fatal("Dist negative")
	}
	if got := Dist(a, a); got != 2*a.Height {
		t.Fatalf("self distance = %v, want 2*height", got)
	}
}

func TestObserveIgnoresGarbage(t *testing.T) {
	n := NewNode()
	before := n.Coord()
	n.Observe(Coord{X: 10}, 0.5, -1)
	n.Observe(Coord{X: 10}, 0.5, math.NaN())
	n.Observe(Coord{X: 10}, 0.5, math.Inf(1))
	if n.Coord() != before {
		t.Fatal("coordinate moved on invalid measurement")
	}
}

func TestObserveMovesTowardTruth(t *testing.T) {
	n := NewNode()
	remote := Coord{X: 100, Y: 0, Height: 0.1}
	// True delay 10ms, initial prediction ~100ms: node should move closer.
	predBefore := Dist(n.Coord(), remote)
	for i := 0; i < 20; i++ {
		n.Observe(remote, 0.5, 10)
	}
	predAfter := Dist(n.Coord(), remote)
	if math.Abs(predAfter-10) >= math.Abs(predBefore-10) {
		t.Fatalf("prediction error grew: before %v after %v", predBefore, predAfter)
	}
}

func TestErrorEstimateDecreases(t *testing.T) {
	n := NewNode()
	if n.ErrorEstimate() != 1 {
		t.Fatalf("initial error = %v, want 1", n.ErrorEstimate())
	}
	remote := Coord{X: 5, Y: 5, Height: 0.1}
	for i := 0; i < 50; i++ {
		n.Observe(remote, 0.2, Dist(n.Coord(), remote))
	}
	if n.ErrorEstimate() >= 1 {
		t.Fatalf("error did not decrease: %v", n.ErrorEstimate())
	}
}

func TestHeightStaysPositive(t *testing.T) {
	n := NewNode()
	for i := 0; i < 200; i++ {
		n.Observe(Coord{X: float64(i % 7), Height: 0.1}, 0.5, 0.5)
	}
	if n.Coord().Height <= 0 {
		t.Fatalf("height = %v, want > 0", n.Coord().Height)
	}
}

func TestSystemConvergesOnUnderlay(t *testing.T) {
	u, err := underlay.New(underlay.Config{N: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystem(u.N())
	rng := rand.New(rand.NewSource(1))
	sampler := func(i, j int) float64 {
		return u.Delay(i, j) * (1 + rng.NormFloat64()*0.03)
	}
	s.Calibrate(30, sampler)
	med := s.MedianRelativeError(func(i, j int) float64 { return u.Delay(i, j) })
	if med > 0.5 {
		t.Fatalf("median embedding error %.2f, want < 0.5 after calibration", med)
	}
	if med <= 0 {
		t.Fatalf("median embedding error %.2f, want > 0 (it is an estimate, not an oracle)", med)
	}
}

func TestEstimateSelfZero(t *testing.T) {
	s := NewSystem(3)
	if s.Estimate(1, 1) != 0 {
		t.Fatal("self estimate should be 0")
	}
	all := s.EstimateAll(1)
	if len(all) != 3 || all[1] != 0 {
		t.Fatalf("EstimateAll = %v", all)
	}
}

func TestSystemConcurrentUse(t *testing.T) {
	s := NewSystem(10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Observe(w%10, (w+i)%10, float64(1+i%40))
				_ = s.Estimate((w+i)%10, w%10)
			}
		}(w)
	}
	wg.Wait() // run with -race to catch data races
}

func TestMedianOddEven(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("median even = %v, want 2.5", got)
	}
}

// EstimateAll returns the predicted delays from node i to every node
// (0 for itself) — the payload of one pyxida query.
func (s *System) EstimateAll(i int) []float64 {
	out := make([]float64, s.N())
	for j := range out {
		out[j] = s.Estimate(i, j)
	}
	return out
}

// MedianRelativeError reports the median relative error of the embedding
// against the true delay function — the standard Vivaldi accuracy metric,
// exposed for tests and the experiment harness.
func (s *System) MedianRelativeError(truth func(i, j int) float64) float64 {
	var errs []float64
	n := s.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			tr := truth(i, j)
			if tr <= 0 {
				continue
			}
			errs = append(errs, math.Abs(s.Estimate(i, j)-tr)/tr)
		}
	}
	if len(errs) == 0 {
		return 0
	}
	return median(errs)
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	mid := len(c) / 2
	if len(c)%2 == 1 {
		return c[mid]
	}
	return (c[mid-1] + c[mid]) / 2
}
