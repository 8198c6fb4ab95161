package underlay

import (
	"math"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Underlay {
	t.Helper()
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewRejectsTinyN(t *testing.T) {
	if _, err := New(Config{N: 1}); err == nil {
		t.Fatal("expected error for N=1")
	}
}

func TestPlanetLabMixSums(t *testing.T) {
	for _, n := range []int{5, 10, 50, 100, 295} {
		mix := PlanetLabMix(n)
		sum := 0
		for _, c := range mix {
			sum += c
		}
		if sum != n {
			t.Errorf("n=%d: mix %v sums to %d", n, mix, sum)
		}
		for r, c := range mix {
			if c < 1 {
				t.Errorf("n=%d: region %d has %d nodes, want >=1", n, r, c)
			}
		}
	}
}

func TestPlanetLabMix50MatchesPaper(t *testing.T) {
	mix := PlanetLabMix(50)
	want := [5]int{30, 11, 7, 1, 1}
	if mix != want {
		t.Fatalf("PlanetLabMix(50) = %v, want %v", mix, want)
	}
}

func TestDelayProperties(t *testing.T) {
	u := mustNew(t, Config{N: 50, Seed: 42})
	n := u.N()
	for i := 0; i < n; i++ {
		if u.Delay(i, i) != 0 {
			t.Fatalf("self delay of %d = %v, want 0", i, u.Delay(i, i))
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := u.Delay(i, j)
			if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("delay(%d,%d) = %v, want positive finite", i, j, d)
			}
		}
	}
}

func TestIntraRegionFasterThanInterContinent(t *testing.T) {
	u := mustNew(t, Config{N: 50, Seed: 1})
	var intraSum, intraN, interSum, interN float64
	for i := 0; i < u.N(); i++ {
		for j := 0; j < u.N(); j++ {
			if i == j {
				continue
			}
			d := u.Delay(i, j)
			if u.Site(i).Region == u.Site(j).Region {
				intraSum += d
				intraN++
			} else if (u.Site(i).Region == NorthAmerica && u.Site(j).Region == Asia) ||
				(u.Site(i).Region == Asia && u.Site(j).Region == NorthAmerica) {
				interSum += d
				interN++
			}
		}
	}
	if intraN == 0 || interN == 0 {
		t.Skip("degenerate placement")
	}
	if intraSum/intraN >= interSum/interN {
		t.Fatalf("intra-region mean %.1f >= NA-Asia mean %.1f; geography not reflected",
			intraSum/intraN, interSum/interN)
	}
}

func TestDelayAsymmetryAllowed(t *testing.T) {
	u := mustNew(t, Config{N: 20, Seed: 3})
	asym := 0
	for i := 0; i < u.N(); i++ {
		for j := i + 1; j < u.N(); j++ {
			if u.Delay(i, j) != u.Delay(j, i) {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("all delays symmetric; paper model has dij != dji in general")
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a := mustNew(t, Config{N: 30, Seed: 99})
	b := mustNew(t, Config{N: 30, Seed: 99})
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.Delay(i, j) != b.Delay(i, j) {
				t.Fatalf("same seed, different delay(%d,%d)", i, j)
			}
		}
		if a.Load(i) != b.Load(i) {
			t.Fatalf("same seed, different load(%d)", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := mustNew(t, Config{N: 30, Seed: 1})
	b := mustNew(t, Config{N: 30, Seed: 2})
	same := true
	for i := 0; i < a.N() && same; i++ {
		for j := 0; j < a.N(); j++ {
			if a.Delay(i, j) != b.Delay(i, j) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical delay matrices")
	}
}

func TestLoadPositive(t *testing.T) {
	u := mustNew(t, Config{N: 20, Seed: 5})
	for step := 0; step < 50; step++ {
		u.Step(1)
		for i := 0; i < u.N(); i++ {
			if u.Load(i) <= 0 {
				t.Fatalf("load(%d) = %v after step %d, want > 0", i, u.Load(i), step)
			}
		}
	}
}

func TestLoadVariesOverTime(t *testing.T) {
	u := mustNew(t, Config{N: 10, Seed: 5})
	before := u.Load(0)
	for step := 0; step < 10; step++ {
		u.Step(1)
	}
	if u.Load(0) == before {
		t.Fatal("load did not evolve over 10 steps")
	}
}

func TestStepPerturbsDelaysModestly(t *testing.T) {
	u := mustNew(t, Config{N: 20, Seed: 7})
	before := u.Delay(0, 1)
	for step := 0; step < 20; step++ {
		u.Step(1)
	}
	after := u.Delay(0, 1)
	ratio := after / before
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("delay drifted by factor %.2f over 20 epochs; jitter model too wild", ratio)
	}
}

func TestBandwidthPositiveFinite(t *testing.T) {
	u := mustNew(t, Config{N: 30, Seed: 11})
	for i := 0; i < u.N(); i++ {
		for j := 0; j < u.N(); j++ {
			if i == j {
				if !math.IsInf(u.AvailBW(i, i), 1) {
					t.Fatalf("self bandwidth should be +Inf")
				}
				continue
			}
			bw := u.AvailBW(i, j)
			if bw <= 0 || math.IsInf(bw, 0) || math.IsNaN(bw) {
				t.Fatalf("availBW(%d,%d) = %v", i, j, bw)
			}
		}
	}
}

func TestIntraASFasterThanInterAS(t *testing.T) {
	u := mustNew(t, Config{N: 50, Seed: 13})
	var intra, inter []float64
	for i := 0; i < u.N(); i++ {
		for j := 0; j < u.N(); j++ {
			if i == j {
				continue
			}
			if u.asOfSite[i] == u.asOfSite[j] {
				intra = append(intra, u.AvailBW(i, j))
			} else {
				inter = append(inter, u.AvailBW(i, j))
			}
		}
	}
	if len(intra) == 0 || len(inter) == 0 {
		t.Skip("no intra-AS pairs with this seed")
	}
	if mean(intra) <= mean(inter) {
		t.Fatalf("intra-AS mean bw %.1f <= inter-AS %.1f", mean(intra), mean(inter))
	}
}

func TestPeeringSessionCap(t *testing.T) {
	u := mustNew(t, Config{N: 50, Seed: 17})
	foundInter := false
	for i := 0; i < u.N() && !foundInter; i++ {
		for j := 0; j < u.N(); j++ {
			if i != j && u.asOfSite[i] != u.asOfSite[j] {
				if u.PeeringSessionCap(i, j) >= u.PeeringSessionCap(i, i) {
					t.Fatal("inter-AS session cap should be below access capacity")
				}
				foundInter = true
				break
			}
		}
	}
	if !foundInter {
		t.Skip("all sites in one AS")
	}
}

// Property: delays remain positive and finite under arbitrary dynamics.
func TestDelayStaysPositiveProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		u, err := New(Config{N: 10, Seed: seed})
		if err != nil {
			return false
		}
		for s := 0; s < int(steps%50); s++ {
			u.Step(1)
		}
		for i := 0; i < u.N(); i++ {
			for j := 0; j < u.N(); j++ {
				if i == j {
					continue
				}
				d := u.Delay(i, j)
				if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
