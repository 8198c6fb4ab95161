package underlay

import (
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

func TestNewLiteValidation(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if _, err := NewLite(n, 1); err == nil {
			t.Fatalf("NewLite(%d) accepted", n)
		}
	}
}

// TestLiteDelayProperties checks the constant-memory underlay against
// the properties the scale engine depends on: zero self-delay, strictly
// positive pair delays bounded by access + inflated antipodal
// propagation, determinism in (n, seed), and the deliberate asymmetry
// of the per-pair inflation hash.
func TestLiteDelayProperties(t *testing.T) {
	const n = 60
	l, err := NewLite(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if l.N() != n {
		t.Fatalf("N() = %d, want %d", l.N(), n)
	}
	mix := PlanetLabMix(n)
	counts := map[Region]int{}
	for i := 0; i < n; i++ {
		counts[l.Site(i).Region]++
	}
	for r := Region(0); r < numRegions; r++ {
		if counts[r] != mix[r] {
			t.Fatalf("region %v has %d sites, mix says %d", r, counts[r], mix[r])
		}
	}
	// Antipodal upper bound: access + half circumference × factor × max
	// inflation.
	maxDelay := 2 + math.Pi*6371*0.015*1.36
	asymmetric := false
	for i := 0; i < n; i++ {
		if d := l.Delay(i, i); d != 0 {
			t.Fatalf("Delay(%d,%d) = %v, want 0", i, i, d)
		}
		for j := i + 1; j < n; j++ {
			dij, dji := l.Delay(i, j), l.Delay(j, i)
			if dij <= 0 || dji <= 0 {
				t.Fatalf("non-positive delay (%d,%d): %v / %v", i, j, dij, dji)
			}
			if dij > maxDelay || dji > maxDelay {
				t.Fatalf("delay (%d,%d) beyond antipodal bound %v: %v / %v", i, j, maxDelay, dij, dji)
			}
			if dij != dji {
				asymmetric = true
			}
		}
	}
	if !asymmetric {
		t.Fatal("every pair symmetric; the per-pair inflation hash should differ on (i,j) vs (j,i)")
	}

	l2, err := NewLite(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if l.Delay(i, j) != l2.Delay(i, j) {
				t.Fatalf("same (n, seed) but Delay(%d,%d) differs", i, j)
			}
		}
	}
}

// TestLiteDelayAtLeastSound is the exactness net of the Acos-free
// bound: a true DelayAtLeast(i, j, c) must mean Delay(i, j) ≥ c(1+2^-50),
// and for a sum w + Delay compared with a best that ties it or sits an
// ulp or a few away, a true DelayAtLeast(i, j, best−w) must mean the
// float64 sum is ≥ best. Thresholds sit at Delay ± a few ulps, at the
// access delay ± a few ulps and a relative hair below Delay; the sites
// include NewLite's own, near-coincident pairs from 1e-15 rad to
// 1e-2 rad apart, near-antipodal ones and unit vectors scaled so their
// dot product rounds past +1 or −1 (Delay clamps it). The bound must
// also prove the easy cases: 60% of the propagation part is always
// within the chord.
func TestLiteDelayAtLeastSound(t *testing.T) {
	l, at := craftedLite(t)
	access := l.accessDelayMS
	proved := 0
	for i := 0; i < at; i++ {
		for j := 0; j < at; j++ {
			d := l.Delay(i, j)
			var cs []float64
			for k := -4; k <= 4; k++ {
				cs = append(cs, ulps(d, k), ulps(access, k))
			}
			cs = append(cs, d*(1-1e-12), d*(1-0x1p-40), d-1e-9, 0, -1)
			for _, c := range cs {
				if l.DelayAtLeast(i, j, c) && (d < c || d-c < c*0x1p-50) {
					t.Fatalf("DelayAtLeast(%d, %d, %v) = true, but Delay is %v (%d ulps from c)", i, j, c, d, ulpDist(c, d))
				}
			}
			if i != j {
				c := access + 0.6*(d-access) - 1e-3
				if !l.DelayAtLeast(i, j, c) {
					t.Fatalf("DelayAtLeast(%d, %d, %v) = false with Delay %v: 60%% of the arc is within the chord", i, j, c, d)
				}
				proved++
			}
			for _, w := range []float64{0, 0.7, 13.1, 250} {
				sum := w + d
				for k := -3; k <= 3; k++ {
					best := ulps(sum, k)
					if l.DelayAtLeast(i, j, best-w) && sum < best {
						t.Fatalf("pair (%d, %d), w = %v: the bound skips a sum %v below best %v", i, j, w, sum, best)
					}
				}
			}
		}
	}
	if proved == 0 {
		t.Fatal("no pair checked")
	}
}

// craftedLite returns a 50-site Lite whose sites 0..19 stay where NewLite
// put them and 20..at−1 are crafted around sites 0 and 1, where the
// chord bounds are tightest: near-coincident pairs from 1e-15 rad to
// 1e-2 rad apart, near-antipodal ones and unit vectors scaled so their
// dot product rounds past +1 or −1 (Delay clamps it).
func craftedLite(t *testing.T) (l *Lite, at int) {
	l, err := NewLite(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	scale := func(v [3]float64, f float64) [3]float64 { return [3]float64{v[0] * f, v[1] * f, v[2] * f} }
	near := func(a [3]float64, eps float64) [3]float64 {
		// Rotate a by eps about an axis orthogonal to it.
		p := [3]float64{-a[1], a[0], 0}
		pn := math.Hypot(p[0], p[1])
		p = scale(p, 1/pn)
		return [3]float64{a[0]*math.Cos(eps) + p[0]*math.Sin(eps), a[1]*math.Cos(eps) + p[1]*math.Sin(eps), a[2] * math.Cos(eps)}
	}
	at = 20
	for _, base := range []int{0, 1} {
		a := l.unit[base]
		for _, eps := range []float64{1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2} {
			l.unit[at] = near(a, eps)
			l.unit[at+1] = near(scale(a, -1), eps)
			at += 2
		}
		l.unit[at] = scale(a, -1)
		l.unit[at+1] = scale(a, 1+0x1p-51)  // dot with a rounds past +1
		l.unit[at+2] = scale(a, -1-0x1p-51) // dot with a rounds past −1
		at += 3
	}
	return l, at
}

// ulps steps x by k float64s, up for k > 0 and down for k < 0.
func ulps(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestLiteCosThresholdSound is the exactness net of the cosine form of
// the chord test: on craftedLite's sites, Cos(i, j) ≤ CosThreshold(c)
// must mean Delay(i, j) ≥ c and PathAtLeast(i, j, c), for every pair
// i ≠ j and c at Delay ± 4 ulps and at the access delay ± 4 ulps. It
// must also prove the easy cases: the access delay plus 60% of the
// propagation at the largest inflation, 1.36, minus 1e-3 ms.
func TestLiteCosThresholdSound(t *testing.T) {
	l, at := craftedLite(t)
	access := l.accessDelayMS
	proved := 0
	for i := 0; i < at; i++ {
		for j := 0; j < at; j++ {
			if i == j {
				continue
			}
			d, x := l.Delay(i, j), l.Cos(i, j)
			for k := -4; k <= 4; k++ {
				for _, c := range []float64{ulps(d, k), ulps(access, k)} {
					if x <= l.CosThreshold(c) && (d < c || !l.PathAtLeast(i, j, c)) {
						t.Fatalf("Cos(%d, %d) = %v ≤ CosThreshold(%v) = %v, but Delay is %v, PathAtLeast %v", i, j, x, c, l.CosThreshold(c), d, l.PathAtLeast(i, j, c))
					}
				}
			}
			if c := access + 0.6*(d-access)/1.36 - 1e-3; c > access && x > l.CosThreshold(c) {
				t.Fatalf("Cos(%d, %d) = %v above CosThreshold(%v) = %v with Delay %v: 60%% of the arc is within the chord", i, j, x, c, l.CosThreshold(c), d)
			} else if c > access {
				proved++
			}
		}
	}
	if proved == 0 {
		t.Fatal("no easy case checked")
	}
	if !math.IsInf(l.CosThreshold(access-1e-3), 1) || !math.IsNaN(l.CosThreshold(math.NaN())) {
		t.Fatal("CosThreshold must prove every pair below the access delay and none at NaN")
	}
	// The claim itself, in exact arithmetic at the largest cosine it
	// admits, x = τ: 2(1−τ)s² ≥ t²(1+2^-18), with t and s the float64s the
	// chord test uses. Thresholds run from a hair above the access delay,
	// where q is far below the rounding of 1 − q, past the antipode.
	s := earthRadiusKM * l.propagationFactor
	exact := func(x float64) *big.Float { return new(big.Float).SetPrec(2048).SetFloat64(x) }
	mul := func(a, b *big.Float) *big.Float { return new(big.Float).SetPrec(2048).Mul(a, b) }
	for e := -70; e <= 10; e++ {
		for k := -2; k <= 2; k++ {
			c := ulps(access+math.Ldexp(1.37, e), k)
			tau := l.CosThreshold(c)
			tt := c + 0x1p-16 - access
			lhs := mul(mul(exact(2), new(big.Float).SetPrec(2048).Sub(exact(1), exact(tau))), mul(exact(s), exact(s)))
			rhs := mul(mul(exact(tt), exact(tt)), exact(1+0x1p-18))
			if lhs.Cmp(rhs) < 0 {
				t.Fatalf("c = %v: CosThreshold %v admits a cosine whose chord falls short of t = %v", c, tau, tt)
			}
		}
	}
}

// TestLitePathAtLeastSound is the exactness net of the path bound: a
// true PathAtLeast(i, j, c) must mean that the float64 left fold of the
// Delays along the path i→…→j is ≥ c. Paths of 1 to 6 arcs are random
// walks over NewLite's sites, sites 1e-15 to 1e-2 rad from them, near
// their antipodes and on the great circle between two of them — the
// sites where the chord test is tightest: there the path's angles add
// up to the chord's. Thresholds sit at the fold ± 4 ulps, and a one-arc
// path also at the access delay ± 4 ulps, where the shared test runs at
// the pair's own inflation too (DelayAtLeast). The bound must also prove
// the easy cases: on a great-circle path, the access delay plus 60% of
// the chord's propagation at inflation 1.
func TestLitePathAtLeastSound(t *testing.T) {
	l, err := NewLite(120, 11)
	if err != nil {
		t.Fatal(err)
	}
	scale := func(v [3]float64, f float64) [3]float64 { return [3]float64{v[0] * f, v[1] * f, v[2] * f} }
	add := func(a, b [3]float64) [3]float64 { return [3]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }
	// slerp is the point a fraction f along the great circle a→b.
	slerp := func(a, b [3]float64, f float64) [3]float64 {
		om := math.Acos(a[0]*b[0] + a[1]*b[1] + a[2]*b[2])
		return add(scale(a, math.Sin((1-f)*om)/math.Sin(om)), scale(b, math.Sin(f*om)/math.Sin(om)))
	}
	// near rotates a by eps about an axis orthogonal to it.
	near := func(a [3]float64, eps float64) [3]float64 {
		p := [3]float64{-a[1], a[0], 0}
		p = scale(p, 1/math.Hypot(p[0], p[1]))
		return add(scale(a, math.Cos(eps)), scale(p, math.Sin(eps)))
	}
	// Sites 0..9 stay where NewLite put them; 10..57 sit near 0..3 and
	// near their antipodes, 58..117 on great circles between 4..9.
	at := 10
	for base := 0; base < 4; base++ {
		for _, eps := range []float64{1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2} {
			l.unit[at] = near(l.unit[base], eps)
			l.unit[at+1] = near(scale(l.unit[base], -1), eps)
			at += 2
		}
	}
	var circles [][]int // site ids along one great circle, in order
	for a := 4; a < 10; a++ {
		for b := a + 1; b < 10 && at+6 <= l.N(); b++ {
			circle := []int{a}
			for _, f := range []float64{0.1, 0.3, 0.5, 0.55, 0.8, 0.999} {
				l.unit[at] = slerp(l.unit[a], l.unit[b], f)
				circle = append(circle, at)
				at++
			}
			circles = append(circles, append(circle, b))
		}
	}
	access := l.accessDelayMS
	ulps := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; k < 0; k++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	check := func(path []int) {
		fold := 0.0
		for x := 1; x < len(path); x++ {
			fold += l.Delay(path[x-1], path[x])
		}
		i, j := path[0], path[len(path)-1]
		var cs []float64
		for k := -4; k <= 4; k++ {
			cs = append(cs, ulps(fold, k))
			if len(path) == 2 {
				cs = append(cs, ulps(access, k))
			}
		}
		for _, c := range cs {
			if l.PathAtLeast(i, j, c) && fold < c {
				t.Fatalf("PathAtLeast(%d, %d, %v) = true, but the path %v folds to %v", i, j, c, path, fold)
			}
			if len(path) == 2 && l.DelayAtLeast(i, j, c) && fold < c {
				t.Fatalf("DelayAtLeast(%d, %d, %v) = true, but Delay is %v", i, j, c, fold)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		path := []int{rng.Intn(at)}
		for h := 1 + rng.Intn(6); h > 0; h-- {
			if v := rng.Intn(at); v != path[len(path)-1] {
				path = append(path, v)
			}
		}
		check(path)
	}
	proved := 0
	for _, circle := range circles {
		// Every in-order sub-path: the arcs' angles add up to the chord's.
		for mask := 0; mask < 1<<len(circle); mask++ {
			var path []int
			for x, v := range circle {
				if mask&(1<<x) != 0 {
					path = append(path, v)
				}
			}
			if len(path) < 2 {
				continue
			}
			check(path)
			i, j := path[0], path[len(path)-1]
			chord := math.Sqrt(2 * (1 - l.Cos(i, j)))
			if c := access + 0.6*chord*earthRadiusKM*l.propagationFactor; !l.PathAtLeast(i, j, c) {
				t.Fatalf("PathAtLeast(%d, %d, %v) = false: 60%% of the chord is proven", i, j, c)
			}
			proved++
		}
	}
	if proved == 0 {
		t.Fatal("no great-circle path checked")
	}
}

// ulpDist is the signed number of float64 steps from a to b (both > 0).
func ulpDist(a, b float64) int64 {
	return int64(math.Float64bits(b)) - int64(math.Float64bits(a))
}

func TestRegionString(t *testing.T) {
	seen := map[string]bool{}
	for r := Region(0); r < numRegions; r++ {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "Region(") {
			t.Fatalf("region %d has no name: %q", int(r), s)
		}
		if seen[s] {
			t.Fatalf("duplicate region name %q", s)
		}
		seen[s] = true
	}
	if s := Region(99).String(); s != "Region(99)" {
		t.Fatalf("unknown region prints %q", s)
	}
}
