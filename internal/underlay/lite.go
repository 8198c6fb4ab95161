package underlay

import (
	"fmt"
	"math"
	"math/rand"
)

// Lite is the O(n)-memory synthetic underlay of the large-scale
// simulation mode: sites are placed with the same PlanetLab-mix
// geography as Underlay, but pairwise delay is computed on demand from
// the great-circle distance plus a deterministic per-pair inflation
// hash — no n×n matrices, so a 10k+-node overlay costs kilobytes
// instead of gigabytes. Delays are static (the static-trace setting of
// the paper's Sect. 5 scalability study).
type Lite struct {
	seed              int64
	sites             []Site
	unit              [][3]float64 // per-site unit vectors for fast arc length
	propagationFactor float64
	accessDelayMS     float64
}

// NewLite builds an n-site constant-memory underlay.
func NewLite(n int, seed int64) (*Lite, error) {
	if n < 2 {
		return nil, fmt.Errorf("underlay: need at least 2 sites, got %d", n)
	}
	l := &Lite{
		seed:              seed,
		propagationFactor: 0.015,
		accessDelayMS:     2,
	}
	l.sites = placeSites(n, rand.New(rand.NewSource(seed)))
	l.unit = make([][3]float64, n)
	rad := math.Pi / 180
	for i, s := range l.sites {
		lat, lon := s.Lat*rad, s.Lon*rad
		l.unit[i] = [3]float64{
			math.Cos(lat) * math.Cos(lon),
			math.Cos(lat) * math.Sin(lon),
			math.Sin(lat),
		}
	}
	return l, nil
}

// N returns the number of sites.
func (l *Lite) N() int { return len(l.sites) }

// Site returns the i-th site descriptor.
func (l *Lite) Site(i int) Site { return l.sites[i] }

const earthRadiusKM = 6371

// Delay returns the static one-way delay in ms from i to j: access delay
// plus great-circle propagation inflated by a deterministic per-pair
// routing factor. Asymmetric (the (i,j) and (j,i) inflations differ),
// like real routed paths.
func (l *Lite) Delay(i, j int) float64 {
	if i == j {
		return 0
	}
	dot := l.Cos(i, j)
	if dot > 1 {
		dot = 1
	} else if dot < -1 {
		dot = -1
	}
	km := earthRadiusKM * math.Acos(dot)
	return l.accessDelayMS + km*l.propagationFactor*l.inflation(i, j)
}

// DelayAtLeast reports that Delay(i, j) ≥ c without Delay's Acos, sqrt
// or division; false means only "not proven". A true answer holds for c
// taken 2^-50 larger too, so c may be the rounded best − w of two
// float64s: then w + Delay(i, j) ≥ best in reals, so also in float64.
//
// With x the float64 cosine Delay clamps (cos is the one expression
// both read), θ = acos(clamp(x)) and K = 6371·0.015·inflation < 2^8:
// the chord never exceeds the arc, 2(1−x) ≤ θ² since 1 − cos θ =
// 2 sin²(θ/2) ≤ θ²/2; a product rounding past 1 makes 2(1−x) negative,
// past −1 it stays within ulps of 4 < π². math.Acos errs by a few ulps
// plus the cancellation in its 1 − x·x, which moves √(1−x²) by at most
// 2^-54/sin θ and never below 0: under 2^-27 rad, 2^-19 ms. The test
// asks K·chord ≥ t = c + 2^-16 − access with 2^-18 to spare on the
// squares: the 2^-16 ms covers that error, the rounding of Delay's sum
// near the 2 ms access delay and c's 2^-50 (no c over 2^10 can pass),
// the 2^-18 every relative rounding here and in Delay. t ≤ 0 needs no
// distance: Delay is never below the access delay.
func (l *Lite) DelayAtLeast(i, j int, c float64) bool { return l.atLeast(i, j, c, true) }

// PathAtLeast reports that every path i→j of arcs priced by Delay sums
// to at least c (a graph.PathBound): DelayAtLeast's test at inflation
// 1, which no pair's is below. One arc is DelayAtLeast's case. On h ≥ 2
// arcs the exact angles between the unit vectors obey the triangle
// inequality, and each cosine's rounding (2^-50) and Acos's error move
// an arc's angle, or the chord's, by under 2^-24 rad, 2^-17 ms: h + 1
// such errors, which the (h−1)·2 ms of access delay the test never
// counts covers. The bound is on the real sum of the arcs' delays; a
// caller folding them in float64 leaves slack for that (pairEps).
func (l *Lite) PathAtLeast(i, j int, c float64) bool { return l.atLeast(i, j, c, false) }

// atLeast is the chord test of both, at the pair's inflation or at 1.
func (l *Lite) atLeast(i, j int, c float64, inflated bool) bool {
	if i == j {
		return c <= 0
	}
	t, s := c+0x1p-16-l.accessDelayMS, earthRadiusKM*l.propagationFactor
	if inflated && t > 0 {
		s *= l.inflation(i, j)
	}
	return t <= 0 || 2*(1-l.Cos(i, j))*s*s >= t*t*(1+0x1p-18)
}

// CosThreshold returns a τ with which Cos(i, j) ≤ τ proves Delay(i, j) ≥ c
// for every pair i ≠ j: PathAtLeast's chord test solved for the cosine,
// so a scan over many j at one c pays one dot product each. With
// t = c + 2^-16 − access, s = 6371·0.015 and q = t²(1+2^-17)/(2s²),
// τ = 1 − q − 2^-52. The 2^-17 covers q's four roundings, and with the
// 2^-52 the two subtractions' (under 2^-53 together while q ≤ 2, under
// 2^-52·q past it), so x ≤ τ gives 2(1−x)s² ≥ t²(1+2^-18) in reals: the
// chord test with its whole 2^-18 to spare, which DelayAtLeast's argument
// turns into Delay ≥ c. τ is +Inf when t ≤ 0, and NaN, which proves
// nothing, when c is NaN.
func (l *Lite) CosThreshold(c float64) float64 {
	t, s := c+0x1p-16-l.accessDelayMS, earthRadiusKM*l.propagationFactor
	if t <= 0 {
		return math.Inf(1)
	}
	return 1 - t*t*(1+0x1p-17)/(2*s*s) - 0x1p-52
}

// Cos is the cosine of the angle between sites i and j: the value Delay
// clamps and takes the Acos of.
func (l *Lite) Cos(i, j int) float64 {
	a, b := l.unit[i], l.unit[j]
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2]
}

// inflation hashes (seed, i, j) into the pair's routing factor in
// [1, 1.36): the same scale as Underlay's |N(0,1)|·0.15 lognormal-ish
// inflation.
func (l *Lite) inflation(i, j int) float64 {
	h := liteMix(uint64(l.seed) ^ 0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + uint64(j)*0x94d049bb133111eb)
	return 1 + 0.36*float64(h>>11)/float64(1<<53)
}

// liteMix is the SplitMix64 finalizer.
func liteMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
