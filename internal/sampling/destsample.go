package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file implements the destination-sampling side of the scalability
// machinery: instead of evaluating its best response against the full
// O(n) destination roster, a node draws a weighted sample of destinations
// and optimizes an inverse-probability (Horvitz–Thompson) estimate of the
// full-roster cost. Three strategies are provided; all are unbiased for
// the total cost by construction, with a per-sample variance estimate
// that yields the 95% confidence band the simulator's adoption tests and
// the property tests consume.

// Strategy selects how destinations are drawn.
type Strategy int

const (
	// Uniform draws m destinations without replacement, each with equal
	// inclusion probability m/(n-1).
	Uniform Strategy = iota
	// Demand draws destinations with inclusion probability proportional
	// to the preference (demand) weight p_ij — Poisson sampling, so the
	// realized sample size is random with mean <= m. High-demand
	// destinations, which dominate the cost objective, are (almost)
	// always sampled; the tail is thinned.
	Demand
	// Stratified partitions destinations into direct-cost strata
	// (near/mid/far quantile bands) and draws uniformly within each, so
	// the sample covers every distance scale — the failure mode of pure
	// uniform sampling on clustered topologies is missing the far
	// cluster entirely.
	Stratified
)

// String names the strategy as the CLI spells it.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "uniform"
	case Demand:
		return "demand"
	case Stratified:
		return "strat"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy parses a strategy name ("uniform", "demand", "strat").
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uniform":
		return Uniform, nil
	case "demand":
		return Demand, nil
	case "strat", "stratified":
		return Stratified, nil
	default:
		return 0, fmt.Errorf("sampling: unknown strategy %q (want uniform, demand or strat)", s)
	}
}

// Spec is a parsed sampling specification: a strategy plus a target
// sample size, e.g. "demand:500".
//
// A Spec is an immutable value and draws share no hidden state: all
// randomness comes from the *rand.Rand the caller passes in, consumed
// deterministically. That is the contract the scale engine's parallel
// proposal phase builds on — each node draws from its own
// per-(epoch,node) seeded stream, so the sample (and everything priced
// off it) is independent of worker count and scheduling. Concurrent
// Draw/DrawFrom calls are safe whenever each goroutine owns its rng
// (*rand.Rand itself is not safe for shared use); pref/direct may be
// shared read-only.
type Spec struct {
	Strategy Strategy
	// M is the target sample size (exact for Uniform/Stratified, the
	// expected size for Demand's Poisson draw).
	M int
}

// String renders the spec in the CLI syntax.
func (s Spec) String() string { return fmt.Sprintf("%v:%d", s.Strategy, s.M) }

// ParseSpec parses "strategy:m" (e.g. "demand:500", "uniform:100").
func ParseSpec(s string) (Spec, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return Spec{}, fmt.Errorf("sampling: spec %q not of the form strategy:m", s)
	}
	st, err := ParseStrategy(parts[0])
	if err != nil {
		return Spec{}, err
	}
	m, err := strconv.Atoi(parts[1])
	if err != nil || m < 1 {
		return Spec{}, fmt.Errorf("sampling: bad sample size in spec %q", s)
	}
	return Spec{Strategy: st, M: m}, nil
}

// numStrata is the stratum count of the Stratified strategy: quartile
// bands of the direct-cost distribution.
const numStrata = 4

// DestSample is one node's drawn destination sample with the
// inverse-probability weights that make the weighted sample objective an
// unbiased estimate of the full-roster objective.
type DestSample struct {
	// Dests are the sampled destinations, sorted ascending.
	Dests []int
	// InvProb[i] is 1/π_j for Dests[i]: the Horvitz–Thompson expansion
	// weight.
	InvProb []float64

	strategy Strategy
	// Per-stratum population and sample sizes (Uniform uses one stratum)
	// for the without-replacement variance estimator; nil for Demand.
	stratumOf []int // aligned with Dests
	popN      []int
	samN      []int
}

// roster enumerates the destination population a draw runs over: the
// full id range [0, n) minus self, or an explicit id subset (the alive
// roster under dynamic membership) minus self. Draws index it densely,
// so the same sampling code serves both without duplicating RNG
// consumption on the full-range path.
type roster struct {
	ids     []int // nil: the full range [0, n)
	n       int
	self    int
	selfPos int // index of self within ids, or len(ids) if absent
}

func newRoster(ids []int, self, n int) roster {
	p := roster{ids: ids, n: n, self: self}
	if ids != nil {
		p.selfPos = len(ids)
		for x, v := range ids {
			if v == self {
				p.selfPos = x
				break
			}
		}
	}
	return p
}

// size is the number of drawable destinations (self excluded).
func (p roster) size() int {
	if p.ids == nil {
		return p.n - 1
	}
	if p.selfPos < len(p.ids) {
		return len(p.ids) - 1
	}
	return len(p.ids)
}

// at maps a dense population index to a node id, skipping self.
func (p roster) at(i int) int {
	if p.ids == nil {
		return skipSelf(i, p.self)
	}
	if i >= p.selfPos {
		i++
	}
	return p.ids[i]
}

// Draw samples destinations for node self out of the population
// {0..n-1}\{self} according to the spec. pref supplies the demand weights
// p_ij (nil = uniform; required meaningful only for Demand), direct the
// measured direct costs (used only by Stratified). The draw consumes rng
// deterministically, so a per-(epoch,node) seeded rng gives reproducible
// samples at any worker count.
func (s Spec) Draw(rng *rand.Rand, self, n int, pref, direct []float64) (*DestSample, error) {
	if n < 2 {
		return nil, fmt.Errorf("sampling: population of %d nodes", n)
	}
	ds := new(DestSample)
	if err := s.draw(ds, rng, newRoster(nil, self, n), pref, direct); err != nil {
		return nil, err
	}
	return ds, nil
}

// DrawFrom draws like Draw but over the explicit sub-population ids
// (self is skipped when present) — the alive roster under churn. ids
// must be ascending, as Dests are.
// Inclusion probabilities, HT weights and the variance bookkeeping are
// all relative to the sub-population, so estimates expand to totals
// over ids, never crediting departed nodes. pref and direct stay
// indexed by global node id.
func (s Spec) DrawFrom(rng *rand.Rand, self int, ids []int, pref, direct []float64) (*DestSample, error) {
	ds := new(DestSample)
	if err := s.DrawInto(ds, rng, self, ids, pref, direct); err != nil {
		return nil, err
	}
	return ds, nil
}

// DrawInto is DrawFrom writing into ds, whose slices it reuses: a Demand
// draw into a sample kept from an earlier one of at least its size does
// not allocate. What ds held before, and any sample sharing its slices,
// is overwritten.
func (s Spec) DrawInto(ds *DestSample, rng *rand.Rand, self int, ids []int, pref, direct []float64) error {
	p := newRoster(ids, self, len(ids)+1)
	if p.size() < 1 {
		return fmt.Errorf("sampling: sub-population of %d nodes besides self", p.size())
	}
	return s.draw(ds, rng, p, pref, direct)
}

func (s Spec) draw(ds *DestSample, rng *rand.Rand, p roster, pref, direct []float64) error {
	if s.M < 1 {
		return fmt.Errorf("sampling: non-positive sample size %d", s.M)
	}
	switch s.Strategy {
	case Uniform:
		drawUniform(ds, rng, p, s.M)
	case Demand:
		drawDemand(ds, rng, p, s.M, pref)
	case Stratified:
		if direct == nil {
			return fmt.Errorf("sampling: stratified draw needs direct costs")
		}
		drawStratified(ds, rng, p, s.M, direct)
	default:
		return fmt.Errorf("sampling: unknown strategy %d", int(s.Strategy))
	}
	return nil
}

// reset empties ds for a draw by strategy st, keeping its storage.
func (ds *DestSample) reset(st Strategy) {
	ds.strategy = st
	ds.Dests, ds.InvProb = ds.Dests[:0], ds.InvProb[:0]
	ds.stratumOf, ds.popN, ds.samN = ds.stratumOf[:0], ds.popN[:0], ds.samN[:0]
}

// drawUniform is simple random sampling without replacement:
// π_j = m/pop for every destination.
func drawUniform(ds *DestSample, rng *rand.Rand, p roster, m int) {
	pop := p.size()
	if m > pop {
		m = pop
	}
	// Floyd's algorithm over the population index space [0, pop), the
	// picks kept ascending in Dests (i exceeds every earlier pick), then
	// mapped around self, which keeps their order: O(m) space whatever n.
	ds.reset(Uniform)
	for i := pop - m; i < pop; i++ {
		j := rng.Intn(i + 1)
		if x, picked := slices.BinarySearch(ds.Dests, j); !picked {
			ds.Dests = slices.Insert(ds.Dests, x, j)
		} else {
			ds.Dests = append(ds.Dests, i)
		}
	}
	for x, j := range ds.Dests {
		ds.Dests[x] = p.at(j)
	}
	w := float64(pop) / float64(m)
	for range ds.Dests {
		ds.InvProb = append(ds.InvProb, w)
		ds.stratumOf = append(ds.stratumOf, 0)
	}
	ds.popN = append(ds.popN, pop)
	ds.samN = append(ds.samN, m)
}

// drawDemand is Poisson sampling with π_j proportional to pref[j],
// capped at 1: every destination is included independently with its own
// probability, so the HT estimator and its variance are exact.
func drawDemand(ds *DestSample, rng *rand.Rand, p roster, m int, pref []float64) {
	pop := p.size()
	if m >= pop {
		// Degenerate: the full roster, zero variance.
		ds.reset(Demand)
		for x := 0; x < pop; x++ {
			ds.Dests = append(ds.Dests, p.at(x))
			ds.InvProb = append(ds.InvProb, 1)
		}
		return
	}
	weight := func(j int) float64 {
		if pref == nil {
			return 1
		}
		if w := pref[j]; w > 0 {
			return w
		}
		return 0
	}
	total := 0.0
	for x := 0; x < pop; x++ {
		total += weight(p.at(x))
	}
	if total <= 0 {
		// No demand anywhere: fall back to a uniform draw.
		drawUniform(ds, rng, p, m)
		return
	}
	ds.reset(Demand)
	// Water-filling for the cap: capping π at 1 frees probability mass
	// that proportionality would have assigned beyond certainty. One
	// rescale pass over the uncapped remainder recovers most of the
	// target E[sample size] = m without iterating to a fixed point.
	// When the capped set alone reaches m (extreme skew), the rescale
	// is skipped: the certainty inclusions are the sample.
	lambda := float64(m) / total
	capped := 0
	cappedMass := 0.0
	for x := 0; x < pop; x++ {
		if w := weight(p.at(x)); lambda*w >= 1 {
			capped++
			cappedMass += w
		}
	}
	if capped > 0 && m > capped && total > cappedMass {
		lambda = float64(m-capped) / (total - cappedMass)
	}
	for x := 0; x < pop; x++ {
		j := p.at(x)
		pi := lambda * weight(j)
		if pi > 1 {
			pi = 1
		}
		if pi <= 0 {
			continue
		}
		if pi >= 1 || rng.Float64() < pi {
			ds.Dests = append(ds.Dests, j)
			ds.InvProb = append(ds.InvProb, 1/pi)
		}
	}
	if len(ds.Dests) == 0 {
		// Pathologically small m on a huge roster: guarantee one draw.
		ds.Dests = append(ds.Dests, p.at(rng.Intn(pop)))
		ds.InvProb = append(ds.InvProb, float64(pop))
	}
}

// drawStratified buckets destinations into numStrata direct-cost quantile
// bands and draws an equal share uniformly within each (SRSWOR per
// stratum) via per-stratum reservoir sampling: one O(n) pass, no sort of
// the full roster.
func drawStratified(ds *DestSample, rng *rand.Rand, p roster, m int, direct []float64) {
	pop := p.size()
	if m > pop {
		m = pop
	}
	if m < numStrata {
		// Too small to stratify meaningfully.
		drawUniform(ds, rng, p, m)
		return
	}
	cuts := stratumCuts(rng, p, direct)
	per := m / numStrata
	extra := m % numStrata
	reservoirs := make([][]int, numStrata)
	want := make([]int, numStrata)
	for h := 0; h < numStrata; h++ {
		want[h] = per
		if h < extra {
			want[h]++
		}
		reservoirs[h] = make([]int, 0, want[h])
	}
	popN := make([]int, numStrata)
	for x := 0; x < pop; x++ {
		j := p.at(x)
		h := stratumIndex(cuts, direct[j])
		popN[h]++
		// Reservoir sampling: keeps a uniform without-replacement sample
		// of size want[h] from the stream of stratum-h members.
		if len(reservoirs[h]) < want[h] {
			reservoirs[h] = append(reservoirs[h], j)
		} else if want[h] > 0 {
			if r := rng.Intn(popN[h]); r < want[h] {
				reservoirs[h][r] = j
			}
		}
	}
	ds.reset(Stratified)
	ds.popN = append(ds.popN, popN...)
	ds.samN = append(ds.samN, make([]int, numStrata)...)
	type member struct {
		dest, stratum int
	}
	var members []member
	for h := 0; h < numStrata; h++ {
		ds.samN[h] = len(reservoirs[h])
		for _, j := range reservoirs[h] {
			members = append(members, member{dest: j, stratum: h})
		}
	}
	sort.Slice(members, func(a, b int) bool { return members[a].dest < members[b].dest })
	for _, mb := range members {
		ds.Dests = append(ds.Dests, mb.dest)
		ds.InvProb = append(ds.InvProb, float64(ds.popN[mb.stratum])/float64(ds.samN[mb.stratum]))
		ds.stratumOf = append(ds.stratumOf, mb.stratum)
	}
}

// stratumCuts estimates the quartile cut points of the direct-cost
// distribution from a small pilot subsample, so stratification costs
// O(pilot·log pilot) instead of O(n·log n) per draw.
func stratumCuts(rng *rand.Rand, p roster, direct []float64) [numStrata - 1]float64 {
	const pilot = 128
	pop := p.size()
	var vals []float64
	if pop <= pilot {
		for x := 0; x < pop; x++ {
			vals = append(vals, direct[p.at(x)])
		}
	} else {
		for i := 0; i < pilot; i++ {
			vals = append(vals, direct[p.at(rng.Intn(pop))])
		}
	}
	sort.Float64s(vals)
	var cuts [numStrata - 1]float64
	for c := range cuts {
		cuts[c] = vals[(c+1)*len(vals)/numStrata]
	}
	return cuts
}

// stratumIndex maps a direct cost to its quantile band.
func stratumIndex(cuts [numStrata - 1]float64, v float64) int {
	for h, c := range cuts {
		if v < c {
			return h
		}
	}
	return numStrata - 1
}

// skipSelf maps a dense population index in [0, n-1) to a node id,
// skipping self.
func skipSelf(idx, self int) int {
	if idx >= self {
		return idx + 1
	}
	return idx
}

// Estimate is an unbiased estimate of a full-roster total with its
// normal-approximation 95% confidence band.
type Estimate struct {
	// Total is the Horvitz–Thompson point estimate Σ y_j/π_j.
	Total float64
	// StdErr is the estimated standard error of Total.
	StdErr float64
	// Lo and Hi bound the 95% confidence band Total ± 1.96·StdErr.
	Lo, Hi float64
}

// Contains reports whether v lies inside the 95% band.
func (e Estimate) Contains(v float64) bool { return v >= e.Lo && v <= e.Hi }

// z95 is the two-sided 95% normal quantile.
const z95 = 1.959963984540054

// t95 holds two-sided 95% Student-t quantiles for 1..30 degrees of
// freedom; beyond 30 the normal quantile is used. Small destination
// samples (the interesting regime of the scalability trade-off) badly
// undercover with the plain normal band.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// quantile95 returns the two-sided 95% quantile for df degrees of
// freedom.
func quantile95(df int) float64 {
	if df < 1 {
		return t95[0]
	}
	if df <= len(t95) {
		return t95[df-1]
	}
	return z95
}

// Estimate expands the per-destination values y(j) into an unbiased
// estimate of the population total Σ_{j≠self} y(j), with the variance
// estimator matching the strategy that drew the sample: the
// without-replacement (per-stratum) formula for Uniform and Stratified,
// the exact Poisson HT formula for Demand.
func (ds *DestSample) Estimate(y func(j int) float64) Estimate {
	return ds.EstimateAt(func(i int) float64 { return y(ds.Dests[i]) })
}

// EstimateAt is Estimate with the values given by position: y(i) is the
// value of destination Dests[i].
func (ds *DestSample) EstimateAt(y func(i int) float64) Estimate {
	var est Estimate
	df := 0
	switch ds.strategy {
	case Demand:
		exhaustive := true
		for i := range ds.Dests {
			yi := y(i)
			w := ds.InvProb[i]
			est.Total += yi * w
			// Var = Σ (1-π_j) (y_j/π_j)^2 for independent inclusions.
			est.StdErr += (1 - 1/w) * yi * yi * w * w
			if w > 1 {
				exhaustive = false
			}
		}
		df = len(ds.Dests) - 1
		if exhaustive {
			df = 1 << 30 // full roster: exact, quantile irrelevant
		}
	default:
		// Stratified expansion; Uniform is the single-stratum case.
		nh := len(ds.popN)
		sums := make([]float64, nh)
		sqs := make([]float64, nh)
		for i := range ds.Dests {
			yi := y(i)
			est.Total += yi * ds.InvProb[i]
			h := ds.stratumOf[i]
			if h == certaintyStratum {
				continue // exact inclusion: no variance contribution
			}
			sums[h] += yi
			sqs[h] += yi * yi
		}
		for h := 0; h < nh; h++ {
			N, m := float64(ds.popN[h]), float64(ds.samN[h])
			if m < 2 || N <= m || N <= 0 {
				continue // exhaustive or single-draw stratum: no variance term
			}
			s2 := (sqs[h] - sums[h]*sums[h]/m) / (m - 1)
			if s2 < 0 {
				s2 = 0
			}
			est.StdErr += N * N * (1 - m/N) * s2 / m
			df += ds.samN[h] - 1
		}
	}
	est.StdErr = math.Sqrt(math.Max(0, est.StdErr))
	q := quantile95(df)
	est.Lo = est.Total - q*est.StdErr
	est.Hi = est.Total + q*est.StdErr
	return est
}

// Strategy reports which strategy drew the sample.
func (ds *DestSample) Strategy() Strategy { return ds.strategy }

// Remap returns a copy of the sample with every destination id mapped
// through f, keeping weights and the variance bookkeeping intact. The
// scale engine uses it to translate a roster-level sample into the
// compacted id space of a node's local sub-instance. f must be
// injective; the mapped ids must preserve the original order if callers
// rely on Dests being sorted.
func (ds *DestSample) Remap(f func(j int) int) *DestSample {
	out := *ds
	out.Dests = make([]int, len(ds.Dests))
	for i, j := range ds.Dests {
		out.Dests[i] = f(j)
	}
	return &out
}

// certaintyStratum marks a destination included with probability 1
// outside the random draw: exact contribution, no variance term.
const certaintyStratum = -1

// EnsureCertain returns a copy of the sample with MakeCertain(ids)
// applied; the sample itself is left as it was.
func (ds *DestSample) EnsureCertain(ids []int) *DestSample {
	out := *ds
	out.Dests, out.InvProb = slices.Clone(ds.Dests), slices.Clone(ds.InvProb)
	out.stratumOf, out.popN, out.samN = slices.Clone(ds.stratumOf), slices.Clone(ds.popN), slices.Clone(ds.samN)
	out.MakeCertain(ids)
	return &out
}

// MakeCertain forces the given ids into the sample as certainty
// inclusions (π = 1): their values enter the estimate exactly and
// contribute no variance, and ids the random draw had already picked are
// re-weighted to 1. The forced ids form an exact stratum and the rest of
// the draw keeps its inclusion probabilities; for the without-replacement
// strategies the original strata still count the forced ids in their
// populations, an O(|ids|/n) expansion remainder that cancels in paired
// comparisons (the scale engine's only use). The scale engine forces each
// node's current neighbors in so that dropping a rarely-sampled
// neighbor's last link is always priced instead of being invisible in
// most epochs.
//
// It works in place and merges each id into Dests, which must be sorted
// ascending as every draw leaves them, by a binary search: it allocates
// only when the slices must grow. An id listed twice counts once.
func (ds *DestSample) MakeCertain(ids []int) {
	strata := ds.strategy != Demand
	for _, j := range ids {
		x, drawn := slices.BinarySearch(ds.Dests, j)
		if drawn {
			ds.InvProb[x] = 1
			// The variance bookkeeping must follow the reclassification:
			// a drawn member moved to the certainty stratum leaves both
			// its stratum's sample and (for the finite-population
			// correction) its population.
			if h := ds.stratumOf; strata && h[x] != certaintyStratum {
				ds.samN[h[x]]--
				ds.popN[h[x]]--
				h[x] = certaintyStratum
			}
			continue
		}
		ds.Dests = slices.Insert(ds.Dests, x, j)
		ds.InvProb = slices.Insert(ds.InvProb, x, 1)
		if strata {
			ds.stratumOf = slices.Insert(ds.stratumOf, x, certaintyStratum)
			// An undrawn forced id also leaves the population it would
			// have been sampled from; its stratum is only identifiable
			// in the single-stratum (Uniform) case. For Stratified the
			// uncorrected population overcounts by O(|ids|) — a slight
			// widening of the finite-population correction, which is
			// the conservative direction.
			if len(ds.popN) == 1 {
				ds.popN[0]--
			}
		}
	}
}
