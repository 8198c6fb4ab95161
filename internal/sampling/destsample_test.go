package sampling

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		ok   bool
	}{
		{"uniform:100", Spec{Uniform, 100}, true},
		{"demand:500", Spec{Demand, 500}, true},
		{"strat:64", Spec{Stratified, 64}, true},
		{"stratified:64", Spec{Stratified, 64}, true},
		{"demand", Spec{}, false},
		{"demand:0", Spec{}, false},
		{"demand:-3", Spec{}, false},
		{"bogus:10", Spec{}, false},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSpec(%q): err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if s := (Spec{Demand, 500}).String(); s != "demand:500" {
		t.Fatalf("Spec.String() = %q", s)
	}
}

// population builds a deterministic test population: per-destination
// values, preferences and direct costs with realistic skew.
func population(n int, seed int64) (y, pref, direct []float64) {
	rng := rand.New(rand.NewSource(seed))
	y = make([]float64, n)
	pref = make([]float64, n)
	direct = make([]float64, n)
	for j := range y {
		y[j] = 5 + 40*rng.Float64()
		pref[j] = math.Exp(rng.NormFloat64()) // lognormal demand skew
		direct[j] = 1 + 99*rng.Float64()
	}
	return
}

// TestEstimatorUnbiased checks that, averaged over many independent
// draws, the HT estimate matches the true population total for every
// strategy, and that the 95% band covers the truth at roughly the
// nominal rate.
func TestEstimatorUnbiased(t *testing.T) {
	const n, self, m, trials = 400, 7, 60, 400
	y, pref, direct := population(n, 1)
	truth := 0.0
	for j := 0; j < n; j++ {
		if j != self {
			truth += y[j]
		}
	}
	for _, spec := range []Spec{{Uniform, m}, {Demand, m}, {Stratified, m}} {
		rng := rand.New(rand.NewSource(42))
		sum := 0.0
		covered := 0
		for trial := 0; trial < trials; trial++ {
			ds, err := spec.Draw(rng, self, n, pref, direct)
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			est := ds.Estimate(func(j int) float64 { return y[j] })
			sum += est.Total
			if est.Contains(truth) {
				covered++
			}
			for i, j := range ds.Dests {
				if j == self || j < 0 || j >= n {
					t.Fatalf("%v: bad destination %d", spec, j)
				}
				if ds.InvProb[i] < 1 {
					t.Fatalf("%v: inverse probability %f < 1", spec, ds.InvProb[i])
				}
				if i > 0 && ds.Dests[i-1] >= j {
					t.Fatalf("%v: destinations not sorted/distinct", spec)
				}
			}
		}
		mean := sum / trials
		if rel := math.Abs(mean-truth) / truth; rel > 0.02 {
			t.Errorf("%v: mean estimate %.1f vs truth %.1f (rel err %.3f)", spec, mean, truth, rel)
		}
		if rate := float64(covered) / trials; rate < 0.88 {
			t.Errorf("%v: 95%% band covered truth in only %.0f%% of draws", spec, rate*100)
		}
	}
}

// TestDemandTargetsHighPref checks the demand draw includes the heavy
// destinations (the ones dominating the objective) essentially always.
func TestDemandTargetsHighPref(t *testing.T) {
	const n, self, m = 300, 0, 40
	pref := make([]float64, n)
	for j := range pref {
		pref[j] = 0.1
	}
	heavy := []int{17, 99, 250}
	for _, j := range heavy {
		pref[j] = 100
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		ds, err := Spec{Demand, m}.Draw(rng, self, n, pref, nil)
		if err != nil {
			t.Fatal(err)
		}
		have := map[int]bool{}
		for _, j := range ds.Dests {
			have[j] = true
		}
		for _, j := range heavy {
			if !have[j] {
				t.Fatalf("trial %d: heavy destination %d not sampled", trial, j)
			}
		}
	}
}

// TestStratifiedCoversAllBands checks the stratified draw picks
// destinations from every distance band of a strongly clustered cost
// distribution (the case uniform sampling fumbles).
func TestStratifiedCoversAllBands(t *testing.T) {
	const n, self, m = 400, 5, 32
	direct := make([]float64, n)
	for j := range direct {
		switch j % 4 {
		case 0:
			direct[j] = 1
		case 1:
			direct[j] = 10
		case 2:
			direct[j] = 100
		default:
			direct[j] = 1000
		}
	}
	rng := rand.New(rand.NewSource(4))
	ds, err := Spec{Stratified, m}.Draw(rng, self, n, nil, direct)
	if err != nil {
		t.Fatal(err)
	}
	var bands [4]int
	for _, j := range ds.Dests {
		switch {
		case direct[j] <= 1:
			bands[0]++
		case direct[j] <= 10:
			bands[1]++
		case direct[j] <= 100:
			bands[2]++
		default:
			bands[3]++
		}
	}
	for b, c := range bands {
		if c == 0 {
			t.Fatalf("distance band %d not covered: %v", b, bands)
		}
	}
}

// TestDemandExtremeSkew covers the water-filling edge case where the
// certainty set alone reaches the target size: the dominant
// destinations must stay in the sample with π=1 instead of the rescale
// collapsing every inclusion probability to zero.
func TestDemandExtremeSkew(t *testing.T) {
	const n, self, m = 100, 0, 2
	pref := make([]float64, n) // zero demand everywhere...
	pref[10], pref[20] = 1e6, 1e6
	rng := rand.New(rand.NewSource(8))
	ds, err := Spec{Demand, m}.Draw(rng, self, n, pref, nil)
	if err != nil {
		t.Fatal(err)
	}
	have := map[int]float64{}
	for i, j := range ds.Dests {
		have[j] = ds.InvProb[i]
	}
	for _, j := range []int{10, 20} {
		w, ok := have[j]
		if !ok {
			t.Fatalf("dominant destination %d not sampled: %v", j, ds.Dests)
		}
		if w != 1 {
			t.Fatalf("dominant destination %d should be a certainty inclusion, weight %f", j, w)
		}
	}
}

// TestEnsureCertain checks forced inclusions enter exactly and the
// estimator stays consistent.
func TestEnsureCertain(t *testing.T) {
	y, pref, direct := population(120, 3)
	for _, spec := range []Spec{{Uniform, 20}, {Demand, 20}, {Stratified, 20}} {
		rng := rand.New(rand.NewSource(6))
		base, err := spec.Draw(rng, 0, 120, pref, direct)
		if err != nil {
			t.Fatal(err)
		}
		forced := []int{5, 50, base.Dests[0]} // one likely-absent, one overlap
		ds := base.EnsureCertain(forced)
		have := map[int]float64{}
		for i, j := range ds.Dests {
			if i > 0 && ds.Dests[i-1] >= j {
				t.Fatalf("%v: not sorted/distinct after EnsureCertain", spec)
			}
			have[j] = ds.InvProb[i]
		}
		for _, j := range forced {
			if have[j] != 1 {
				t.Fatalf("%v: forced %d has weight %f, want 1", spec, j, have[j])
			}
		}
		est := ds.Estimate(func(j int) float64 { return y[j] })
		if est.StdErr < 0 || est.Total <= 0 {
			t.Fatalf("%v: degenerate estimate %+v", spec, est)
		}
	}
}

// refEnsureCertain is the map-and-sort EnsureCertain that MakeCertain's
// in-place merge replaced: the reference its samples must equal, field
// for field.
func refEnsureCertain(ds *DestSample, ids []int) *DestSample {
	force := map[int]bool{}
	for _, j := range ids {
		force[j] = true
	}
	out := *ds
	out.Dests, out.InvProb = nil, nil
	if ds.stratumOf != nil {
		out.stratumOf = nil
		out.popN = append([]int(nil), ds.popN...)
		out.samN = append([]int(nil), ds.samN...)
	}
	for i, j := range ds.Dests {
		out.Dests = append(out.Dests, j)
		if force[j] {
			out.InvProb = append(out.InvProb, 1)
			if ds.stratumOf != nil {
				out.stratumOf = append(out.stratumOf, certaintyStratum)
				if h := ds.stratumOf[i]; h != certaintyStratum {
					out.samN[h]--
					out.popN[h]--
				}
			}
			delete(force, j)
		} else {
			out.InvProb = append(out.InvProb, ds.InvProb[i])
			if ds.stratumOf != nil {
				out.stratumOf = append(out.stratumOf, ds.stratumOf[i])
			}
		}
	}
	for _, j := range ids {
		if !force[j] {
			continue
		}
		out.Dests = append(out.Dests, j)
		out.InvProb = append(out.InvProb, 1)
		if ds.stratumOf != nil {
			out.stratumOf = append(out.stratumOf, certaintyStratum)
			if len(out.popN) == 1 {
				out.popN[0]--
			}
		}
	}
	idx := make([]int, len(out.Dests))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return out.Dests[idx[a]] < out.Dests[idx[b]] })
	sorted := DestSample{strategy: out.strategy, popN: out.popN, samN: out.samN}
	for _, i := range idx {
		sorted.Dests = append(sorted.Dests, out.Dests[i])
		sorted.InvProb = append(sorted.InvProb, out.InvProb[i])
		if out.stratumOf != nil {
			sorted.stratumOf = append(sorted.stratumOf, out.stratumOf[i])
		}
	}
	return &sorted
}

// sameSample reports whether two samples agree field for field, weights
// bit for bit (nil and empty slices alike).
func sameSample(a, b *DestSample) bool {
	return a.strategy == b.strategy && slices.Equal(a.Dests, b.Dests) &&
		slices.EqualFunc(a.InvProb, b.InvProb, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) &&
		slices.Equal(a.stratumOf, b.stratumOf) && slices.Equal(a.popN, b.popN) && slices.Equal(a.samN, b.samN)
}

// TestMakeCertainMatchesReference: a draw into one reused sample followed
// by the in-place MakeCertain equals a fresh Draw followed by the
// map-and-sort reference, field for field, for every strategy (the
// reused sample switches strategies between draws), forced sets of drawn
// and undrawn ids in any order, and forcing twice. EnsureCertain's copy
// equals it too and leaves its source as drawn.
func TestMakeCertainMatchesReference(t *testing.T) {
	_, pref, direct := population(150, 4)
	rng := rand.New(rand.NewSource(9))
	var reused DestSample
	for trial := 0; trial < 300; trial++ {
		spec := Spec{Strategy(rng.Intn(3)), 1 + rng.Intn(60)}
		self := rng.Intn(150)
		ids := rng.Perm(150)[:10+rng.Intn(140)]
		slices.Sort(ids)
		seed := rng.Int63()
		fresh, err := spec.DrawFrom(rand.New(rand.NewSource(seed)), self, ids, pref, direct)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.DrawInto(&reused, rand.New(rand.NewSource(seed)), self, ids, pref, direct); err != nil {
			t.Fatal(err)
		}
		if !sameSample(&reused, fresh) {
			t.Fatalf("trial %d %v: a draw into a reused sample differs from a fresh one", trial, spec)
		}
		var forced []int
		for n := rng.Intn(6); n > 0; n-- {
			if rng.Intn(2) == 0 && len(fresh.Dests) > 0 {
				forced = append(forced, fresh.Dests[rng.Intn(len(fresh.Dests))])
			} else if j := rng.Intn(150); j != self && !slices.Contains(forced, j) {
				forced = append(forced, j)
			}
		}
		drawn := refEnsureCertain(fresh, nil)
		want := refEnsureCertain(fresh, forced)
		if got := fresh.EnsureCertain(forced); !sameSample(got, want) || !sameSample(fresh, drawn) {
			t.Fatalf("trial %d %v forced %v: EnsureCertain %+v, reference %+v", trial, spec, forced, got, want)
		}
		reused.MakeCertain(forced)
		if !sameSample(&reused, want) {
			t.Fatalf("trial %d %v forced %v: MakeCertain %+v, reference %+v", trial, spec, forced, reused, want)
		}
		reused.MakeCertain(forced)
		if !sameSample(&reused, refEnsureCertain(want, forced)) {
			t.Fatalf("trial %d %v forced %v: forcing twice differs from the reference", trial, spec, forced)
		}
	}
}

// TestDrawDeterminism checks equal seeds give equal samples.
func TestDrawDeterminism(t *testing.T) {
	_, pref, direct := population(200, 9)
	for _, spec := range []Spec{{Uniform, 30}, {Demand, 30}, {Stratified, 30}} {
		a, err := spec.Draw(rand.New(rand.NewSource(7)), 3, 200, pref, direct)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Draw(rand.New(rand.NewSource(7)), 3, 200, pref, direct)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Dests) != len(b.Dests) {
			t.Fatalf("%v: nondeterministic sample size", spec)
		}
		for i := range a.Dests {
			if a.Dests[i] != b.Dests[i] || a.InvProb[i] != b.InvProb[i] {
				t.Fatalf("%v: nondeterministic draw", spec)
			}
		}
	}
}

// TestDrawFullRoster checks m >= population degenerates to the exact
// full-roster "sample" with unit weights (no variance).
func TestDrawFullRoster(t *testing.T) {
	y, pref, direct := population(20, 2)
	truth := 0.0
	for j := 0; j < 20; j++ {
		if j != 4 {
			truth += y[j]
		}
	}
	for _, spec := range []Spec{{Uniform, 19}, {Demand, 50}} {
		ds, err := spec.Draw(rand.New(rand.NewSource(1)), 4, 20, pref, direct)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Dests) != 19 {
			t.Fatalf("%v: got %d dests, want 19", spec, len(ds.Dests))
		}
		est := ds.Estimate(func(j int) float64 { return y[j] })
		if math.Abs(est.Total-truth) > 1e-9 || est.StdErr > 1e-9 {
			t.Fatalf("%v: full roster should be exact: %+v vs %f", spec, est, truth)
		}
	}
}

// TestDrawFromSubsetOnly checks every strategy's masked draw stays
// inside the given id subset and never includes self — the alive-roster
// contract of the scale engine under churn.
func TestDrawFromSubsetOnly(t *testing.T) {
	const n = 200
	_, pref, direct := population(n, 3)
	var ids []int
	inIDs := map[int]bool{}
	for j := 0; j < n; j += 3 { // every third node is alive
		ids = append(ids, j)
		inIDs[j] = true
	}
	self := ids[10]
	for _, spec := range []Spec{{Uniform, 20}, {Demand, 20}, {Stratified, 20}} {
		ds, err := spec.DrawFrom(rand.New(rand.NewSource(7)), self, ids, pref, direct)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if len(ds.Dests) == 0 {
			t.Fatalf("%v: empty draw", spec)
		}
		for _, j := range ds.Dests {
			if !inIDs[j] {
				t.Fatalf("%v: drew %d outside the subset", spec, j)
			}
			if j == self {
				t.Fatalf("%v: drew self", spec)
			}
		}
	}
}

// TestDrawFromUnbiased checks the HT estimate over a masked draw
// targets the subset total (not the full-range total), within a few
// percent over many repetitions.
func TestDrawFromUnbiased(t *testing.T) {
	const n = 300
	y, pref, direct := population(n, 5)
	var ids []int
	for j := 0; j < n; j++ {
		if j%2 == 0 {
			ids = append(ids, j)
		}
	}
	self := ids[0]
	truth := 0.0
	for _, j := range ids {
		if j != self {
			truth += y[j]
		}
	}
	for _, spec := range []Spec{{Uniform, 30}, {Demand, 30}, {Stratified, 30}} {
		rng := rand.New(rand.NewSource(11))
		const reps = 400
		sum := 0.0
		for r := 0; r < reps; r++ {
			ds, err := spec.DrawFrom(rng, self, ids, pref, direct)
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			sum += ds.Estimate(func(j int) float64 { return y[j] }).Total
		}
		mean := sum / reps
		if rel := math.Abs(mean-truth) / truth; rel > 0.05 {
			t.Errorf("%v: mean estimate %f vs subset total %f (rel err %.3f)", spec, mean, truth, rel)
		}
	}
}

// TestDrawFromTiny covers the degenerate sub-populations: one node
// besides self works, self-only errors.
func TestDrawFromTiny(t *testing.T) {
	_, pref, direct := population(10, 1)
	ds, err := (Spec{Uniform, 5}).DrawFrom(rand.New(rand.NewSource(1)), 3, []int{3, 7}, pref, direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Dests) != 1 || ds.Dests[0] != 7 {
		t.Fatalf("draw over {3,7}\\{3} = %v, want [7]", ds.Dests)
	}
	if _, err := (Spec{Uniform, 5}).DrawFrom(rand.New(rand.NewSource(1)), 3, []int{3}, pref, direct); err == nil {
		t.Fatal("self-only sub-population accepted")
	}
}
