package sim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/sampling"
	"egoist/internal/underlay"
)

// stripWall zeroes the wall-clock fields so results can be compared
// byte-for-byte.
func stripWall(r *ScaleResult) *ScaleResult {
	out := *r
	out.PerEpoch = append([]ScaleEpoch(nil), r.PerEpoch...)
	for i := range out.PerEpoch {
		out.PerEpoch[i].WallNS = 0
	}
	return &out
}

// TestScaleDeterministicAcrossWorkers is the sampled-mode determinism
// contract: Workers 1 and Workers 8 must produce byte-identical results.
func TestScaleDeterministicAcrossWorkers(t *testing.T) {
	for _, spec := range []sampling.Spec{
		{Strategy: sampling.Uniform, M: 25},
		{Strategy: sampling.Demand, M: 25},
		{Strategy: sampling.Stratified, M: 25},
	} {
		base := ScaleConfig{
			N: 120, K: 3, Seed: 11, Sample: spec, MaxEpochs: 4,
			DemandAt: staticPref(func(i, j int) float64 { return 1 + float64((i+j)%5) }),
		}
		cfgA := base
		cfgA.Workers = 1
		cfgB := base
		cfgB.Workers = 8
		a, err := RunScale(cfgA)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		b, err := RunScale(cfgB)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
			t.Fatalf("%v: Workers 1 vs 8 diverged", spec)
		}
	}
}

// TestScaleDerivedSizes pins the three sizes withDefaults derives — the
// directory cap, the explorer slots and the candidate sample — against
// the formulas the former PoolTarget / PoolExplore / CandSample defaults
// computed, written out literally, on every side of every clamp (the
// goldens pin one configuration only).
func TestScaleDerivedSizes(t *testing.T) {
	for _, c := range []struct{ n, k, m int }{
		{10000, 8, 500}, // headline: no clamp anywhere (1256 / 157 / 64)
		{600, 4, 100},   // scale-converge's shape (456 / 57 / 64)
		{300, 4, 40},    // N < 2M+256: the cap is the roster, 300
		{40, 3, 10},     // N < 64: 40/8 = 5 explorers, floor 8
		{200, 40, 41},   // K > 32: the candidate sample is 2K = 80
		{4, 3, 4},       // the cap's lowest value is K+1, by K < N and M >= K+1
	} {
		cfg := ScaleConfig{N: c.n, K: c.k, Sample: sampling.Spec{Strategy: sampling.Uniform, M: c.m}}
		out, err := cfg.withDefaults()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		target := 2*c.m + 256
		if target > c.n {
			target = c.n
		}
		if target < c.k+1 {
			target = c.k + 1
		}
		explore := target / 8
		if explore < 8 {
			explore = 8
		}
		sampled := 64
		if sampled < 2*c.k {
			sampled = 2 * c.k
		}
		if out.poolTarget != target || out.poolExplore != explore || out.candSample != sampled {
			t.Fatalf("%+v: derived %d/%d/%d, want %d/%d/%d", c,
				out.poolTarget, out.poolExplore, out.candSample, target, explore, sampled)
		}
	}
}

// TestScaleConverges checks the dynamics settle: the rewire count at the
// end is a small fraction of the population and the estimated cost does
// not degrade from the bootstrap wiring.
func TestScaleConverges(t *testing.T) {
	res, err := RunScale(ScaleConfig{
		N: 200, K: 3, Seed: 5,
		Sample:    sampling.Spec{Strategy: sampling.Demand, M: 40},
		MaxEpochs: 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs run")
	}
	last := res.PerEpoch[res.Epochs-1]
	if !res.Converged && last.Rewires > 200/5 {
		t.Errorf("still re-wiring heavily after %d epochs: %d nodes", res.Epochs, last.Rewires)
	}
	first := res.PerEpoch[0]
	if last.MeanEstCost > first.MeanEstCost*1.05 {
		t.Errorf("estimated cost degraded: %f -> %f", first.MeanEstCost, last.MeanEstCost)
	}
	for i, w := range res.Wiring {
		if len(w) == 0 || len(w) > 3 {
			t.Fatalf("node %d wiring has %d links", i, len(w))
		}
	}
}

// trueSocialCost computes the exact full-roster mean per-node routing
// cost of a wiring over the given net (only feasible at test sizes).
func trueSocialCost(net ScaleNet, wiring [][]int) float64 {
	n := net.N()
	g := graph.New(n)
	for u, ws := range wiring {
		for _, v := range ws {
			g.AddArc(u, v, net.Delay(u, v))
		}
	}
	dist := graph.APSP(g)
	total := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := dist[i][j]
			if math.IsInf(d, 1) {
				d = core.DisconnectedPenalty
			}
			total += d
		}
	}
	return total / float64(n)
}

// TestScaleSampledNearFull compares the sampled dynamics' true social
// cost against full-roster dynamics (sample = whole roster) at a size
// where both run: the sampled overlay must stay within a modest factor.
func TestScaleSampledNearFull(t *testing.T) {
	net, err := underlay.NewLite(150, 99)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunScale(ScaleConfig{
		N: 150, K: 3, Seed: 7, Net: net,
		Sample:    sampling.Spec{Strategy: sampling.Uniform, M: 149},
		MaxEpochs: 6, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunScale(ScaleConfig{
		N: 150, K: 3, Seed: 7, Net: net,
		Sample:    sampling.Spec{Strategy: sampling.Demand, M: 35},
		MaxEpochs: 6, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cf := trueSocialCost(net, full.Wiring)
	cs := trueSocialCost(net, sampled.Wiring)
	if cs > cf*1.6 {
		t.Errorf("sampled overlay cost %f vs full %f (ratio %.2f)", cs, cf, cs/cf)
	}
	if cf >= core.DisconnectedPenalty || cs >= core.DisconnectedPenalty {
		t.Errorf("overlay disconnected: full %f sampled %f", cf, cs)
	}
}

// TestScaleRejectsBadConfig covers the validation paths.
func TestScaleRejectsBadConfig(t *testing.T) {
	bad := []ScaleConfig{
		{N: 2, K: 1, Sample: sampling.Spec{Strategy: sampling.Uniform, M: 5}},
		{N: 50, K: 0, Sample: sampling.Spec{Strategy: sampling.Uniform, M: 5}},
		{N: 50, K: 3, Sample: sampling.Spec{}},
		{N: 50, K: 5, Sample: sampling.Spec{Strategy: sampling.Uniform, M: 4}},
	}
	for i, cfg := range bad {
		if _, err := RunScale(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestHeadlineRecipe pins the one definition of the headline
// configuration: both legs of k, both clamps of m, and a caller's k
// kept.
func TestHeadlineRecipe(t *testing.T) {
	for _, c := range []struct{ n, k, wantK, wantM int }{
		{10000, 0, 8, 500},
		{2500, 0, 8, 125},
		{200, 0, 4, 10},
		{40, 0, 4, 6},
		{200, 12, 12, 14},
	} {
		k, spec := HeadlineRecipe(c.n, c.k)
		if k != c.wantK || spec.Strategy != sampling.Demand || spec.M != c.wantM {
			t.Errorf("HeadlineRecipe(%d, %d) = %d, %v; want %d, demand:%d", c.n, c.k, k, spec, c.wantK, c.wantM)
		}
	}
}

// scaleConvergeConfig is the repository benchmark's scale-converge
// workload: n=600, k=8, demand:100, four epochs from the bootstrap
// wiring, two workers.
func scaleConvergeConfig(tb testing.TB) ScaleConfig {
	net, err := underlay.NewLite(600, 2009)
	if err != nil {
		tb.Fatal(err)
	}
	return ScaleConfig{
		N: 600, K: 8, Seed: 7, Net: net,
		Sample:    sampling.Spec{Strategy: sampling.Demand, M: 100},
		MaxEpochs: 4, ConvergedFrac: -1, Workers: 2,
	}
}

// BenchmarkScaleConverge is one call of the scale-converge workload:
// the handle for profiling the proposal phase with -cpuprofile (README,
// "Where a proposal's time goes").
func BenchmarkScaleConverge(b *testing.B) {
	cfg := scaleConvergeConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScale(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScaleRowReuse pins what the directory-row reuse saves on the
// scale-converge workload, against figures the test derives on its own
// from the run's membership record: after the first rebuild a rebuild
// builds one fresh row per member the rotation brought in and none for
// the survivors, and the proposal phase runs a seeded Dijkstra for
// exactly the proposers outside the directory.
func TestScaleRowReuse(t *testing.T) {
	cfg := scaleConvergeConfig(t)
	cfg.probe = &scaleProbe{}
	var traced []int
	cfg.OnPhase = func(ev PhaseEvent) {
		if ev.Phase == "rebuild" {
			traced = append(traced, ev.Rows)
		}
	}
	res, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rebuilds := cfg.probe.rebuilds
	if len(rebuilds) != res.Epochs || res.DirectoryResets != res.Epochs {
		t.Fatalf("%d rebuilds recorded, %d logical resets, %d epochs", len(rebuilds), res.DirectoryResets, res.Epochs)
	}
	nonMembers, carried := 0, 0
	for e, rb := range rebuilds {
		if len(rb.ids) != res.PerEpoch[e].PoolSize {
			t.Fatalf("epoch %d: probe saw %d members, the epoch record %d", e, len(rb.ids), res.PerEpoch[e].PoolSize)
		}
		// No churn: everybody proposes once an epoch and membership only
		// changes at the rebuild.
		nonMembers += res.PerEpoch[e].Acted - len(rb.ids)
		isNew := len(rb.ids)
		if e > 0 {
			isNew = newMembers(rebuilds[e-1].ids, rb.ids)
			carried += len(rb.ids) - isNew
		}
		if rb.rows != isNew {
			t.Errorf("epoch %d rebuild built %d rows for %d new members of %d", e, rb.rows, isNew, len(rb.ids))
		}
		if traced[e] != rb.rows {
			t.Errorf("epoch %d rebuild event says rows_built=%d, the directory built %d", e, traced[e], rb.rows)
		}
	}
	if carried == 0 {
		t.Error("no member survived an epoch boundary: the run does not exercise the carry")
	}
	if got := int(cfg.probe.seeded.Load()); got != nonMembers || nonMembers == 0 {
		t.Errorf("%d seeded Dijkstras for %d proposals by non-members", got, nonMembers)
	}
}

// newMembers counts the ids of cur that are not in prev.
func newMembers(prev, cur []int) int {
	was := map[int]bool{}
	for _, v := range prev {
		was[v] = true
	}
	count := 0
	for _, v := range cur {
		if !was[v] {
			count++
		}
	}
	return count
}

// TestSelectByKeyMatchesSort checks the bounded selection against the
// full sort it replaced, ties on the key included, for every k.
func TestSelectByKeyMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		key := make([]float64, n)
		ids := rng.Perm(n)
		for x := range key {
			key[x] = float64(rng.Intn(6)) // few distinct keys: ids decide most comparisons
		}
		sorted := make([]int, 0, n)
		for x := 0; x < n; x += 1 + rng.Intn(2) { // a subset of the positions, as the nearest-half passes
			sorted = append(sorted, x)
		}
		slices.SortFunc(sorted, func(xa, xb int) int { return cmpByKey(key, ids, xa, xb) })
		for k := 0; k <= len(sorted); k++ {
			order := slices.Clone(sorted)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			if got := selectByKey(order, key, ids, k); !slices.Equal(got, sorted[:k]) {
				t.Fatalf("trial %d k=%d: selectByKey = %v, sorted prefix %v", trial, k, got, sorted[:k])
			}
		}
	}
}

// equalInts reports element-wise equality of two int slices.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEqualInts(t *testing.T) {
	if !equalInts(nil, nil) || !equalInts([]int{1, 2}, []int{1, 2}) {
		t.Fatal("equal slices reported unequal")
	}
	if equalInts([]int{1}, []int{2}) || equalInts([]int{1}, []int{1, 2}) {
		t.Fatal("unequal slices reported equal")
	}
}

// TestPolicyRNGIsStable pins the per-(epoch,node) RNG derivation: equal
// coordinates agree, distinct coordinates draw independently.
func TestPolicyRNGIsStable(t *testing.T) {
	a := policyRNG(42, 3, 7).Int63()
	if b := policyRNG(42, 3, 7).Int63(); a != b {
		t.Fatalf("same coordinates drew %d and %d", a, b)
	}
	seen := map[int64]bool{a: true}
	for _, coord := range [][2]int{{3, 8}, {4, 7}, {0, 0}, {-1, 7}} {
		v := policyRNG(42, coord[0], coord[1]).Int63()
		if seen[v] {
			t.Fatalf("coordinate %v collides with an earlier stream", coord)
		}
		seen[v] = true
	}
	// A worker re-seeds one generator per proposal instead of allocating
	// one: after draws of every kind the policies use, its next stream
	// must be policyRNG's, draw for draw.
	var ps policyStream
	for _, c := range []struct {
		seed        int64
		epoch, node int
	}{{42, 3, 7}, {42, 3, 7}, {42, 3, 8}, {7, -1, 0}, {-9, 1 << 20, 599}} {
		fresh, reused := policyRNG(c.seed, c.epoch, c.node), ps.at(c.seed, c.epoch, c.node)
		for d := 0; d < 8; d++ {
			if a, b := fresh.Int63(), reused.Int63(); a != b {
				t.Fatalf("%+v draw %d: Int63 %d fresh, %d re-seeded", c, d, a, b)
			}
			if a, b := fresh.Float64(), reused.Float64(); a != b {
				t.Fatalf("%+v draw %d: Float64 %v fresh, %v re-seeded", c, d, a, b)
			}
		}
		pa, pb := make([]int, 10), make([]int, 10)
		for x := range pa {
			pa[x], pb[x] = x, x
		}
		fresh.Shuffle(len(pa), func(x, y int) { pa[x], pa[y] = pa[y], pa[x] })
		reused.Shuffle(len(pb), func(x, y int) { pb[x], pb[y] = pb[y], pb[x] })
		if !equalInts(pa, pb) {
			t.Fatalf("%+v: Shuffle %v fresh, %v re-seeded", c, pa, pb)
		}
	}
}
