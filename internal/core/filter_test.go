package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"egoist/internal/sampling"
)

// This file holds the solver's pruning to its promise (see the comment
// atop br.go): the pruned greedy + local search must return the same set
// and the same objective, bit for bit, as the unpruned solver it replaced.
// That solver is kept below as the reference, so the comparison also
// catches a change to the evaluators themselves.

// refBestResponse is the heuristic solver as it stood before pruning:
// eager greedy, every swap priced in full.
func refBestResponse(in *Instance, k int, opts BROptions) ([]int, float64) {
	cands := in.candidates()
	if k > len(cands) {
		k = len(cands)
	}
	if k == 0 {
		return nil, in.Eval(nil)
	}
	dests := in.dests()
	chosen := refGreedy(in, k, cands, dests)
	chosen, val := refLocalSearch(in, chosen, cands, dests, opts.maxPasses())
	sort.Ints(chosen)
	return chosen, val
}

func refGreedy(in *Instance, k int, cands, dests []int) []int {
	best := in.bestPerDest(nil, nil)
	used := make([]bool, in.n())
	chosen := make([]int, 0, k)
	for len(chosen) < k {
		bestCand := -1
		bestTotal := math.NaN()
		for _, w := range cands {
			if used[w] {
				continue
			}
			acc := newAccum(in.Kind, in.Agg)
			dw := in.Direct[w]
			row := in.Resid[w]
			for _, j := range dests {
				c := best[j]
				if alt := in.Kind.combine(dw, row[j]); in.Kind.better(alt, c) {
					c = alt
				}
				acc.add(in.pref(j), in.Kind.finalize(c))
			}
			total := acc.value()
			if bestCand == -1 || in.Kind.better(total, bestTotal) {
				bestCand, bestTotal = w, total
			}
		}
		if bestCand == -1 {
			break
		}
		chosen = append(chosen, bestCand)
		used[bestCand] = true
		in.foldFacilities(best, chosen[len(chosen)-1:])
	}
	return chosen
}

func refLocalSearch(in *Instance, cur, cands, dests []int, maxPasses int) ([]int, float64) {
	inSet := make([]bool, in.n())
	for _, w := range cur {
		inSet[w] = true
	}
	st := &refSwapState{
		in:       in,
		dests:    dests,
		best1W:   make([]int, len(dests)),
		best1Val: make([]float64, len(dests)),
		best2V:   make([]float64, len(dests)),
	}
	st.rebuild(cur)
	curVal := st.total()
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for si := range cur {
			old := cur[si]
			bestC := -1
			bestVal := curVal
			for _, c := range cands {
				if inSet[c] {
					continue
				}
				if v := st.swapValue(old, c); in.Kind.better(v, bestVal) {
					bestVal, bestC = v, c
				}
			}
			if bestC >= 0 {
				cur[si] = bestC
				inSet[old] = false
				inSet[bestC] = true
				curVal = bestVal
				st.rebuild(cur)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curVal
}

type refSwapState struct {
	in               *Instance
	dests            []int
	best1W           []int
	best1Val, best2V []float64
}

func (st *refSwapState) rebuild(cur []int) {
	in := st.in
	for di := range st.dests {
		st.best1W[di] = -1
		st.best1Val[di] = in.Kind.worst()
		st.best2V[di] = in.Kind.worst()
	}
	fold := func(w int, removable bool) {
		dw := in.Direct[w]
		row := in.Resid[w]
		for di, j := range st.dests {
			c := in.Kind.combine(dw, row[j])
			if in.Kind.better(c, st.best1Val[di]) {
				st.best2V[di] = st.best1Val[di]
				st.best1Val[di] = c
				if removable {
					st.best1W[di] = w
				} else {
					st.best1W[di] = -1
				}
			} else if in.Kind.better(c, st.best2V[di]) {
				st.best2V[di] = c
			}
		}
	}
	for _, w := range in.Fixed {
		fold(w, false)
	}
	for _, w := range cur {
		fold(w, true)
	}
}

func (st *refSwapState) total() float64 {
	in := st.in
	acc := newAccum(in.Kind, in.Agg)
	for di, j := range st.dests {
		acc.add(in.pref(j), in.Kind.finalize(st.best1Val[di]))
	}
	return acc.value()
}

func (st *refSwapState) swapValue(out, c int) float64 {
	in := st.in
	dc := in.Direct[c]
	rowC := in.Resid[c]
	acc := newAccum(in.Kind, in.Agg)
	for di, j := range st.dests {
		v := st.best1Val[di]
		if st.best1W[di] == out {
			v = st.best2V[di]
		}
		if cv := in.Kind.combine(dc, rowC[j]); in.Kind.better(cv, v) {
			v = cv
		}
		acc.add(in.pref(j), in.Kind.finalize(v))
	}
	return acc.value()
}

// Cost flavours of filterInstance. The first three and flavNegZero keep
// the instance regular, so the pruning must stay on; the rest must each
// switch it off.
const (
	flavContinuous = iota // distinct real costs
	flavInteger           // small integer costs: exact ties everywhere
	flavSparse            // +Inf residuals, facilities that reach only themselves
	flavPenalty           // a finite cost at or above DisconnectedPenalty
	flavNaN               // a NaN cost
	flavNegWeight         // a negative preference weight
	flavNegCost           // a negative direct cost
	flavNegZero           // a combined cost of −0 beside a +0 at the same destination
	numFlavours
)

// filterInstance draws a random instance of n nodes: random candidate,
// destination and Fixed subsets, nil or non-nil Pref with zero weights
// mixed in, and costs of the given flavour. It returns the instance and
// the k to solve it for.
func filterInstance(rng *rand.Rand, n int, kind CostKind, agg AggKind, flavour int) (*Instance, int) {
	self := rng.Intn(n)
	cost := func() float64 {
		if flavour == flavInteger {
			return float64(1 + rng.Intn(4))
		}
		return 1 + rng.Float64()*50
	}
	unreachable := math.Inf(1)
	if kind == Bottleneck {
		unreachable = 0
	}
	in := &Instance{Self: self, Kind: kind, Agg: agg, Direct: make([]float64, n), Resid: make([][]float64, n)}
	for w := range in.Resid {
		in.Direct[w] = cost()
		row := make([]float64, n)
		selfOnly := flavour == flavSparse && rng.Intn(3) == 0
		for j := range row {
			row[j] = cost()
			if selfOnly || (flavour == flavSparse && rng.Intn(5) == 0) {
				row[j] = unreachable
			}
		}
		row[w] = 0
		if kind == Bottleneck {
			row[w] = math.Inf(1)
		}
		in.Resid[w] = row
	}
	others := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != self {
			others = append(others, j)
		}
	}
	subset := func(min int) []int {
		m := min + rng.Intn(len(others)-min+1)
		out := append([]int(nil), others...)
		rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out[:m]
	}
	if rng.Intn(2) == 0 {
		in.Candidates = subset(1)
	}
	if rng.Intn(2) == 0 {
		in.Dests = subset(1)
	}
	if rng.Intn(3) == 0 {
		in.Fixed = subset(0)
		if len(in.Fixed) > 2 {
			in.Fixed = in.Fixed[:2]
		}
	}
	if rng.Intn(3) > 0 {
		in.Pref = make([]float64, n)
		for j := range in.Pref {
			if rng.Intn(6) > 0 {
				in.Pref[j] = rng.Float64() * 3
				if flavour == flavInteger {
					in.Pref[j] = float64(rng.Intn(3))
				}
			}
		}
	}
	// The irregular value goes where the solver is sure to meet it: on a
	// candidate's row, at a destination.
	cands, dests := in.candidates(), in.dests()
	c, d := cands[rng.Intn(len(cands))], dests[rng.Intn(len(dests))]
	switch flavour {
	case flavPenalty:
		in.Direct[c] = DisconnectedPenalty
	case flavNaN:
		in.Resid[c][d] = math.NaN()
	case flavNegWeight:
		if in.Pref == nil {
			in.Pref = make([]float64, n)
			for j := range in.Pref {
				in.Pref[j] = 1
			}
		}
		in.Pref[d] = -0.5
	case flavNegCost:
		in.Direct[c] = -100
	case flavNegZero:
		// −0 and +0 are equal but not the same bits: the solver must keep
		// whichever its first-strictly-better rule keeps. c2 reaches d at
		// +0, c at −0 (−0 + −0 under Additive, min(x, −0) under
		// Bottleneck).
		negZero := math.Copysign(0, -1)
		c2 := cands[rng.Intn(len(cands))]
		if kind == Additive {
			in.Direct[c2], in.Resid[c2][d] = 0, 0
			in.Direct[c] = negZero
		} else {
			in.Resid[c2][d] = 0
		}
		in.Resid[c][d] = negZero
	}
	// Half the draws leave nil every row the solvers must not read, those
	// of nodes outside Candidates ∪ Fixed, as the scale engine's facility
	// directory does: a solver that reads one panics.
	if rng.Intn(2) == 0 {
		keep := make([]bool, n)
		for _, w := range cands {
			keep[w] = true
		}
		for _, w := range in.Fixed {
			keep[w] = true
		}
		for w := range in.Resid {
			if !keep[w] {
				in.Resid[w] = nil
			}
		}
	}
	k := 1 + rng.Intn(len(cands))
	switch rng.Intn(4) {
	case 0:
		k = 1
	case 1:
		k = len(cands)
	}
	return in, k
}

// sampleFor draws a destination sample of in by a random strategy and size.
func sampleFor(t testing.TB, rng *rand.Rand, in *Instance) *sampling.DestSample {
	t.Helper()
	strategy := []sampling.Strategy{sampling.Uniform, sampling.Demand, sampling.Stratified}[rng.Intn(3)]
	spec := sampling.Spec{Strategy: strategy, M: 1 + rng.Intn(in.n()-1)}
	ds, err := spec.Draw(rng, in.Self, in.n(), in.Pref, in.Direct)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// refSampled is the sampled solver as it stood before the cost block: the
// reference solver on the instance reweighted to the sample (the sampled
// destinations only, each weighted by its preference times its inverse
// inclusion probability), the chosen set priced by EvalSampled.
func refSampled(in *Instance, k int, ds *sampling.DestSample) ([]int, sampling.Estimate) {
	w := make([]float64, in.n())
	for i, j := range ds.Dests {
		w[j] = in.pref(j) * ds.InvProb[i]
	}
	sin := *in
	sin.Dests, sin.Pref = ds.Dests, w
	chosen, _ := refBestResponse(&sin, k, BROptions{})
	return chosen, EvalSampled(in, chosen, ds, nil)
}

// sameEstimate reports whether two estimates agree in every bit.
func sameEstimate(a, b sampling.Estimate) bool {
	return math.Float64bits(a.Total) == math.Float64bits(b.Total) &&
		math.Float64bits(a.StdErr) == math.Float64bits(b.StdErr) &&
		math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// checkSampled solves in over ds with BestResponseSampled on scratch s and
// with refSampled, and requires the same set and the same estimate bits.
func checkSampled(t testing.TB, in *Instance, k int, ds *sampling.DestSample, s *Scratch) {
	t.Helper()
	got, gotEst, err := BestResponseSampled(in, k, ds, BROptions{}, s)
	if err != nil {
		t.Fatal(err)
	}
	want, wantEst := refSampled(in, k, ds)
	if !equalInts(got, want) || !sameEstimate(gotEst, wantEst) {
		t.Fatalf("sampled solver diverged (kind %v agg %v n %d k %d, %d sampled): set %v estimate %+v, reference %v estimate %+v",
			in.Kind, in.Agg, in.n(), k, len(ds.Dests), got, gotEst, want, wantEst)
	}
}

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

// TestSampledMatchesReference is the differential contract of the sampled
// path over the same random instances, each solved against a random
// destination sample on one reused scratch.
func TestSampledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20081201))
	var s Scratch
	instances := 0
	for _, kind := range []CostKind{Additive, Bottleneck} {
		for _, agg := range []AggKind{AggSum, AggWorst} {
			for flavour := 0; flavour < numFlavours; flavour++ {
				for trial := 0; trial < 30; trial++ {
					in, k := filterInstance(rng, 3+rng.Intn(38), kind, agg, flavour)
					checkSampled(t, in, k, sampleFor(t, rng, in), &s)
					instances++
				}
			}
		}
	}
	if instances < 800 {
		t.Fatalf("only %d instances compared", instances)
	}
}

// TestBestResponseBlockMatchesReference fills the block by hand, as the
// scale engine does, from instances of the engine's shape (candidate
// positions are node ids there), and requires BestResponseBlock to return
// the reference's set and estimate and, for a random current set, the
// estimate EvalSampled gives it. A consumed block must refuse a second
// solve.
func TestBestResponseBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	for seed := int64(1); seed <= 8; seed++ {
		in, ds, k := scaleShapedInstance(seed)
		fillBlock(&s, in, ds)
		cur := rng.Perm(len(in.Candidates))[:k]
		got, gotEst, gotCur, err := s.BestResponseBlock(k, cur, BROptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantEst := refSampled(in, k, ds)
		if !equalInts(got, want) || !sameEstimate(gotEst, wantEst) {
			t.Fatalf("seed %d: block solve chose %v estimate %+v, reference %v estimate %+v", seed, got, gotEst, want, wantEst)
		}
		if wantCur := EvalSampled(in, cur, ds, nil); !sameEstimate(gotCur, wantCur) {
			t.Fatalf("seed %d: current set %v estimated %+v on the block, EvalSampled %+v", seed, cur, gotCur, wantCur)
		}
		if _, _, _, err := s.BestResponseBlock(k, cur, BROptions{}, nil); err == nil {
			t.Fatalf("seed %d: a consumed block was solved again", seed)
		}
		// Interleave an Instance-path call on the same scratch.
		checkSampled(t, in, k, ds, &s)
	}
}

// fillBlock fills s's block by hand from an engine-shaped instance, as
// the scale engine fills it from its directory rows.
func fillBlock(s *Scratch, in *Instance, ds *sampling.DestSample) {
	C, D := len(in.Candidates), len(ds.Dests)
	cost, pref := s.Block(C, ds)
	for di, j := range ds.Dests {
		pref[di] = in.Pref[j]
		for a := 0; a < C; a++ {
			cost[a*D+di] = in.Direct[a] + in.Resid[a][j]
		}
	}
}

// TestBestResponseBlockKeep pins the bound BestResponseBlock hands its
// keep test: its Total is no larger than the estimate of the solver's
// choice, of the current set and of random sets, and under Demand neither
// is its half-width. A keep that says yes skips the solve — no set, the
// bound as the estimate, the current set's estimate in the same bits as a
// solve's — and still consumes the block.
func TestBestResponseBlockKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Scratch
	for seed := int64(1); seed <= 8; seed++ {
		in, ds, k := scaleShapedInstance(seed)
		C := len(in.Candidates)
		cur := rng.Perm(C)[:k]
		var bound sampling.Estimate
		asked := false
		fillBlock(&s, in, ds)
		got, est, estCur, err := s.BestResponseBlock(k, cur, BROptions{}, func(b, c sampling.Estimate) bool {
			bound, asked = b, true
			return false
		})
		if err != nil || !asked {
			t.Fatalf("seed %d: err %v, keep asked %v", seed, err, asked)
		}
		below := func(what string, e sampling.Estimate) {
			if bound.Total > e.Total || bound.Hi-bound.Total > (e.Hi-e.Total)+1e-12*e.Hi {
				t.Fatalf("seed %d: bound %+v above the %s's estimate %+v", seed, bound, what, e)
			}
		}
		below("chosen set", est)
		below("current set", estCur)
		// keepBound settled the selection the solve then ran with.
		if want, wantEst := refSampled(in, k, ds); !equalInts(got, want) || !sameEstimate(est, wantEst) {
			t.Fatalf("seed %d: solve after the bound chose %v estimate %+v, reference %v estimate %+v", seed, got, est, want, wantEst)
		}
		for trial := 0; trial < 20; trial++ {
			below("random set", EvalSampled(in, rng.Perm(C)[:1+rng.Intn(k)], ds, nil))
		}

		fillBlock(&s, in, ds)
		kept, keptEst, keptCur, err := s.BestResponseBlock(k, cur, BROptions{}, func(sampling.Estimate, sampling.Estimate) bool { return true })
		if err != nil || kept != nil || !sameEstimate(keptEst, bound) || !sameEstimate(keptCur, estCur) {
			t.Fatalf("seed %d: kept call returned %v %+v %+v %v, want no set, the bound %+v and %+v", seed, kept, keptEst, keptCur, err, bound, estCur)
		}
		if _, _, _, err := s.BestResponseBlock(k, cur, BROptions{}, nil); err == nil {
			t.Fatalf("seed %d: a kept block was solved again", seed)
		}
		if len(got) == 0 {
			t.Fatalf("seed %d: solver chose nothing", seed)
		}
	}
}

// TestBlockMinMaxSettled pins which loops a block runs: the min/max
// selection exactly when it is Additive and holds no NaN or −0 among its
// costs and Fixed bests — settled by fill, or for a hand-filled block by
// keepBound — and the branching loops otherwise.
func TestBlockMinMaxSettled(t *testing.T) {
	var s Scratch
	for _, tc := range []struct {
		kind    CostKind
		flavour int
		want    bool
	}{
		{Additive, flavContinuous, true},
		{Additive, flavSparse, true},
		{Additive, flavPenalty, true},
		{Additive, flavNegCost, true},
		{Additive, flavNaN, false},
		{Additive, flavNegZero, false},
		{Bottleneck, flavContinuous, false},
	} {
		in, _ := filterInstance(rand.New(rand.NewSource(5)), 12, tc.kind, AggSum, tc.flavour)
		if got := s.fill(in, in.candidates(), in.dests()).minmax; got != tc.want {
			t.Errorf("kind %v flavour %d: filled block minmax %v, want %v", tc.kind, tc.flavour, got, tc.want)
		}
	}
	in, ds, k := scaleShapedInstance(1)
	keepWith := func(fixed float64) bool {
		fillBlock(&s, in, ds)
		s.blk.fixed[0] = fixed
		if s.blk.minmax {
			t.Fatal("a hand-filled block took the min/max loops before keepBound")
		}
		if _, _, _, err := s.BestResponseBlock(k, nil, BROptions{}, func(sampling.Estimate, sampling.Estimate) bool { return false }); err != nil {
			t.Fatal(err)
		}
		return s.blk.minmax
	}
	if !keepWith(math.Inf(1)) {
		t.Error("keepBound left a clean hand-filled block on the branching loops")
	}
	if keepWith(math.Copysign(0, -1)) {
		t.Error("keepBound took the min/max loops past a −0 Fixed best")
	}
}

// TestKeepBoundMatchesBranchingFold pins keepBound's one-pass min fold to
// the branching fold it stands in for: on scale-shaped blocks seeded with
// NaN, −0 beside +0 (either first), a −0 Fixed best, negative costs, +Inf
// and finite costs above DisconnectedPenalty, the per-destination bests,
// the bound and minmax are those of foldChecked over every row from the
// Fixed start, bit for bit.
func TestKeepBoundMatchesBranchingFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	for trial := 0; trial < 60; trial++ {
		in, ds, _ := scaleShapedInstance(int64(1 + trial%4))
		fillBlock(&s, in, ds)
		b := &s.blk
		C, D := len(b.ids), b.d
		at := func() (int, int) { return rng.Intn(C), rng.Intn(D) }
		for n := rng.Intn(4); n > 0; n-- {
			ci, di := at()
			switch rng.Intn(6) {
			case 0:
				b.row(ci)[di] = math.NaN()
			case 1:
				cj := rng.Intn(C)
				b.row(ci)[di], b.row(cj)[di] = negZero, 0
			case 2:
				b.fixed[di] = negZero
			case 3:
				b.row(ci)[di] = -rng.Float64()
			case 4:
				b.row(ci)[di] = math.Inf(1)
			case 5:
				b.row(ci)[di] = DisconnectedPenalty * (1 + rng.Float64())
			}
		}
		wantBest := slices.Clone(b.fixed)
		wantClean := !slices.ContainsFunc(b.fixed, minUnsafe)
		for ci := 0; ci < C; ci++ {
			if !b.foldChecked(wantBest, b.row(ci)) {
				wantClean = false
			}
		}
		want := ds.EstimateAt(func(di int) float64 { return b.pref[di] * math.Min(wantBest[di], DisconnectedPenalty) })
		got, ok := b.keepBound(&s)
		if !ok || !sameEstimate(got, want) || b.minmax != wantClean {
			t.Fatalf("trial %d: bound %+v ok %v minmax %v, branching fold %+v minmax %v", trial, got, ok, b.minmax, want, wantClean)
		}
		for di, c := range s.best {
			if math.Float64bits(c) != math.Float64bits(wantBest[di]) {
				t.Fatalf("trial %d: best of destination %d is %v, branching fold %v", trial, di, c, wantBest[di])
			}
		}
	}
}

// checkFilter solves in with the pruned solver on scratch s and with the
// reference, and requires the same set and the same value bits.
func checkFilter(t testing.TB, in *Instance, k int, s *Scratch) {
	t.Helper()
	got, gotVal, err := BestResponseScratch(in, k, BROptions{}, s)
	if err != nil {
		t.Fatal(err)
	}
	want, wantVal := refBestResponse(in, k, BROptions{})
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	if !same || math.Float64bits(gotVal) != math.Float64bits(wantVal) {
		t.Fatalf("pruned solver diverged (kind %v agg %v n %d k %d): set %v value %v (%#x), reference %v value %v (%#x)",
			in.Kind, in.Agg, in.n(), k, got, gotVal, math.Float64bits(gotVal), want, wantVal, math.Float64bits(wantVal))
	}
}

// skips is the number of candidates the scratch's solver has skipped.
func (s *Scratch) skips() int { return s.greedySkips + s.swapSkips }

// TestFilterMatchesReference is the differential contract over seeded
// random instances of every algebra, aggregation and cost flavour, solved
// on one reused scratch so stale pruning state from the previous call
// would show.
func TestFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20080914))
	var s Scratch
	instances := 0
	for _, kind := range []CostKind{Additive, Bottleneck} {
		for _, agg := range []AggKind{AggSum, AggWorst} {
			for flavour := 0; flavour < numFlavours; flavour++ {
				pruned := 0
				for trial := 0; trial < 90; trial++ {
					in, k := filterInstance(rng, 3+rng.Intn(38), kind, agg, flavour)
					before := s.skips()
					checkFilter(t, in, k, &s)
					pruned += s.skips() - before
					instances++
				}
				// The penalty is an ordinary bandwidth under Bottleneck.
				regular := flavour <= flavSparse || flavour == flavNegZero || (flavour == flavPenalty && kind == Bottleneck)
				switch {
				case agg == AggSum && regular && pruned == 0:
					t.Errorf("kind %v flavour %d: nothing was pruned on regular sum instances", kind, flavour)
				case (agg == AggWorst || !regular) && pruned != 0:
					t.Errorf("kind %v agg %v flavour %d: %d candidates pruned where the bounds do not hold", kind, agg, flavour, pruned)
				}
			}
		}
	}
	if instances < 2000 {
		t.Fatalf("only %d instances compared", instances)
	}
}

// FuzzBestResponseFilter runs the same differential, and the sampled one
// below, on fuzzer-chosen generator inputs.
func FuzzBestResponseFilter(f *testing.F) {
	for flavour := 0; flavour < numFlavours; flavour++ {
		f.Add(int64(flavour+1), uint8(5+3*flavour), uint8(flavour), flavour%2 == 0, flavour%3 == 0)
	}
	f.Add(int64(99), uint8(40), uint8(flavInteger), true, false)
	f.Fuzz(func(t *testing.T, seed int64, n, flavour uint8, bottleneck, worst bool) {
		kind, agg := Additive, AggSum
		if bottleneck {
			kind = Bottleneck
		}
		if worst {
			agg = AggWorst
		}
		rng := rand.New(rand.NewSource(seed))
		in, k := filterInstance(rng, 3+int(n)%60, kind, agg, int(flavour)%numFlavours)
		var s Scratch
		checkFilter(t, in, k, &s)
		checkSampled(t, in, k, sampleFor(t, rng, in), &s)
	})
}

// scaleShapedInstance builds a sampled instance of the shape the scale
// engine hands the solver (sim.proposeScale): a dense local id space of
// 100 candidates first, 150 further nodes and self last; a demand-weighted
// sample of about 150 destinations, the candidates holding their share; two
// thirds of the
// candidates carrying a directory row of stretched metric distances with a
// few entries clamped to unreachable, the rest creditable as direct links
// only.
func scaleShapedInstance(seed int64) (*Instance, *sampling.DestSample, int) {
	const C, L, D, k = 100, 251, 150, 8
	rng := rand.New(rand.NewSource(seed))
	self := L - 1
	x, y := make([]float64, L), make([]float64, L)
	for a := range x {
		x[a], y[a] = rng.Float64()*100, rng.Float64()*100
	}
	dist := func(a, b int) float64 { return 1 + math.Hypot(x[a]-x[b], y[a]-y[b]) }
	in := &Instance{
		Self:       self,
		Kind:       Additive,
		Direct:     make([]float64, L),
		Resid:      make([][]float64, L),
		Pref:       make([]float64, L),
		Candidates: make([]int, C),
	}
	for b := 0; b < L-1; b++ {
		in.Direct[b] = dist(self, b)
		in.Pref[b] = 1 / (1 + 20*rng.Float64())
	}
	for a := 0; a < C; a++ {
		in.Candidates[a] = a
		row := make([]float64, L)
		inDirectory := rng.Intn(3) > 0
		for b := range row {
			row[b] = math.Inf(1)
			if inDirectory && rng.Intn(30) > 0 {
				row[b] = dist(a, b) * (1.1 + 0.4*rng.Float64())
			}
		}
		row[a], row[self] = 0, math.Inf(1)
		in.Resid[a] = row
	}
	ds, err := sampling.Spec{Strategy: sampling.Demand, M: D}.Draw(rng, self, L, in.Pref, in.Direct)
	if err != nil {
		panic(err)
	}
	return in, ds, k
}

// TestFilterPruningRate keeps the filter switched on: at the engine's
// shape local search must skip at least 80% of the swaps it considers and
// greedy at least half of the candidates it meets after round 0.
func TestFilterPruningRate(t *testing.T) {
	var s Scratch
	for seed := int64(1); seed <= 5; seed++ {
		in, ds, k := scaleShapedInstance(seed)
		if _, _, err := BestResponseSampled(in, k, ds, BROptions{}, &s); err != nil {
			t.Fatal(err)
		}
	}
	swap := float64(s.swapSkips) / float64(s.swapSkips+s.swapEvals)
	greedy := float64(s.greedySkips) / float64(s.greedySkips+s.greedyEvals)
	t.Logf("skipped %.1f%% of %d swaps, %.1f%% of %d greedy candidates after round 0",
		100*swap, s.swapSkips+s.swapEvals, 100*greedy, s.greedySkips+s.greedyEvals)
	if swap < 0.80 {
		t.Errorf("local search skipped only %.1f%% of swap evaluations, want >= 80%%", 100*swap)
	}
	if greedy < 0.50 {
		t.Errorf("greedy skipped only %.1f%% of evaluations after round 0, want >= 50%%", 100*greedy)
	}
}

// TestBestResponseSampledAllocs pins the warm-scratch allocation count of
// the sampled solver at the returned set alone: the cost block and the
// pruning tables live in the Scratch.
func TestBestResponseSampledAllocs(t *testing.T) {
	in, ds, k := scaleShapedInstance(1)
	var s Scratch
	run := func() {
		if _, _, err := BestResponseSampled(in, k, ds, BROptions{}, &s); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 1 {
		t.Errorf("warm-scratch BestResponseSampled allocates %.0f times per call, want <= 1", allocs)
	}
}

// brSink keeps the benchmarked call's result alive.
var brSink []int

// BenchmarkBestResponseSampled is the core layer's benchmark of the
// sampled path at the scale engine's shape, on a warm scratch.
func BenchmarkBestResponseSampled(b *testing.B) {
	in, ds, k := scaleShapedInstance(1)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brSink, _, _ = BestResponseSampled(in, k, ds, BROptions{}, &s)
	}
}
