package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"egoist/internal/graph"
)

// localSearchBound is the factor by which greedy + single-swap local
// search may trail the enumerated optimum on the property-test instances.
// The Arya et al. k-median guarantee the paper cites is 5 for metric
// instances; the random instances below stay far inside it (the suite
// also records the observed worst case, which is ~1.0x).
const localSearchBound = 5.0

// randomInstance builds a small random best-response instance. Roughly a
// third get a candidate restriction, a fixed (donated) facility, or
// non-uniform preferences, matching the shapes the simulator produces.
func propInstance(rng *rand.Rand, kind CostKind) *Instance {
	n := 4 + rng.Intn(5) // 4..8 — small enough for exact enumeration
	g := graph.New(n)
	for u := 0; u < n; u++ {
		deg := 1 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			if v := rng.Intn(n); v != u {
				g.AddArc(u, v, 1+rng.Float64()*30)
			}
		}
	}
	self := rng.Intn(n)
	direct := make([]float64, n)
	for j := range direct {
		if j != self {
			direct[j] = 1 + rng.Float64()*30
		}
	}
	in := &Instance{
		Self:   self,
		Kind:   kind,
		Direct: direct,
		Resid:  BuildResidScratch(g, self, kind, nil, nil),
	}
	others := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != self {
			others = append(others, j)
		}
	}
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
		cands := append([]int(nil), others[:2+rng.Intn(len(others)-1)]...)
		sort.Ints(cands)
		in.Candidates = cands
	}
	if rng.Intn(3) == 0 {
		in.Fixed = []int{others[rng.Intn(len(others))]}
	}
	if rng.Intn(3) == 0 {
		pref := make([]float64, n)
		for j := range pref {
			pref[j] = 0.5 + rng.Float64()*2
		}
		in.Pref = pref
	}
	return in
}

// checkWellFormed asserts the structural invariants every BestResponse
// result must satisfy: sorted, duplicate-free, size min(k, |candidates|),
// drawn from the candidate set, and never Self or a Fixed facility.
func checkSolution(t *testing.T, in *Instance, chosen []int, k int) {
	t.Helper()
	if !sort.IntsAreSorted(chosen) {
		t.Fatalf("chosen %v not sorted", chosen)
	}
	cands := in.candidates()
	want := k
	if want > len(cands) {
		want = len(cands)
	}
	if len(chosen) != want {
		t.Fatalf("chosen %v has %d facilities, want %d", chosen, len(chosen), want)
	}
	inCands := map[int]bool{}
	for _, c := range cands {
		inCands[c] = true
	}
	fixed := map[int]bool{}
	for _, f := range in.Fixed {
		fixed[f] = true
	}
	seen := map[int]bool{}
	for _, w := range chosen {
		if w == in.Self {
			t.Fatalf("chosen %v contains self %d", chosen, in.Self)
		}
		if !inCands[w] {
			t.Fatalf("chosen %v contains non-candidate %d (candidates %v)", chosen, w, cands)
		}
		if seen[w] {
			t.Fatalf("chosen %v contains %d twice", chosen, w)
		}
		seen[w] = true
	}
	for _, w := range chosen {
		if fixed[w] && in.Candidates == nil {
			// Fixed facilities are legal candidates in the default set, but
			// choosing one wastes budget; flag it as a solver bug.
			t.Logf("note: chosen %v re-buys fixed facility %d", chosen, w)
		}
	}
}

// TestBestResponsePropertiesAgainstExact is the table-driven property
// suite: on random small instances the heuristic's wiring is well-formed,
// its reported value matches re-evaluation, and its objective is within
// the local-search approximation bound of the enumerated optimum.
func TestBestResponsePropertiesAgainstExact(t *testing.T) {
	worst := 1.0
	for _, kind := range []CostKind{Additive, Bottleneck} {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := propInstance(rng, kind)
			k := 1 + rng.Intn(3)

			chosen, val, err := BestResponse(in, k, BROptions{})
			if err != nil {
				t.Fatalf("kind %v seed %d: %v", kind, seed, err)
			}
			checkSolution(t, in, chosen, k)
			if reval := in.Eval(chosen); reval != val {
				t.Fatalf("kind %v seed %d: reported %v, re-evaluated %v", kind, seed, val, reval)
			}

			exact, exactVal, err := BestResponse(in, k, BROptions{Exact: true})
			if err != nil {
				t.Fatalf("kind %v seed %d: exact: %v", kind, seed, err)
			}
			checkSolution(t, in, exact, k)
			if kind.better(val, exactVal) {
				t.Fatalf("kind %v seed %d: heuristic %v beats enumerated optimum %v", kind, seed, val, exactVal)
			}
			ratio := 1.0
			if kind == Additive && exactVal > 0 {
				ratio = val / exactVal
			} else if kind == Bottleneck && val > 0 {
				ratio = exactVal / val
			}
			if ratio > localSearchBound {
				t.Fatalf("kind %v seed %d: heuristic %v vs optimum %v exceeds %.1fx bound",
					kind, seed, val, exactVal, localSearchBound)
			}
			if ratio > worst {
				worst = ratio
			}
		}
	}
	t.Logf("worst heuristic/optimum ratio observed: %.4f", worst)
}

// TestExactBROptimalOverRandomSubsets cross-checks the enumerator itself:
// no random k-subset may beat the value it reports.
func TestExactBROptimalOverRandomSubsets(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := propInstance(rng, Additive)
		k := 1 + rng.Intn(2)
		_, exactVal, err := BestResponse(in, k, BROptions{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		cands := in.candidates()
		for trial := 0; trial < 50; trial++ {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			kk := k
			if kk > len(cands) {
				kk = len(cands)
			}
			subset := append([]int(nil), cands[:kk]...)
			if v := in.Eval(subset); in.Kind.better(v, exactVal) {
				t.Fatalf("seed %d: subset %v value %v beats exact %v", seed, subset, v, exactVal)
			}
		}
	}
}

// TestScratchReuseMatchesFreshAllocation pins the allocation-free path: a
// single Scratch reused across the whole instance table must produce
// byte-identical wirings and values to scratch-free calls.
func TestScratchReuseMatchesFreshAllocation(t *testing.T) {
	var s Scratch
	for _, kind := range []CostKind{Additive, Bottleneck} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := propInstance(rng, kind)
			k := 1 + rng.Intn(3)
			want, wantVal, err := BestResponse(in, k, BROptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, gotVal, err := BestResponseScratch(in, k, BROptions{}, &s)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIntSlices(want, got) || wantVal != gotVal {
				t.Fatalf("kind %v seed %d: scratch (%v, %v) != fresh (%v, %v)",
					kind, seed, got, gotVal, want, wantVal)
			}
			if ev := in.EvalScratch(got, &s); ev != in.Eval(got) {
				t.Fatalf("kind %v seed %d: EvalScratch %v != Eval %v", kind, seed, ev, in.Eval(got))
			}
		}
	}
}

// TestConcurrentBestResponseOnSharedInstance drives many goroutines over
// one shared Instance, each with its own scratch — the exact sharing shape
// of the simulator's proposal phase. Run with -race this pins the
// documented read-only contract.
func TestConcurrentBestResponseOnSharedInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := propInstance(rng, Additive)
	want, wantVal, err := BestResponse(in, 2, BROptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s Scratch
			for it := 0; it < 50; it++ {
				got, gotVal, err := BestResponseScratch(in, 2, BROptions{}, &s)
				if err != nil {
					errs[g] = err.Error()
					return
				}
				if !equalIntSlices(want, got) || gotVal != wantVal {
					errs[g] = "concurrent result diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}

// TestBuildResidScratchMatchesBuildResid pins the scratch-backed residual
// construction (including alive-mask handling), reused across graphs of
// different sizes, to a from-scratch all-pairs run over a fresh clone of
// the residual graph.
func TestBuildResidScratchMatchesBuildResid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Scratch
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(8)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for d := 0; d < 2; d++ {
				if v := rng.Intn(n); v != u {
					g.AddArc(u, v, 1+rng.Float64()*10)
				}
			}
		}
		var active []bool
		if rng.Intn(2) == 0 {
			active = make([]bool, n)
			for i := range active {
				active[i] = rng.Intn(4) > 0
			}
		}
		self := rng.Intn(n)
		kind := Additive
		if trial%2 == 1 {
			kind = Bottleneck
		}
		r := g.Clone()
		r.ClearOut(self)
		for v := range active {
			if !active[v] {
				r.ClearNode(v)
			}
		}
		var want [][]float64
		if kind == Bottleneck {
			want = graph.APWidest(r)
		} else {
			want = graph.APSP(r)
		}
		got := BuildResidScratch(g, self, kind, active, &s)
		for u := range want {
			for v := range want[u] {
				if want[u][v] != got[u][v] {
					t.Fatalf("trial %d: resid[%d][%d] = %v, want %v", trial, u, v, got[u][v], want[u][v])
				}
			}
		}
	}
}

func equalIntSlices(a, b []int) bool {
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
