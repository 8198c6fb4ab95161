package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"egoist/internal/graph"
)

// testRequest builds a request over an n-node overlay with random direct
// costs and a ring announced graph.
func testRequest(rng *rand.Rand, n, k int) *Request {
	g := graph.New(n)
	direct := make([]float64, n)
	for v := 0; v < n; v++ {
		g.AddArc(v, (v+1)%n, 1+rng.Float64()*10)
		if v != 0 {
			direct[v] = 1 + rng.Float64()*10
		}
	}
	return &Request{Self: 0, K: k, Kind: Additive, Direct: direct, Graph: g, Rng: rng}
}

func checkWellFormed(t *testing.T, name string, out []int, req *Request) {
	t.Helper()
	if !sort.IntsAreSorted(out) {
		t.Fatalf("%s: result not sorted: %v", name, out)
	}
	seen := map[int]bool{}
	for _, v := range out {
		if v == req.Self {
			t.Fatalf("%s: self-link in %v", name, out)
		}
		if seen[v] {
			t.Fatalf("%s: duplicate in %v", name, out)
		}
		if req.Active != nil && !req.Active[v] {
			t.Fatalf("%s: dead node %d chosen", name, v)
		}
		seen[v] = true
	}
	if len(out) > req.K {
		t.Fatalf("%s: %d links exceed budget %d", name, len(out), req.K)
	}
}

func TestAllPoliciesWellFormed(t *testing.T) {
	policies := []Policy{KRandom{}, KClosest{}, KRegular{}, BRPolicy{}, BRPolicy{Donated: 2}, FullMesh{}}
	rng := rand.New(rand.NewSource(1))
	for _, p := range policies {
		req := testRequest(rng, 12, 4)
		out, err := p.Select(req)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if p.Name() != "Full mesh" {
			checkWellFormed(t, p.Name(), out, req)
			if len(out) != 4 {
				t.Fatalf("%s: %d links, want 4", p.Name(), len(out))
			}
		} else if len(out) != 11 {
			t.Fatalf("full mesh: %d links, want 11", len(out))
		}
	}
}

func TestKClosestPicksCheapest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	req := testRequest(rng, 10, 3)
	for j := 1; j < 10; j++ {
		req.Direct[j] = float64(j)
	}
	out, err := KClosest{}.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("KClosest = %v, want %v", out, want)
		}
	}
}

func TestKClosestBottleneckPicksFattest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	req := testRequest(rng, 10, 2)
	req.Kind = Bottleneck
	for j := 1; j < 10; j++ {
		req.Direct[j] = float64(j)
	}
	out, err := KClosest{}.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 8 || out[1] != 9 {
		t.Fatalf("KClosest bottleneck = %v, want [8 9]", out)
	}
}

func TestKRandomRequiresRng(t *testing.T) {
	req := &Request{Self: 0, K: 2, Direct: make([]float64, 5)}
	if _, err := (KRandom{}).Select(req); err == nil {
		t.Fatal("KRandom accepted nil Rng")
	}
}

func TestKRandomRespectsActiveMask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	req := testRequest(rng, 10, 5)
	req.Active = make([]bool, 10)
	for _, v := range []int{0, 1, 2, 3} {
		req.Active[v] = true
	}
	out, err := KRandom{}.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 { // only 3 alive candidates
		t.Fatalf("got %v, want 3 alive candidates", out)
	}
	checkWellFormed(t, "k-Random", out, req)
}

func TestKRegularOffsetsPaperFormula(t *testing.T) {
	// n=10, k=2: offsets o_j = 1 + (j-1)*9/3 = {1, 4}.
	rng := rand.New(rand.NewSource(5))
	req := testRequest(rng, 10, 2)
	out, err := KRegular{}.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4}
	if len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("KRegular = %v, want %v", out, want)
	}
}

func TestKRegularOverActiveRing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	req := testRequest(rng, 10, 2)
	req.Active = make([]bool, 10)
	// Alive: 0,2,4,6,8 -> ring positions; self 0 at pos 0; n=5,k=2:
	// offsets 1 + (j-1)*4/3 = {1, 2} -> nodes 2 and 4.
	for v := 0; v < 10; v += 2 {
		req.Active[v] = true
	}
	out, err := KRegular{}.Select(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != 2 || out[1] != 4 {
		t.Fatalf("KRegular active ring = %v, want [2 4]", out)
	}
}

func TestBRPolicyBeatsRandomOnCost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// A richer overlay where choices matter.
	n, k := 20, 3
	g := graph.New(n)
	direct := make([]float64, n)
	for v := 0; v < n; v++ {
		for _, w := range []int{(v + 1) % n, (v + 7) % n} {
			g.AddArc(v, w, 1+rng.Float64()*30)
		}
		if v != 0 {
			direct[v] = 1 + rng.Float64()*30
		}
	}
	req := &Request{Self: 0, K: k, Kind: Additive, Direct: direct, Graph: g, Rng: rng}
	brOut, err := (BRPolicy{}).Select(req)
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{Self: 0, Kind: Additive, Direct: direct, Resid: BuildResidScratch(g, 0, Additive, nil, nil)}
	brCost := inst.Eval(brOut)
	worse := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		rOut, err := (KRandom{}).Select(req)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Eval(rOut) >= brCost {
			worse++
		}
	}
	if worse < trials*3/4 {
		t.Fatalf("BR beat random only %d/%d times", worse, trials)
	}
}

func TestHybridBRDonatedLinksPresent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	req := testRequest(rng, 12, 5)
	out, err := (BRPolicy{Donated: 2}).Select(req)
	if err != nil {
		t.Fatal(err)
	}
	// Donated cycle with offset 1 over full ring: neighbors 1 and 11.
	if !containsInt(out, 1) || !containsInt(out, 11) {
		t.Fatalf("HybridBR output %v missing donated ring links 1,11", out)
	}
	if len(out) != 5 {
		t.Fatalf("HybridBR used %d links, want 5", len(out))
	}
}

func TestHybridBRDonatedExceedsK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	req := testRequest(rng, 12, 2)
	out, err := (BRPolicy{Donated: 2}).Select(req)
	if err != nil {
		t.Fatal(err)
	}
	// All links donated, none left for BR.
	if len(out) != 2 {
		t.Fatalf("got %v, want exactly the 2 donated links", out)
	}
}

func TestBRPolicySampleRestrictsChoices(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	req := testRequest(rng, 15, 3)
	req.Sample = []int{3, 5, 7, 9}
	out, err := (BRPolicy{SampleDests: true}).Select(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if !containsInt(req.Sample, v) {
			t.Fatalf("BR chose %d outside sample %v", v, req.Sample)
		}
	}
}

func TestEnforceCycleConnectsDisconnected(t *testing.T) {
	// Two islands: {0,1} and {2,3}.
	wirings := [][]int{{1}, {0}, {3}, {2}}
	cost := func(i, j int) float64 { return 1 }
	changed := EnforceCycle(wirings, Additive, nil, cost)
	if !changed {
		t.Fatal("EnforceCycle reported no change on disconnected graph")
	}
	g := graph.New(4)
	for i, ws := range wirings {
		for _, j := range ws {
			g.AddArc(i, j, 1)
		}
	}
	if !graph.StronglyConnected(g, nil) {
		t.Fatalf("still disconnected after EnforceCycle: %v", wirings)
	}
}

func TestEnforceCycleNoOpWhenConnected(t *testing.T) {
	wirings := [][]int{{1}, {2}, {0}}
	if EnforceCycle(wirings, Additive, nil, func(i, j int) float64 { return 1 }) {
		t.Fatal("EnforceCycle changed an already-connected overlay")
	}
}

func TestEnforceCycleHonorsActiveMask(t *testing.T) {
	// Node 3 is down; active {0,1,2} disconnected pairs.
	wirings := [][]int{{1}, {0}, {1}, {}}
	active := []bool{true, true, true, false}
	EnforceCycle(wirings, Additive, active, func(i, j int) float64 { return 1 })
	g := graph.New(4)
	for i, ws := range wirings {
		if !active[i] {
			continue
		}
		for _, j := range ws {
			g.AddArc(i, j, 1)
		}
	}
	if !graph.StronglyConnected(g, active) {
		t.Fatalf("active subgraph still disconnected: %v", wirings)
	}
	if len(wirings[3]) != 0 {
		t.Fatal("dead node was rewired")
	}
}

// Property: EnforceCycle always yields a strongly connected alive subgraph
// while respecting each node's degree budget.
func TestEnforceCycleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		k := 1 + rng.Intn(3)
		wirings := make([][]int, n)
		for i := range wirings {
			perm := rng.Perm(n)
			for _, v := range perm {
				if v != i && len(wirings[i]) < k {
					wirings[i] = append(wirings[i], v)
				}
			}
			sort.Ints(wirings[i])
		}
		EnforceCycle(wirings, Additive, nil, func(i, j int) float64 { return rng.Float64() })
		g := graph.New(n)
		for i, ws := range wirings {
			if len(ws) > k {
				return false
			}
			for _, j := range ws {
				g.AddArc(i, j, 1)
			}
		}
		return graph.StronglyConnected(g, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPolicyByName: every name resolves to the policy of that Name, ""
// is plain BR, HybridBR donates two links, and anything else is an error.
func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"BR", "HybridBR", "k-Random", "k-Closest", "k-Regular", "Full mesh"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("%q resolved to %q", name, p.Name())
		}
	}
	if p, err := PolicyByName(""); err != nil || p != (BRPolicy{}) {
		t.Errorf(`"" resolved to %#v, %v; want plain BR`, p, err)
	}
	if p, _ := PolicyByName("HybridBR"); p != (BRPolicy{Donated: 2}) {
		t.Errorf("HybridBR resolved to %#v, want 2 donated links", p)
	}
	for _, name := range []string{"banzai", "br", "k-random", "FullMesh"} {
		if p, err := PolicyByName(name); err == nil {
			t.Errorf("%q resolved to %q", name, p.Name())
		}
	}
}

// TestAdopt is the adoption rule's table: every policy against an empty
// wiring, one that lost a link, a bootstrap stub and a full wiring, each
// with an ε-improving and a non-improving proposal (k = 3, ten others).
func TestAdopt(t *testing.T) {
	const k, others, eps = 3, 10, 0.1
	wirings := []struct {
		name              string
		links, aliveLinks int
		always            bool // re-wires whatever the policy
	}{
		{"empty", 0, 0, true},
		{"lost", 3, 2, true},
		{"stub", 1, 1, true},
		{"full", 3, 3, false},
	}
	proposals := []struct {
		name           string
		curVal, newVal float64
		improves       bool
	}{
		{"improving", 10, 5, true},
		{"non-improving", 10, 9.5, false},
	}
	policies := []struct {
		p    Policy
		full func(improves bool) bool // verdict on a full wiring
	}{
		{BRPolicy{}, func(improves bool) bool { return improves }},
		{BRPolicy{Donated: 2}, func(improves bool) bool { return improves }},
		{KClosest{}, func(bool) bool { return true }},
		{KRandom{}, func(bool) bool { return false }},
		{KRegular{}, func(bool) bool { return false }},
		{FullMesh{}, func(bool) bool { return false }},
	}
	for _, pc := range policies {
		for _, w := range wirings {
			for _, pr := range proposals {
				want := w.always || pc.full(pr.improves)
				got := Adopt(pc.p, Additive, eps, k, others, w.links, w.aliveLinks, pr.curVal, pr.newVal)
				if got != want {
					t.Errorf("%s, %s wiring, %s proposal: Adopt = %v, want %v", pc.p.Name(), w.name, pr.name, got, want)
				}
			}
		}
	}
	// Fewer alive others than k: holding all of them is a full wiring,
	// not a stub.
	if Adopt(KRandom{}, Additive, eps, k, 2, 2, 2, 10, 5) {
		t.Error("k-Random re-wired a wiring that holds every other alive node")
	}
}
