package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"egoist/internal/graph"
)

// Request carries everything a neighbor-selection policy may consult when
// (re-)wiring one node: the node's own direct cost measurements, the
// residual matrix of the announced overlay, the set of currently-alive
// nodes, and an optional candidate sample.
//
// Distinct Requests may be served concurrently as long as each has its
// own Rng and Scratch and the shared inputs (Resid, Active, Direct, Pref)
// are not mutated while Select runs.
type Request struct {
	Self   int
	K      int
	Kind   CostKind
	Direct []float64  // measured direct costs Self->j
	Active []bool     // alive mask; nil = all alive
	Pref   []float64  // preference weights; nil = uniform
	Sample []int      // candidate restriction from the sampling layer
	Rng    *rand.Rand // randomness for stochastic policies

	// Resid is the residual matrix of G−Self, the announced overlay
	// without Self's out-links and without inactive nodes: BR policies
	// price on it and the others ignore it. Rewire fills it from the
	// view's shortest-path forest.
	Resid [][]float64
	// Scratch, when non-nil, provides reusable solver buffers (one per
	// concurrent caller).
	Scratch *Scratch
}

// alive reports whether node v participates right now.
func (r *Request) alive(v int) bool { return r.Active == nil || r.Active[v] }

// aliveCandidates returns the nodes Self may wire to, honoring the alive
// mask and the sample restriction.
func (r *Request) aliveCandidates() []int {
	var out []int
	if r.Sample != nil {
		for _, j := range r.Sample {
			if j != r.Self && r.alive(j) {
				out = append(out, j)
			}
		}
		return out
	}
	for j := 0; j < len(r.Direct); j++ {
		if j != r.Self && r.alive(j) {
			out = append(out, j)
		}
	}
	return out
}

// Policy selects a node's overlay neighbors. Implementations are the
// policies of Sect. 3.2 plus HybridBR of Sect. 3.3.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Select returns the new neighbor set for the requesting node, at most
	// req.K nodes, all alive and distinct from Self.
	Select(req *Request) ([]int, error)
}

// PolicyByName returns the policy whose Name is name: "" means BR, and
// HybridBR donates the paper's default k2 = 2 links.
func PolicyByName(name string) (Policy, error) {
	if name == "" {
		return BRPolicy{}, nil
	}
	for _, p := range []Policy{BRPolicy{}, BRPolicy{Donated: 2}, KRandom{}, KClosest{}, KRegular{}, FullMesh{}} {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: unknown policy %q", name)
}

// Adopt is the one re-wiring rule of the simulation engine and the
// daemon: it reports whether a node whose current wiring holds links
// links, aliveLinks of them to alive nodes, adopts the proposal its
// policy p just made, with a degree budget of k and others alive nodes
// besides itself. curVal and newVal are the BR(ε) objectives of the
// current and the proposed wiring under kind; only BR policies read
// them. A node re-wires whenever its wiring is empty (a first join),
// lost a link, or is a stub of fewer than min(k, others) links — the
// single bootstrap link of a re-join (Sect. 3.1), which the node replaces
// with its full policy wiring at its next epoch. Otherwise BR and
// HybridBR adopt only an ε-improvement (Sect. 4.3), k-Closest follows
// its measurements every epoch, and k-Random, k-Regular and the full
// mesh are static (Sect. 3.2).
func Adopt(p Policy, kind CostKind, epsilon float64, k, others, links, aliveLinks int, curVal, newVal float64) bool {
	if links == 0 || aliveLinks < links || aliveLinks < min(k, others) {
		return true
	}
	switch p.(type) {
	case BRPolicy:
		return shouldRewire(kind, curVal, newVal, epsilon)
	case KClosest:
		return true
	default:
		return false
	}
}

// Rewiring is what Rewire decided for one node.
type Rewiring struct {
	Proposal []int // the policy's selection
	Adopted  bool  // Adopt accepted the proposal
	// Wiring is the wiring to install: the proposal when adopted, else
	// the current wiring less its links to inactive nodes (not announced,
	// so dropping them leaves the view as it was). Changed reports that
	// its links differ from those alive links; Added counts its new ones.
	Wiring  []int
	Changed bool
	Added   int
	// Cut reports that the node's out-arcs were removed from the view's
	// forest; the caller ends the removal with CommitOut (the arcs it
	// announces for Wiring) or RestoreOut.
	Cut bool
}

// Rewire is the one re-wiring slot of the full engine and the daemon
// (Sects. 3.1 and 4.3): node req.Self, wired to cur, asks policy p for a
// neighbor set, and Adopt decides with threshold epsilon whether to
// take it. BR policies price both sets on the residual graph G−i: view
// returns the shortest-path forest of the announced view, and Rewire
// cuts req.Self's out-arcs from it and reads the residual matrix into
// req.Resid. Other policies never call view. req carries the node's K,
// Kind, Direct, Active, Pref, Rng and Scratch. On an error the forest
// is restored.
func Rewire(view func() *graph.SPForest, p Policy, epsilon float64, cur []int, req *Request) (Rewiring, error) {
	var f *graph.SPForest
	if _, ok := p.(BRPolicy); ok {
		f = view()
		f.RemoveOut(req.Self)
		req.Resid = f.Dist()
	}
	set, err := p.Select(req)
	if err != nil {
		if f != nil {
			f.RestoreOut()
		}
		return Rewiring{}, err
	}
	var curVal, newVal float64
	if f != nil {
		inst := &Instance{Self: req.Self, Kind: req.Kind, Direct: req.Direct, Resid: req.Resid, Pref: req.Pref}
		curVal, newVal = inst.EvalScratch(cur, req.Scratch), inst.EvalScratch(set, req.Scratch)
	}
	dead := func(v int) bool { return !req.alive(v) }
	alive := cur
	if slices.ContainsFunc(cur, dead) {
		alive = slices.DeleteFunc(slices.Clone(cur), dead)
	}
	others := 0
	for j := range req.Direct {
		if j != req.Self && req.alive(j) {
			others++
		}
	}
	d := Rewiring{Proposal: set, Wiring: alive, Cut: f != nil}
	d.Adopted = Adopt(p, req.Kind, epsilon, req.K, others, len(cur), len(alive), curVal, newVal)
	if d.Adopted {
		for _, v := range set {
			if !slices.Contains(alive, v) {
				d.Added++
			}
		}
		if d.Added > 0 || len(set) != len(alive) {
			d.Wiring, d.Changed = set, true
		}
	}
	return d, nil
}

// KRandom selects k alive neighbors uniformly at random.
type KRandom struct{}

// Name implements Policy.
func (KRandom) Name() string { return "k-Random" }

// Select implements Policy.
func (KRandom) Select(req *Request) ([]int, error) {
	if req.Rng == nil {
		return nil, fmt.Errorf("core: k-Random requires a Rng")
	}
	cands := req.aliveCandidates()
	req.Rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return sortedPrefix(cands, req.K), nil
}

// KClosest selects the k candidates with the best direct cost (minimum
// delay/load, maximum bandwidth).
type KClosest struct{}

// Name implements Policy.
func (KClosest) Name() string { return "k-Closest" }

// Select implements Policy.
func (KClosest) Select(req *Request) ([]int, error) {
	cands := req.aliveCandidates()
	sort.SliceStable(cands, func(a, b int) bool {
		return req.Kind.better(req.Direct[cands[a]], req.Direct[cands[b]])
	})
	return sortedPrefix(cands, req.K), nil
}

// sortedPrefix returns the first k of cands (all of them when fewer),
// ascending, in a fresh slice.
func sortedPrefix(cands []int, k int) []int {
	out := append([]int(nil), cands[:min(k, len(cands))]...)
	sort.Ints(out)
	return out
}

// KRegular wires every node with the same offset vector
// o_j = 1 + (j-1)·(n-1)/(k+1) over the ring of alive node identifiers
// (Sect. 3.2), dividing the ring periphery equally.
type KRegular struct{}

// Name implements Policy.
func (KRegular) Name() string { return "k-Regular" }

// Select implements Policy.
func (KRegular) Select(req *Request) ([]int, error) {
	ring := aliveRing(len(req.Direct), req.Active)
	pos := slices.Index(ring, req.Self)
	if pos < 0 {
		return nil, fmt.Errorf("core: node %d not in alive ring", req.Self)
	}
	n := len(ring)
	if n <= 1 {
		return nil, nil
	}
	k := req.K
	if k > n-1 {
		k = n - 1
	}
	seen := map[int]bool{}
	var out []int
	for j := 1; j <= k; j++ {
		offset := 1 + (j-1)*(n-1)/(k+1)
		target := ring[(pos+offset)%n]
		for seen[target] || target == req.Self {
			offset++
			target = ring[(pos+offset)%n]
		}
		seen[target] = true
		out = append(out, target)
	}
	sort.Ints(out)
	return out, nil
}

// BRPolicy is EGOIST's default: the Best-Response strategy, optionally on a
// candidate sample, with optional HybridBR donated links.
type BRPolicy struct {
	// Opts tunes the solver.
	Opts BROptions
	// Donated is HybridBR's k2: the number of links donated to the
	// connectivity backbone (Sect. 3.3). Zero means plain BR. Donated
	// links form k2/2 bidirectional cycles over the alive ring and the
	// remaining k1 = K - k2 links are chosen by BR given their existence.
	Donated int
	// SampleDests restricts the BR objective to the sampled destinations
	// when a sample is present (the paper's scaled-input formulation).
	SampleDests bool
}

// Name implements Policy.
func (p BRPolicy) Name() string {
	if p.Donated > 0 {
		return "HybridBR"
	}
	return "BR"
}

// Select implements Policy.
func (p BRPolicy) Select(req *Request) ([]int, error) {
	donated := p.donatedLinks(req)
	k1 := req.K - len(donated)
	if k1 < 0 {
		k1 = 0
	}
	inst := &Instance{
		Self:   req.Self,
		Kind:   req.Kind,
		Direct: req.Direct,
		Resid:  req.Resid,
		Pref:   req.Pref,
		Fixed:  donated,
	}
	cands := req.aliveCandidates()
	// Donated links are fixed, not candidates.
	if len(donated) > 0 {
		d := map[int]bool{}
		for _, v := range donated {
			d[v] = true
		}
		var filtered []int
		for _, c := range cands {
			if !d[c] {
				filtered = append(filtered, c)
			}
		}
		cands = filtered
	}
	inst.Candidates = cands
	if req.Sample != nil && p.SampleDests {
		inst.Dests = cands
	}
	chosen, _, err := BestResponseScratch(inst, k1, p.Opts, req.Scratch)
	if err != nil {
		return nil, err
	}
	out := append(chosen, donated...)
	sort.Ints(out)
	return out, nil
}

// donatedLinks computes the HybridBR connectivity-backbone targets for the
// requesting node.
func (p BRPolicy) donatedLinks(req *Request) []int {
	return DonatedTargets(req.Self, len(req.Direct), p.Donated, req.Active)
}

// DonatedTargets returns the HybridBR backbone targets of node self in an
// n-id overlay with the given alive mask: for each of k2/2 bidirectional
// cycles with offset c, links to the ring successor and predecessor at
// offset c over the ring of alive node ids (Sect. 3.3). The backbone is a
// pure function of membership, so every node can re-derive and repair it
// immediately when membership changes — the "aggressive monitoring" of the
// donated links.
func DonatedTargets(self, n, donated int, active []bool) []int {
	if donated <= 0 {
		return nil
	}
	ring := aliveRing(n, active)
	rn := len(ring)
	if rn <= 1 {
		return nil
	}
	pos := slices.Index(ring, self)
	if pos < 0 {
		return nil
	}
	seen := map[int]bool{self: true}
	var out []int
	cycles := donated / 2
	if cycles < 1 {
		cycles = 1
	}
	for c := 1; c <= cycles && len(out) < donated; c++ {
		for _, tgt := range []int{ring[(pos+c)%rn], ring[((pos-c)%rn+rn)%rn]} {
			if !seen[tgt] && len(out) < donated {
				seen[tgt] = true
				out = append(out, tgt)
			}
		}
	}
	return out
}

// FullMesh wires a node to every alive node — the O(n²)-link RON-style
// upper bound of Fig. 1 (top-left).
type FullMesh struct{}

// Name implements Policy.
func (FullMesh) Name() string { return "Full mesh" }

// Select implements Policy.
func (FullMesh) Select(req *Request) ([]int, error) {
	out := req.aliveCandidates()
	sort.Ints(out)
	return out, nil
}

// aliveRing returns the alive ids of an n-id overlay in increasing
// order (active nil = all alive) — the DHT-style identifier ring the
// k-Regular and HybridBR backbones and the cycle fallback are built on.
func aliveRing(n int, active []bool) []int {
	var ring []int
	for v := 0; v < n; v++ {
		if active == nil || active[v] {
			ring = append(ring, v)
		}
	}
	return ring
}

// EnforceCycle implements the connectivity fallback of KRandom and
// KClosest (Sect. 3.2), the only policies that take it: if the directed
// overlay over the alive nodes is not strongly connected, each alive
// node's worst out-link is replaced by a link to its alive ring
// successor, guaranteeing a spanning cycle. wirings is modified in place;
// weights for new links come from cost(i,j). It reports whether a cycle
// was enforced.
func EnforceCycle(wirings [][]int, kind CostKind, active []bool, cost func(i, j int) float64) bool {
	n := len(wirings)
	g := graph.New(n)
	for i, ws := range wirings {
		if active != nil && !active[i] {
			continue
		}
		for _, j := range ws {
			g.AddArc(i, j, 1)
		}
	}
	if graph.StronglyConnected(g, active) {
		return false
	}
	ring := aliveRing(n, active)
	if len(ring) <= 1 {
		return false
	}
	for idx, i := range ring {
		succ := ring[(idx+1)%len(ring)]
		if i == succ || slices.Contains(wirings[i], succ) {
			continue
		}
		if len(wirings[i]) == 0 {
			wirings[i] = []int{succ}
			continue
		}
		// Replace the worst-valued link to keep the degree budget k.
		worst := 0
		for l := 1; l < len(wirings[i]); l++ {
			if kind.better(cost(i, wirings[i][worst]), cost(i, wirings[i][l])) {
				worst = l
			}
		}
		wirings[i][worst] = succ
		sort.Ints(wirings[i])
	}
	return true
}
