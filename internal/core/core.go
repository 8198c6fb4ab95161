// Package core implements the paper's primary contribution: the Selfish
// Neighbor Selection (SNS) game and the Best-Response (BR) wiring machinery
// of EGOIST, together with the empirical neighbor-selection policies it is
// evaluated against (k-Random, k-Closest, k-Regular, HybridBR, full mesh).
//
// In the SNS game (Sect. 2.1) each node v_i picks a wiring s_i of k directed
// links to minimize its cost C_i(S) = Σ_j p_ij · d_S(v_i, v_j) under
// shortest-path routing over the global wiring S. Computing an exact best
// response is NP-hard (an asymmetric k-median); this package provides both
// an exact solver for small instances and the fast greedy + local-search
// approximation EGOIST deploys, for the additive (delay, load) and
// bottleneck-bandwidth cost models.
package core

import (
	"fmt"
	"math"
)

// CostKind selects the path-cost algebra of the overlay metric.
type CostKind int

const (
	// Additive minimizes the sum of edge weights along a path — the
	// algebra of the delay and node-load metrics.
	Additive CostKind = iota
	// Bottleneck maximizes the minimum edge weight along a path — the
	// algebra of the available-bandwidth metric (Sect. 4.1).
	Bottleneck
)

// String names the cost kind.
func (k CostKind) String() string {
	switch k {
	case Additive:
		return "additive"
	case Bottleneck:
		return "bottleneck"
	default:
		return fmt.Sprintf("CostKind(%d)", int(k))
	}
}

// DisconnectedPenalty is the finite cost M·n stand-in for an unreachable
// destination under the additive algebra (the paper's d = M >> n). It must
// dominate any realistic path cost so that reconnecting is always a best
// response.
const DisconnectedPenalty = 1e9

// better reports whether cost a is preferable to b under the algebra.
func (k CostKind) better(a, b float64) bool {
	if k == Bottleneck {
		return a > b
	}
	return a < b
}

// worst is the identity element of the algebra's "best" reduction.
func (k CostKind) worst() float64 {
	if k == Bottleneck {
		return 0
	}
	return math.Inf(1)
}

// combine folds a direct-link cost with a residual-graph cost: addition for
// the additive algebra, min for the bottleneck algebra.
func (k CostKind) combine(direct, resid float64) float64 {
	if k == Bottleneck {
		return math.Min(direct, resid)
	}
	return direct + resid
}

// finalize maps an unreachable marker to the penalty the objective uses.
func (k CostKind) finalize(v float64) float64 {
	if k == Additive && math.IsInf(v, 1) {
		return DisconnectedPenalty
	}
	return v
}

// AggKind selects how per-destination costs combine into the objective.
type AggKind int

const (
	// AggSum is the paper's main objective: the (weighted) sum over all
	// destinations.
	AggSum AggKind = iota
	// AggWorst optimizes the worst destination: for Additive it minimizes
	// the maximum distance (an egocentric k-center); for Bottleneck it
	// maximizes the minimum bottleneck bandwidth — the "alternative
	// formulation" sketched at the end of Sect. 4.1.
	AggWorst
)

// String names the aggregation.
func (a AggKind) String() string {
	switch a {
	case AggSum:
		return "sum"
	case AggWorst:
		return "worst"
	default:
		return fmt.Sprintf("AggKind(%d)", int(a))
	}
}

// accum folds per-destination costs into the aggregate objective.
type accum struct {
	kind  CostKind
	agg   AggKind
	total float64
	init  bool
	sum   float64
	n     int
}

func newAccum(kind CostKind, agg AggKind) accum {
	return accum{kind: kind, agg: agg}
}

func (a *accum) add(pref, v float64) {
	if a.agg == AggSum {
		a.total += pref * v
		return
	}
	// AggWorst: track the worst weighted destination. "Worse" means larger
	// for Additive, smaller for Bottleneck — i.e. the opposite of better.
	w := pref * v
	if !a.init || a.kind.better(a.total, w) {
		a.total = w
		a.init = true
	}
	a.sum += w
	a.n++
}

// value returns the aggregate. For AggWorst a vanishing mean term breaks
// the ties a pure worst-case objective is full of (e.g. every wiring that
// leaves some destination disconnected scores the same penalty, stranding
// greedy and local search on a plateau): among wirings with an equal worst
// case, ones with a better mean win.
func (a *accum) value() float64 {
	if a.agg == AggSum {
		return a.total
	}
	if a.n == 0 {
		return a.total
	}
	// The same sign works for both algebras: a better mean is a lower sum
	// under Additive (minimize) and a higher one under Bottleneck
	// (maximize).
	return a.total + a.sum/float64(a.n)*1e-6
}

// Instance is one node's best-response problem: the data v_i derives from
// the link-state protocol (the residual graph G−i) and from its own
// measurements (the direct link costs d_ij), as described in Sect. 3.1.
//
// An Instance is never mutated by Eval or BestResponse, so distinct
// goroutines may solve the same Instance concurrently — each with its own
// Scratch (or none).
type Instance struct {
	// Self is the deciding node's identifier.
	Self int
	// Kind is the cost algebra.
	Kind CostKind
	// Direct[j] is the measured cost of a potential direct link Self->j.
	// Direct[Self] is ignored.
	Direct []float64
	// Resid[w][j] is the cost from w to j over the residual graph G−Self:
	// all-pairs shortest-path costs for Additive, all-pairs widest-path
	// values for Bottleneck. Resid[w][w] must be 0 (Additive) or +Inf
	// (Bottleneck). Rows of nodes that can never be facilities (outside
	// Candidates, Fixed and any evaluated wiring) may be nil: the solvers
	// read no other row.
	Resid [][]float64
	// Candidates are the nodes Self may link to. Nil means every node
	// except Self. Sampling policies (Sect. 5) restrict this set.
	Candidates []int
	// Dests are the destinations the objective sums over. Nil means every
	// node except Self. When computing BR on a sample, the paper limits
	// the objective to sampled pairs; set Dests accordingly.
	Dests []int
	// Pref[j] is the preference weight p_ij. Nil means uniform.
	Pref []float64
	// Fixed are facilities that are already wired and not subject to
	// choice — HybridBR's donated links (Sect. 3.3).
	Fixed []int
	// Agg selects the objective aggregation; the zero value is the paper's
	// weighted sum.
	Agg AggKind
}

// n returns the node count implied by the instance.
func (in *Instance) n() int { return len(in.Direct) }

// candidates materializes the candidate list.
func (in *Instance) candidates() []int {
	if in.Candidates != nil {
		return in.Candidates
	}
	out := make([]int, 0, in.n()-1)
	for j := 0; j < in.n(); j++ {
		if j != in.Self {
			out = append(out, j)
		}
	}
	return out
}

// dests materializes the destination list.
func (in *Instance) dests() []int {
	if in.Dests != nil {
		return in.Dests
	}
	out := make([]int, 0, in.n()-1)
	for j := 0; j < in.n(); j++ {
		if j != in.Self {
			out = append(out, j)
		}
	}
	return out
}

// candidatesInto is candidates with the materialized list stored in s's
// buffer. The result aliases in.Candidates when that is set.
func (in *Instance) candidatesInto(s *Scratch) []int {
	if in.Candidates != nil {
		return in.Candidates
	}
	if s == nil {
		return in.candidates()
	}
	buf := s.candBuf[:0]
	for j := 0; j < in.n(); j++ {
		if j != in.Self {
			buf = append(buf, j)
		}
	}
	s.candBuf = buf
	return buf
}

// destsInto is dests with the materialized list stored in s's buffer. The
// result aliases in.Dests when that is set.
func (in *Instance) destsInto(s *Scratch) []int {
	if in.Dests != nil {
		return in.Dests
	}
	if s == nil {
		return in.dests()
	}
	buf := s.destBuf[:0]
	for j := 0; j < in.n(); j++ {
		if j != in.Self {
			buf = append(buf, j)
		}
	}
	s.destBuf = buf
	return buf
}

func (in *Instance) pref(j int) float64 {
	if in.Pref == nil {
		return 1
	}
	return in.Pref[j]
}

// Validate checks structural consistency of the instance.
func (in *Instance) Validate() error {
	n := in.n()
	if n < 2 {
		return fmt.Errorf("core: instance has %d nodes, need >= 2", n)
	}
	if in.Self < 0 || in.Self >= n {
		return fmt.Errorf("core: self %d outside [0,%d)", in.Self, n)
	}
	if len(in.Resid) != n {
		return fmt.Errorf("core: Resid has %d rows, want %d", len(in.Resid), n)
	}
	for w, row := range in.Resid {
		if row != nil && len(row) != n {
			return fmt.Errorf("core: Resid row %d has %d cols, want %d", w, len(row), n)
		}
	}
	if in.Pref != nil && len(in.Pref) != n {
		return fmt.Errorf("core: Pref has %d entries, want %d", len(in.Pref), n)
	}
	for _, c := range in.Candidates {
		if c < 0 || c >= n || c == in.Self {
			return fmt.Errorf("core: bad candidate %d", c)
		}
	}
	for _, f := range in.Fixed {
		if f < 0 || f >= n || f == in.Self {
			return fmt.Errorf("core: bad fixed facility %d", f)
		}
	}
	return nil
}

// Eval computes the objective value of wiring the chosen set (plus the
// instance's Fixed facilities): total weighted cost for Additive (lower is
// better) or total weighted bottleneck bandwidth for Bottleneck (higher is
// better). A destination reachable through no facility contributes the
// DisconnectedPenalty (Additive) or zero (Bottleneck).
//
// Eval does not mutate the instance; distinct goroutines may evaluate the
// same Instance concurrently.
func (in *Instance) Eval(chosen []int) float64 {
	return in.EvalScratch(chosen, nil)
}

// EvalScratch is Eval with reusable buffers. A nil scratch falls back to
// per-call allocation.
func (in *Instance) EvalScratch(chosen []int, s *Scratch) float64 {
	best := in.bestPerDest(chosen, s)
	acc := newAccum(in.Kind, in.Agg)
	if in.Dests == nil {
		for j := 0; j < in.n(); j++ {
			if j != in.Self {
				acc.add(in.pref(j), in.Kind.finalize(best[j]))
			}
		}
	} else {
		for _, j := range in.Dests {
			acc.add(in.pref(j), in.Kind.finalize(best[j]))
		}
	}
	return acc.value()
}

// bestPerDest returns, for every node j, the best achievable cost to j
// via any facility in chosen ∪ Fixed (indexed by node id; non-destination
// entries are still filled, harmlessly), in s's buffer when s is non-nil.
func (in *Instance) bestPerDest(chosen []int, s *Scratch) []float64 {
	var best []float64
	if s != nil {
		s.best = floats(s.best, in.n())
		best = s.best
	} else {
		best = make([]float64, in.n())
	}
	for j := range best {
		best[j] = in.Kind.worst()
	}
	in.foldFacilities(best, in.Fixed)
	in.foldFacilities(best, chosen)
	return best
}

func (in *Instance) foldFacilities(best []float64, facilities []int) {
	for _, w := range facilities {
		dw := in.Direct[w]
		row := in.Resid[w]
		for j := range best {
			if c := in.Kind.combine(dw, row[j]); in.Kind.better(c, best[j]) {
				best[j] = c
			}
		}
	}
}
