// Package measure computes the performance metrics the paper reports:
// per-node routing cost (the weighted sum of shortest-path distances,
// Sect. 4.2), aggregate available bandwidth, the Efficiency metric used
// under churn (Sect. 4.4), and summary statistics (mean and 95 %
// confidence intervals).
package measure

import (
	"math"
	"sort"

	"egoist/internal/core"
	"egoist/internal/graph"
)

// NodeCosts returns the routing cost of every alive node over the overlay
// graph g: for the additive algebra the uniform-preference sum of
// shortest-path distances to all other alive nodes (unreachable
// destinations contribute core.DisconnectedPenalty); for the bottleneck
// algebra the sum of widest-path values (unreachable contribute 0, and
// larger is better). Dead nodes get NaN.
func NodeCosts(g *graph.Digraph, kind core.CostKind, active []bool) []float64 {
	return WeightedNodeCosts(g, kind, active, nil)
}

// WeightedNodeCosts is NodeCosts with per-pair routing preferences
// p_ij = pref(i,j); nil pref means uniform weights of 1.
func WeightedNodeCosts(g *graph.Digraph, kind core.CostKind, active []bool, pref func(i, j int) float64) []float64 {
	n := g.N()
	work, _ := members(g, active)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if active != nil && !active[i] {
			out[i] = math.NaN()
			continue
		}
		var vals []float64
		if kind == core.Bottleneck {
			vals, _ = graph.Widest(work, i)
		} else {
			vals, _ = graph.Dijkstra(work, i)
		}
		total := 0.0
		for j := 0; j < n; j++ {
			if j == i || (active != nil && !active[j]) {
				continue
			}
			v := vals[j]
			if kind == core.Bottleneck {
				if math.IsInf(v, 1) {
					v = 0
				}
			} else if math.IsInf(v, 1) {
				v = core.DisconnectedPenalty
			}
			if pref != nil {
				v *= pref(i, j)
			}
			total += v
		}
		out[i] = total
	}
	return out
}

// Efficiency returns the paper's efficiency metric for every alive node:
// ε_i = (1/(n_alive-1)) · Σ_{j≠i} 1/d(i,j), with ε_ij = 0 for disconnected
// pairs. Dead nodes get NaN.
func Efficiency(g *graph.Digraph, active []bool) []float64 {
	n := g.N()
	work, alive := members(g, active)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if active != nil && !active[i] {
			out[i] = math.NaN()
			continue
		}
		if alive <= 1 {
			out[i] = 0
			continue
		}
		dist, _ := graph.Dijkstra(work, i)
		sum := 0.0
		for j := 0; j < n; j++ {
			if j == i || (active != nil && !active[j]) {
				continue
			}
			if d := dist[j]; d > 0 && !math.IsInf(d, 1) {
				sum += 1 / d
			}
		}
		out[i] = sum / float64(alive-1)
	}
	return out
}

// members returns g with every non-member's arcs cleared (g itself when
// active is nil) and the member count.
func members(g *graph.Digraph, active []bool) (*graph.Digraph, int) {
	if active == nil {
		return g, g.N()
	}
	work, alive := g.Clone(), 0
	for v := 0; v < g.N(); v++ {
		if active[v] {
			alive++
		} else {
			work.ClearNode(v)
		}
	}
	return work, alive
}

// Summary is a mean with a 95 % confidence interval, the form in which
// every figure of the paper reports its measurements.
type Summary struct {
	Mean   float64
	CI95   float64 // half-width of the 95% confidence interval
	N      int
	StdDev float64
}

// Summarize computes mean, standard deviation and the normal-approximation
// 95 % confidence half-width of the finite entries of xs (NaNs — dead
// nodes — are skipped).
func Summarize(xs []float64) Summary {
	var vals []float64
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			vals = append(vals, x)
		}
	}
	s := Summary{N: len(vals)}
	if s.N == 0 {
		s.Mean = math.NaN()
		return s
	}
	for _, v := range vals {
		s.Mean += v
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, v := range vals {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// Ratio returns a/b guarding against division by zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// Median returns the median of the finite entries of xs, NaN when empty.
func Median(xs []float64) float64 {
	var vals []float64
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// RewireCounter tracks link changes per epoch for the re-wiring overhead
// experiments (Fig. 3).
type RewireCounter struct {
	perEpoch []int
}

// Record notes that `links` links changed during epoch e (0-based).
func (c *RewireCounter) Record(epoch, links int) {
	for len(c.perEpoch) <= epoch {
		c.perEpoch = append(c.perEpoch, 0)
	}
	c.perEpoch[epoch] += links
}

// PerEpoch returns the per-epoch totals recorded so far.
func (c *RewireCounter) PerEpoch() []int { return c.perEpoch }

// Tail returns the mean re-wirings per epoch over the last frac fraction of
// epochs — the "steady state" rate of Fig. 3 (center/right).
func (c *RewireCounter) Tail(frac float64) float64 {
	if len(c.perEpoch) == 0 {
		return 0
	}
	start := int(float64(len(c.perEpoch)) * (1 - frac))
	if start >= len(c.perEpoch) {
		start = len(c.perEpoch) - 1
	}
	sum := 0
	for _, v := range c.perEpoch[start:] {
		sum += v
	}
	return float64(sum) / float64(len(c.perEpoch)-start)
}

// LinkDiff counts how many links differ between an old and a new neighbor
// set (both sorted): the number of additions, i.e. new links that must be
// established. A full re-wire of k links counts k.
func LinkDiff(old, new []int) int {
	om := make(map[int]bool, len(old))
	for _, v := range old {
		om[v] = true
	}
	added := 0
	for _, v := range new {
		if !om[v] {
			added++
		}
	}
	return added
}
