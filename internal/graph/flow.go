package graph

import "math"

// MaxFlow computes the maximum s-t flow treating edge weights as capacities,
// using the Edmonds–Karp algorithm (BFS augmenting paths). It is used to
// compute the theoretical upper bound on multipath transfer rate when all
// peers allow redirection (Fig. 10 of the paper).
func MaxFlow(g *Digraph, s, t NodeID) float64 {
	if s == t {
		return Inf
	}
	n := g.N()
	// Residual capacities as adjacency matrix: fine for the overlay sizes
	// (n<=~300) this library targets.
	cap := make([][]float64, n)
	for i := range cap {
		cap[i] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			cap[u][a.To] += a.W
		}
	}
	total := 0.0
	parent := make([]NodeID, n)
	for {
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		queue := []NodeID{s}
		for len(queue) > 0 && parent[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if parent[v] == -1 && cap[u][v] > 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[t] == -1 {
			break
		}
		bottleneck := math.Inf(1)
		for v := t; v != s; v = parent[v] {
			bottleneck = math.Min(bottleneck, cap[parent[v]][v])
		}
		for v := t; v != s; v = parent[v] {
			cap[parent[v]][v] -= bottleneck
			cap[v][parent[v]] += bottleneck
		}
		total += bottleneck
	}
	return total
}

// VertexDisjointPaths returns the maximum number of s-t paths that share no
// intermediate vertices (and no edges), computed by node-splitting plus
// unit-capacity max-flow. It is the quantity plotted in Fig. 11. s and t
// themselves may appear in every path. A direct s->t edge counts as one path.
func VertexDisjointPaths(g *Digraph, s, t NodeID) int {
	if s == t {
		return 0
	}
	n := g.N()
	// Split each node v into v_in (v) and v_out (v+n) with capacity-1 arc,
	// except s and t which get infinite internal capacity.
	split := New(2 * n)
	for v := 0; v < n; v++ {
		c := 1.0
		if v == s || v == t {
			c = float64(n) // effectively unbounded
		}
		split.AddArc(v, v+n, c)
	}
	for u := 0; u < n; u++ {
		for _, a := range g.Out(u) {
			split.AddArc(u+n, a.To, 1)
		}
	}
	return int(MaxFlow(split, s, t+n) + 0.5)
}
