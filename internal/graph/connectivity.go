package graph

// StronglyConnected reports whether every node can reach every other node.
// It uses the standard two-pass reachability check (forward from node 0 and
// forward from node 0 in the transpose graph). Graphs with fewer than two
// nodes are trivially strongly connected. The active mask, if non-nil,
// restricts the check to nodes with active[v]==true (used under churn).
func StronglyConnected(g *Digraph, active []bool) bool {
	n := g.N()
	root := -1
	count := 0
	for v := 0; v < n; v++ {
		if active == nil || active[v] {
			if root == -1 {
				root = v
			}
			count++
		}
	}
	if count <= 1 {
		return true
	}
	if !coversActive(reachableMasked(g, root, active), active, count) {
		return false
	}
	return coversActive(reachableMasked(transpose(g), root, active), active, count)
}

// reachableMasked returns the nodes reachable from src by directed paths
// (src included) that stay inside active, when active is non-nil.
func reachableMasked(g *Digraph, src NodeID, active []bool) []bool {
	seen := make([]bool, g.N())
	stack := []NodeID{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Out(u) {
			if active != nil && !active[a.To] {
				continue
			}
			if !seen[a.To] {
				seen[a.To] = true
				stack = append(stack, a.To)
			}
		}
	}
	return seen
}

func coversActive(seen, active []bool, count int) bool {
	got := 0
	for v, s := range seen {
		if s && (active == nil || active[v]) {
			got++
		}
	}
	return got == count
}

func transpose(g *Digraph) *Digraph {
	t := New(g.N())
	for u := 0; u < g.N(); u++ {
		for _, a := range g.Out(u) {
			t.AddArc(a.To, u, a.W)
		}
	}
	return t
}

// Neighborhood returns F(v): the distinct nodes reachable from v within
// r hops, excluding v itself — the set whose size the topology-biased
// sampling of Sect. 5 ranks candidates by.
func Neighborhood(g *Digraph, v NodeID, r int) []NodeID {
	dist := boundedBFS(g, v, r)
	var out []NodeID
	for u, d := range dist {
		if u != v && d >= 0 {
			out = append(out, u)
		}
	}
	return out
}

// boundedBFS returns the hop distances from src out to r hops; nodes
// further away or unreachable get -1.
func boundedBFS(g *Digraph, src NodeID, r int) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == r {
			continue
		}
		for _, a := range g.Out(u) {
			if dist[a.To] == -1 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}
