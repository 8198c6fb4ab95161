// Package graph provides the directed weighted graph engine underlying the
// EGOIST overlay: shortest-path and widest-path (maximum bottleneck
// bandwidth) routing, r-hop neighborhoods for topology-biased sampling,
// vertex-disjoint path counting and max-flow for the multipath
// applications, and connectivity checks used by the wiring policies.
//
// Every search and every repair over Digraph rows runs one settle loop
// per path algebra: settleMin (additive) for shortest, settleMax
// (bottleneck) for widest, and both for the one repair kernel,
// rowScratch.repair, which SPForest's removals and commits and
// DynamicRows.Apply all run. A repaired row therefore equals a fresh
// search bit for bit by construction. The data plane's packed CSR has one
// settle loop of its own, settleCSR, which DijkstraCSR and PairCSR both
// run and which breaks equal-cost ties canonically.
//
// Node identifiers are dense integers in [0, N). Edges are directed and
// weighted; the interpretation of a weight (delay, load, bandwidth) is up to
// the caller. Infinite distance (unreachable) is reported as math.Inf(1).
package graph

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node in a Digraph. IDs are dense integers in [0, N).
type NodeID = int

// Arc is a directed weighted edge to a destination node.
type Arc struct {
	To NodeID
	W  float64
}

// Digraph is a mutable directed weighted graph with a fixed node set.
// The zero value is an empty graph with no nodes; use New to create one
// with n nodes.
type Digraph struct {
	n   int
	out [][]Arc
}

// New returns a Digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{n: n, out: make([][]Arc, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// NumArcs returns the total number of directed edges.
func (g *Digraph) NumArcs() int {
	total := 0
	for _, arcs := range g.out {
		total += len(arcs)
	}
	return total
}

// AddArc adds a directed edge u->v with weight w, replacing any existing
// u->v edge.
func (g *Digraph) AddArc(u, v NodeID, w float64) {
	g.checkNode(u)
	g.checkNode(v)
	for i := range g.out[u] {
		if g.out[u][i].To == v {
			g.out[u][i].W = w
			return
		}
	}
	g.out[u] = append(g.out[u], Arc{To: v, W: w})
}

// RemoveArc deletes the edge u->v if present, reporting whether it existed.
func (g *Digraph) RemoveArc(u, v NodeID) bool {
	g.checkNode(u)
	g.checkNode(v)
	arcs := g.out[u]
	for i := range arcs {
		if arcs[i].To == v {
			arcs[i] = arcs[len(arcs)-1]
			g.out[u] = arcs[:len(arcs)-1]
			return true
		}
	}
	return false
}

// HasArc reports whether the edge u->v exists.
func (g *Digraph) HasArc(u, v NodeID) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// Weight returns the weight of edge u->v and whether it exists.
func (g *Digraph) Weight(u, v NodeID) (float64, bool) {
	g.checkNode(u)
	g.checkNode(v)
	for _, a := range g.out[u] {
		if a.To == v {
			return a.W, true
		}
	}
	return 0, false
}

// Out returns the out-arcs of u. The returned slice must not be modified.
func (g *Digraph) Out(u NodeID) []Arc {
	g.checkNode(u)
	return g.out[u]
}

// OutDegree returns the number of out-arcs of u.
func (g *Digraph) OutDegree(u NodeID) int {
	g.checkNode(u)
	return len(g.out[u])
}

// Neighbors returns the sorted list of destinations of u's out-arcs.
func (g *Digraph) Neighbors(u NodeID) []NodeID {
	g.checkNode(u)
	ns := make([]NodeID, 0, len(g.out[u]))
	for _, a := range g.out[u] {
		ns = append(ns, a.To)
	}
	sort.Ints(ns)
	return ns
}

// ClearNode removes all out-arcs of u and all in-arcs pointing to u.
// It is used when a node churns off or re-wires its entire neighbor set.
func (g *Digraph) ClearNode(u NodeID) {
	g.checkNode(u)
	g.out[u] = g.out[u][:0]
	for v := range g.out {
		if v == u {
			continue
		}
		arcs := g.out[v]
		for i := 0; i < len(arcs); {
			if arcs[i].To == u {
				arcs[i] = arcs[len(arcs)-1]
				arcs = arcs[:len(arcs)-1]
			} else {
				i++
			}
		}
		g.out[v] = arcs
	}
}

// ClearOut removes all out-arcs of u, keeping in-arcs intact.
func (g *Digraph) ClearOut(u NodeID) {
	g.checkNode(u)
	g.out[u] = g.out[u][:0]
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := New(g.n)
	for u := range g.out {
		c.out[u] = append([]Arc(nil), g.out[u]...)
	}
	return c
}

// CopyFrom overwrites g with a deep copy of src, reusing g's arc storage
// where possible. It is Clone for callers that keep a scratch graph alive
// across many residual-graph constructions.
func (g *Digraph) CopyFrom(src *Digraph) {
	if cap(g.out) < src.n {
		g.out = make([][]Arc, src.n)
	}
	g.out = g.out[:src.n]
	g.n = src.n
	for u := range src.out {
		g.out[u] = append(g.out[u][:0], src.out[u]...)
	}
}

// WithoutNode returns a copy of the graph with all arcs incident to u
// removed (the residual graph G−u of the SNS formulation). The node itself
// remains, isolated, so IDs are stable.
func (g *Digraph) WithoutNode(u NodeID) *Digraph {
	c := g.Clone()
	c.ClearNode(u)
	return c
}

func (g *Digraph) checkNode(u NodeID) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// Inf is the distance reported between disconnected node pairs.
var Inf = math.Inf(1)
