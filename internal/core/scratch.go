package core

import (
	"math"

	"egoist/internal/graph"
)

// Scratch holds one worker's reusable buffers for the best-response hot
// path: the residual graph and matrix of BuildResidScratch, the Dijkstra
// state behind it, and the per-destination arrays of Eval, greedy and local
// search. A Scratch may be reused across any number of calls but serves one
// goroutine at a time; the parallel simulation engine keeps one per worker.
//
// The zero value is ready to use. All methods that take a *Scratch accept
// nil, falling back to per-call allocation.
type Scratch struct {
	sp    graph.SPScratch
	rg    *graph.Digraph // residual-graph clone of BuildResidScratch
	resid [][]float64    // residual matrix of BuildResidScratch

	best    []float64 // per-node best-facility cost (Eval, greedy)
	used    []bool    // membership set (greedy, local search)
	candBuf []int     // materialized candidate list
	destBuf []int     // materialized destination list
	prefW   []float64 // weighted preference vector (BestResponseSampled)

	// Solver pruning state (see br.go): the positional destination
	// weights, each candidate's last measured greedy total with the
	// objective it was measured against, and localSearch's swap caches.
	w                 []float64
	lazyTot, lazyBase []float64
	swap              swapState

	// Pruning tallies, read by tests only: candidates priced and skipped by
	// greedy after round 0 and by local search.
	greedyEvals, greedySkips int
	swapEvals, swapSkips     int
}

// loadWeights fills s.w with the destinations' preference weights,
// indexed positionally like dests, and reports whether the instance's
// weights and Fixed facilities are regular in the sense the solver's
// pruning needs: no weight negative or NaN, no irregular Fixed cost.
func (s *Scratch) loadWeights(in *Instance, dests []int) bool {
	s.w = floats(s.w, len(dests))
	ok := true
	for di, j := range dests {
		p := in.pref(j)
		s.w[di] = p
		if p < 0 || math.IsNaN(p) {
			ok = false
		}
	}
	for _, f := range in.Fixed {
		df, row := in.Direct[f], in.Resid[f]
		for _, j := range dests {
			if !in.Kind.regular(in.Kind.combine(df, row[j])) {
				ok = false
			}
		}
	}
	return ok
}

// floats returns buf resized to n, reusing its storage when possible.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// bools returns buf resized to n with every entry false.
func bools(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// ints returns buf resized to n, reusing its storage when possible.
func ints(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// BuildResidScratch is BuildResid with reusable storage: the residual graph
// clone, the all-pairs matrix and the Dijkstra state all live in s and are
// overwritten by the next call. The returned matrix is therefore only valid
// until s is used again — callers that retain it must copy. With a nil
// scratch it behaves exactly like BuildResid.
func BuildResidScratch(g *graph.Digraph, self int, kind CostKind, active []bool, s *Scratch) [][]float64 {
	if s == nil {
		return BuildResid(g, self, kind, active)
	}
	if s.rg == nil {
		s.rg = graph.New(g.N())
	}
	s.rg.CopyFrom(g)
	s.rg.ClearOut(self)
	if active != nil {
		for v := 0; v < s.rg.N(); v++ {
			if !active[v] {
				s.rg.ClearNode(v)
			}
		}
	}
	if kind == Bottleneck {
		s.resid = graph.APWidestInto(s.rg, s.resid, &s.sp)
	} else {
		s.resid = graph.APSPInto(s.rg, s.resid, &s.sp)
	}
	return s.resid
}
