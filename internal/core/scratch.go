package core

import "egoist/internal/graph"

// Scratch holds one worker's reusable buffers for the best-response hot
// path: the residual graph and matrix of BuildResidScratch, the Dijkstra
// state behind it, the solver's dense cost block (block.go) and the
// per-destination arrays of Eval, greedy and local search. A Scratch may be
// reused across any number of calls but serves one goroutine at a time; the
// parallel simulation engine keeps one per worker.
//
// The zero value is ready to use. All functions that take a *Scratch
// accept nil, falling back to per-call allocation.
type Scratch struct {
	sp    graph.SPScratch
	rg    *graph.Digraph // residual-graph clone of BuildResidScratch
	resid [][]float64    // residual matrix of BuildResidScratch

	blk     block     // the current call's dense cost block
	best    []float64 // best facility cost per destination (Eval, greedy, estimates)
	used    []bool    // membership set by node id (greedy, local search)
	candBuf []int     // materialized candidate list
	destBuf []int     // materialized destination list
	slots   []int     // candidate position of each chosen facility

	// Solver pruning state (see br.go): each candidate's last measured
	// greedy total with the objective it was measured against, and
	// localSearch's swap caches.
	lazyTot, lazyBase []float64
	swap              swapState

	// Pruning tallies, read by tests only: candidates priced and skipped by
	// greedy after round 0 and by local search.
	greedyEvals, greedySkips int
	swapEvals, swapSkips     int
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

// BuildResidScratch computes the residual-cost matrix for node self over
// the announced overlay graph g: it removes self's out-links (they are
// what is being re-chosen) and every link of inactive nodes, then runs
// all-pairs shortest (Additive) or widest (Bottleneck) paths. active may
// be nil. The residual graph clone, the matrix and the Dijkstra state all
// live in s and are overwritten by the next call, so the returned matrix
// is only valid until s is used again — callers that retain it must copy.
// A nil s allocates a fresh scratch for the call.
func BuildResidScratch(g *graph.Digraph, self int, kind CostKind, active []bool, s *Scratch) [][]float64 {
	if s == nil {
		s = &Scratch{}
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
