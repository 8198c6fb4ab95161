package core

import (
	"fmt"
	"math"
	"sort"
)

// Exact pruning of the heuristic solver.
//
// Greedy and local search spend their time pricing candidates that lose.
// For the sum objective two bounds let them skip most of those without
// changing one output bit: every value that is compared for acceptance,
// stored or returned still comes from the evaluators below (greedy's inner
// loop, swapValue) in their fixed summation order, candidates are still
// scanned in the same order with the same first-strictly-better tie-break,
// and a skipped candidate is one the evaluator provably would have rejected.
//
//  1. Fast swap (Whitaker; Resende & Werneck). With b1, b2 the best and
//     second-best value per destination under the current set and cv the
//     candidate's, the objective after swapping slot out for candidate c is
//     A(c) + Σ_{d served by out} w_d·[fin(better(b2,cv)) − fin(better(b1,cv))],
//     where A(c) = Σ_d w_d·fin(better(b1,cv)) prices adding c and removing
//     nothing. An identity — destinations out does not serve keep their
//     term. A(c) and the served lists are rebuilt with the caches, so an
//     estimate costs O(|dests|/k).
//  2. Lazy greedy. The objective is a weighted sum of per-destination bests
//     and finalize is monotone, so a candidate's marginal gain only shrinks
//     as the set grows: base + (total − base') bounds what w can reach now,
//     given the total it reached when the set's objective was base'.
//
// Both hold in real arithmetic; the bound and the evaluator round
// differently. With non-negative terms each computed sum is within a
// relative D·2⁻⁵³ of the real one, so a candidate is skipped only when its
// bound misses the incumbent by more than pruneSlack times the magnitudes
// involved — three orders above that gap for D ≤ 10³ destinations. For a
// swap those are the estimate and the incumbent; for greedy, the three
// totals the bound is built from, since one measured while destinations
// were still unreachable is penalty-laden and dwarfs the bound itself.
// Anything closer, and any NaN or infinity (which fail every comparison in
// misses), goes to the evaluator.
//
// The argument needs non-negative weights and costs and a monotone
// finalize; a finite cost at or above DisconnectedPenalty (the overlay
// node's stand-in for an unmeasured direct link) ranks above +Inf once
// finalized and breaks the latter. greedyBR checks the weights and the
// Fixed rows up front and every candidate's costs in round 0, which visits
// them all anyway; one irregular value and the whole call runs unpruned.
// AggWorst is never pruned.

// pruneSlack is the relative margin by which a bound must miss the
// incumbent before its candidate is skipped.
const pruneSlack = 1e-9

// misses reports whether bound — the best value a candidate can reach — is
// worse than the incumbent by more than slack.
func (k CostKind) misses(bound, incumbent, slack float64) bool {
	if k == Bottleneck {
		return incumbent-bound > slack
	}
	return bound-incumbent > slack
}

// regular reports whether the combined cost c is one the pruning bounds
// hold for: not NaN, not negative and, under Additive, not a finite value
// finalize would rank above the unreachable marker.
func (k CostKind) regular(c float64) bool {
	if k == Additive && c >= DisconnectedPenalty {
		return math.IsInf(c, 1)
	}
	return c >= 0
}

// BROptions tunes the best-response solvers.
type BROptions struct {
	// MaxPasses bounds local-search improvement passes; 0 means a sensible
	// default (enough for convergence at overlay scales).
	MaxPasses int
	// Exact forces exhaustive enumeration. Enumeration refuses instances
	// with more than MaxCombinations subsets.
	Exact bool
	// MaxCombinations caps exact enumeration work; 0 means 5e6.
	MaxCombinations int64
}

func (o BROptions) maxPasses() int {
	if o.MaxPasses <= 0 {
		return 16
	}
	return o.MaxPasses
}

func (o BROptions) maxCombinations() int64 {
	if o.MaxCombinations <= 0 {
		return 5_000_000
	}
	return o.MaxCombinations
}

// BestResponse computes a wiring of k facilities for the instance: the
// exact optimum when opts.Exact is set (small instances only), otherwise
// the greedy + single-swap local search EGOIST deploys (Sect. 3.2), which
// matches the Arya et al. k-median local search the paper cites. It returns
// the chosen set (sorted) and its objective value.
//
// BestResponse reads but never writes the instance; concurrent calls on
// the same or distinct instances are safe.
func BestResponse(in *Instance, k int, opts BROptions) ([]int, float64, error) {
	return BestResponseScratch(in, k, opts, nil)
}

// BestResponseScratch is BestResponse with an explicit scratch: all solver
// working memory (per-destination arrays, membership sets, swap caches)
// lives in s and is reused by the next call, keeping the per-epoch hot path
// of the parallel simulation engine allocation-free. The returned set is
// freshly allocated and remains valid after s is reused. A nil s allocates
// a scratch for the call.
func BestResponseScratch(in *Instance, k int, opts BROptions, s *Scratch) ([]int, float64, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	if s == nil {
		s = &Scratch{}
	}
	cands := in.candidatesInto(s)
	if k < 0 {
		return nil, 0, fmt.Errorf("core: negative k %d", k)
	}
	if k > len(cands) {
		k = len(cands)
	}
	if k == 0 {
		return nil, in.EvalScratch(nil, s), nil
	}
	if opts.Exact {
		return exactBR(in, k, cands, opts, s)
	}
	dests := in.destsInto(s)
	chosen, prune := greedyBR(in, k, cands, dests, s)
	chosen, val := localSearch(in, chosen, cands, dests, opts.maxPasses(), prune, s)
	sort.Ints(chosen)
	return chosen, val, nil
}

// greedyBR builds a k-set by repeatedly adding the facility with the best
// marginal improvement — the standard k-median greedy warm start. It also
// reports whether the instance admits the exact pruning described atop
// this file, which round 0 settles on its way through every candidate ×
// destination.
func greedyBR(in *Instance, k int, cands, dests []int, s *Scratch) (chosen []int, prune bool) {
	s.best = floats(s.best, in.n())
	best := s.best
	in.bestPerDestInto(nil, best)
	s.used = bools(s.used, in.n())
	used := s.used
	prune = in.Agg == AggSum && s.loadWeights(in, dests)
	// base is the objective of the set chosen so far, in the evaluator's
	// own summation order: Fixed alone before round 0, the previous round's
	// winning total after.
	var base float64
	if prune {
		s.lazyTot = floats(s.lazyTot, len(cands))
		s.lazyBase = floats(s.lazyBase, len(cands))
		for di, j := range dests {
			base += s.w[di] * in.Kind.finalize(best[j])
		}
	}
	chosen = make([]int, 0, k)
	for len(chosen) < k {
		bestCand := -1
		bestTotal := math.NaN()
		for ci, w := range cands {
			if used[w] {
				continue
			}
			if prune && len(chosen) > 0 {
				// Lazy evaluation: the gain w showed when last measured
				// bounds the gain it can show now.
				tot, was := s.lazyTot[ci], s.lazyBase[ci]
				slack := pruneSlack * (math.Abs(base) + math.Abs(tot) + math.Abs(was))
				if bestCand != -1 && in.Kind.misses(base+(tot-was), bestTotal, slack) {
					s.greedySkips++
					continue
				}
				s.greedyEvals++
			}
			acc := newAccum(in.Kind, in.Agg)
			dw := in.Direct[w]
			row := in.Resid[w]
			for _, j := range dests {
				c := best[j]
				alt := in.Kind.combine(dw, row[j])
				if !in.Kind.regular(alt) {
					prune = false
				}
				if in.Kind.better(alt, c) {
					c = alt
				}
				acc.add(in.pref(j), in.Kind.finalize(c))
			}
			total := acc.value()
			if prune {
				s.lazyTot[ci], s.lazyBase[ci] = total, base
			}
			if bestCand == -1 || in.Kind.better(total, bestTotal) {
				bestCand, bestTotal = w, total
			}
		}
		if bestCand == -1 {
			break
		}
		chosen = append(chosen, bestCand)
		used[bestCand] = true
		in.foldFacilities(best, chosen[len(chosen)-1:])
		base = bestTotal
	}
	return chosen, prune
}

// localSearch improves a wiring with single swaps (drop one chosen
// facility, add one unchosen candidate) until no swap improves the
// objective or maxPasses passes elapse. It returns the improved set and
// its value. chosen must be caller-owned; it is modified in place.
//
// Swap evaluation is incremental: per destination the best and second-best
// facility values are cached, so swapValue prices one swap in O(|dests|)
// instead of O(k·|dests|). With prune set, a swap reaches swapValue only
// when its O(|dests|/k) swapEstimate could still beat the incumbent, which
// takes a pass that improves nothing from k·|cands|·|dests| element visits
// to about 2·|cands|·|dests|: one to index the caches, one spread over the
// estimates.
func localSearch(in *Instance, chosen, cands []int, dests []int, maxPasses int, prune bool, s *Scratch) ([]int, float64) {
	cur := chosen
	s.used = bools(s.used, in.n())
	inSet := s.used
	for _, w := range cur {
		inSet[w] = true
	}
	st := newSwapState(in, cands, dests, inSet, prune, s)
	st.rebuild(cur)
	curVal := st.total()

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for slot, old := range cur {
			bestC := -1
			bestVal := curVal
			for ci, c := range cands {
				if inSet[c] {
					continue
				}
				if prune {
					est := st.swapEstimate(slot, ci)
					if in.Kind.misses(est, bestVal, pruneSlack*(math.Abs(est)+math.Abs(bestVal))) {
						s.swapSkips++
						continue
					}
					s.swapEvals++
				}
				if v := st.swapValue(slot, c); in.Kind.better(v, bestVal) {
					bestVal, bestC = v, c
				}
			}
			if bestC >= 0 {
				cur[slot] = bestC
				inSet[old] = false
				inSet[bestC] = true
				curVal = bestVal
				st.rebuild(cur)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	// The state outlives the call inside the Scratch: drop what it borrowed
	// so it does not pin the caller's instance.
	st.in, st.cands, st.dests, st.inSet = nil, nil, nil, nil
	return cur, curVal
}

// swapState caches, for every destination, the best and second-best
// facility of the current set, enabling O(|dests|) single-swap evaluation,
// and — when pruning — the tables behind swapEstimate. It lives in the
// Scratch, its slices reused from call to call.
type swapState struct {
	in    *Instance
	cands []int
	dests []int
	inSet []bool // membership of the current set, by node
	prune bool
	// Per destination (indexed positionally like dests): the best value,
	// the slot of the current set that provides it (-1 for a Fixed
	// facility, which is never swapped out, and for none at all), and the
	// second-best value.
	best1Slot        []int
	best1Val, best2V []float64
	// Pruning tables, valid until the next rebuild. w are the positional
	// destination weights; addVal[ci] is the objective of the current set
	// plus cands[ci], for every candidate outside it;
	// served[off[s]:off[s+1]] are the destination positions slot s serves.
	w      []float64
	addVal []float64
	served []int
	off    []int
}

func newSwapState(in *Instance, cands, dests []int, inSet []bool, prune bool, s *Scratch) *swapState {
	st := &s.swap
	st.in, st.cands, st.dests, st.inSet, st.prune, st.w = in, cands, dests, inSet, prune, s.w
	st.best1Slot = ints(st.best1Slot, len(dests))
	st.best1Val = floats(st.best1Val, len(dests))
	st.best2V = floats(st.best2V, len(dests))
	if prune {
		st.addVal = floats(st.addVal, len(cands))
		st.served = ints(st.served, len(dests))
	}
	return st
}

// rebuild recomputes the caches for the facility set cur ∪ Fixed.
func (st *swapState) rebuild(cur []int) {
	in := st.in
	for di := range st.dests {
		st.best1Slot[di] = -1
		st.best1Val[di] = in.Kind.worst()
		st.best2V[di] = in.Kind.worst()
	}
	fold := func(w, slot int) {
		dw := in.Direct[w]
		row := in.Resid[w]
		for di, j := range st.dests {
			c := in.Kind.combine(dw, row[j])
			if in.Kind.better(c, st.best1Val[di]) {
				st.best2V[di] = st.best1Val[di]
				st.best1Val[di] = c
				st.best1Slot[di] = slot
			} else if in.Kind.better(c, st.best2V[di]) {
				st.best2V[di] = c
			}
		}
	}
	for _, w := range in.Fixed {
		fold(w, -1)
	}
	for slot, w := range cur {
		fold(w, slot)
	}
	if st.prune {
		st.index(len(cur))
	}
}

// index builds the pruning tables from the caches rebuild just filled:
// addVal by pricing every outside candidate as a swap that removes nothing,
// served by a counting sort of the destination positions on their serving
// slot.
func (st *swapState) index(k int) {
	for ci, c := range st.cands {
		if !st.inSet[c] {
			st.addVal[ci] = st.swapValue(noSlot, c)
		}
	}
	off := ints(st.off, k+1)
	st.off = off
	for i := range off {
		off[i] = 0
	}
	for _, slot := range st.best1Slot {
		if slot >= 0 {
			off[slot+1]++
		}
	}
	for i := 0; i < k; i++ {
		off[i+1] += off[i]
	}
	// Placing advances off[slot] from the slot's start to its end, which
	// is the next slot's start: shifting up by one restores the offsets.
	for di, slot := range st.best1Slot {
		if slot >= 0 {
			st.served[off[slot]] = di
			off[slot]++
		}
	}
	copy(off[1:], off[:k])
	off[0] = 0
}

// total returns the objective of the current set.
func (st *swapState) total() float64 {
	in := st.in
	acc := newAccum(in.Kind, in.Agg)
	for di, j := range st.dests {
		acc.add(in.pref(j), in.Kind.finalize(st.best1Val[di]))
	}
	return acc.value()
}

// noSlot is the slot argument that makes swapValue remove nothing.
const noSlot = -2

// swapValue returns the objective after replacing the facility in slot out
// by facility c, without mutating the caches.
func (st *swapState) swapValue(out, c int) float64 {
	in := st.in
	dc := in.Direct[c]
	rowC := in.Resid[c]
	acc := newAccum(in.Kind, in.Agg)
	for di, j := range st.dests {
		v := st.best1Val[di]
		if st.best1Slot[di] == out {
			v = st.best2V[di]
		}
		if cv := in.Kind.combine(dc, rowC[j]); in.Kind.better(cv, v) {
			v = cv
		}
		acc.add(in.pref(j), in.Kind.finalize(v))
	}
	return acc.value()
}

// swapEstimate is swapValue(out, cands[ci]) by the fast-swap identity: the
// objective with the candidate added and nothing removed, plus what the
// destinations slot out serves lose by falling back to their second-best
// facility (or to the candidate). It visits only those destinations, and
// sums in a different order than swapValue, so it steers the search but
// never supplies an accepted value.
func (st *swapState) swapEstimate(out, ci int) float64 {
	in := st.in
	c := st.cands[ci]
	dc := in.Direct[c]
	rowC := in.Resid[c]
	var loss float64
	for _, di := range st.served[st.off[out]:st.off[out+1]] {
		v1 := st.best1Val[di]
		cv := in.Kind.combine(dc, rowC[st.dests[di]])
		if in.Kind.better(cv, v1) {
			continue // the candidate serves it either way
		}
		v2 := st.best2V[di]
		if in.Kind.better(cv, v2) {
			v2 = cv
		}
		loss += st.w[di] * (in.Kind.finalize(v2) - in.Kind.finalize(v1))
	}
	return st.addVal[ci] + loss
}

// exactBR enumerates all k-subsets of the candidates.
func exactBR(in *Instance, k int, cands []int, opts BROptions, s *Scratch) ([]int, float64, error) {
	if c := combinations(len(cands), k); c < 0 || c > opts.maxCombinations() {
		return nil, 0, fmt.Errorf("core: exact BR over %d candidates choose %d exceeds limit", len(cands), k)
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	var bestSet []int
	bestVal := math.NaN()
	subset := make([]int, k)
	for {
		for i, ix := range idx {
			subset[i] = cands[ix]
		}
		if v := in.EvalScratch(subset, s); bestSet == nil || in.Kind.better(v, bestVal) {
			bestVal = v
			bestSet = append(bestSet[:0], subset...)
		}
		// Advance the combination indices.
		i := k - 1
		for i >= 0 && idx[i] == len(cands)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	sort.Ints(bestSet)
	return bestSet, bestVal, nil
}

// combinations returns C(n,k), or -1 on overflow.
func combinations(n, k int) int64 {
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := int64(1)
	for i := 1; i <= k; i++ {
		c = c * int64(n-k+i) / int64(i)
		if c < 0 || c > (1<<62)/int64(n+1) {
			return -1
		}
	}
	return c
}

// ShouldRewire implements BR(ε) (Sect. 4.3): re-wiring happens only when
// the newly computed wiring improves on the current one by more than
// epsilon (a fraction of the current cost). With epsilon 0 any strict
// improvement triggers a re-wire.
func ShouldRewire(kind CostKind, curVal, newVal, epsilon float64) bool {
	if !kind.better(newVal, curVal) {
		return false
	}
	if epsilon <= 0 {
		return newVal != curVal
	}
	if kind == Bottleneck {
		return newVal > curVal*(1+epsilon)
	}
	return newVal < curVal*(1-epsilon)
}
