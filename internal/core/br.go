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
// stored or returned still comes from the evaluators (greedy's addValue,
// swapValue) in their fixed summation order, candidates are still scanned
// in the same order with the same first-strictly-better tie-break, and a
// skipped candidate is one the evaluator provably would have rejected.
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
// finalized and breaks the latter. The block's weigh checks every weight
// and Fixed cost before the solver starts, and greedy's round 0 every
// candidate cost on the pass that prices them all anyway; one irregular
// value and the whole call runs unpruned. AggWorst is never pruned.

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

// checkExact refuses an exact solve whose enumeration of k among n
// candidates would pass MaxCombinations subsets.
func (o BROptions) checkExact(n, k int) error {
	if !o.Exact {
		return nil
	}
	if c := combinations(n, k); c < 0 || c > o.maxCombinations() {
		return fmt.Errorf("core: exact BR over %d candidates choose %d exceeds limit", n, k)
	}
	return nil
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
// working memory (the dense cost block, per-destination arrays, membership
// sets, swap caches) lives in s and is reused by the next call, keeping the
// per-epoch hot path of the parallel simulation engine allocation-free. The
// returned set is freshly allocated and remains valid after s is reused. A
// nil s allocates a scratch for the call.
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
	if err := opts.checkExact(len(cands), k); err != nil {
		return nil, 0, err
	}
	b := s.fill(in, cands, in.destsInto(s))
	b.weigh(nil)
	chosen, val := b.solve(k, opts, s)
	b.ids = nil // do not pin the caller's candidates
	sort.Ints(chosen)
	return chosen, val, nil
}

// solve picks k ≥ 1 of the block's candidates: every k-subset with
// opts.Exact, greedy plus single-swap local search otherwise. It returns
// the chosen ids, freshly allocated, and their objective; s.slots holds
// each one's candidate position, aligned.
func (b *block) solve(k int, opts BROptions, s *Scratch) ([]int, float64) {
	if opts.Exact {
		return b.exact(k, s)
	}
	chosen, prune := b.greedyBR(k, s)
	return b.localSearch(chosen, opts.maxPasses(), prune, s)
}

// greedyBR builds a k-set by repeatedly adding the candidate with the best
// marginal improvement — the standard k-median greedy warm start — and
// reports whether the exact pruning described atop this file applies,
// which round 0 settles on its way through every candidate.
func (b *block) greedyBR(k int, s *Scratch) (chosen []int, prune bool) {
	best := b.bests(nil, s)
	s.used = bools(s.used, b.nIDs)
	used := s.used
	prune = b.regular
	// base is the objective of the set chosen so far, in the evaluator's
	// own summation order: Fixed alone before round 0, the previous round's
	// winning total after.
	var base float64
	if prune {
		s.lazyTot = floats(s.lazyTot, len(b.ids))
		s.lazyBase = floats(s.lazyBase, len(b.ids))
		base = b.value(best)
	}
	chosen = make([]int, 0, k)
	s.slots = s.slots[:0]
	for len(chosen) < k {
		bestCI := -1
		bestTotal := math.NaN()
		for ci, id := range b.ids {
			if used[id] {
				continue
			}
			if prune && len(chosen) > 0 {
				// Lazy evaluation: the gain the candidate showed when last
				// measured bounds the gain it can show now.
				tot, was := s.lazyTot[ci], s.lazyBase[ci]
				slack := pruneSlack * (math.Abs(base) + math.Abs(tot) + math.Abs(was))
				if bestCI != -1 && b.kind.misses(base+(tot-was), bestTotal, slack) {
					s.greedySkips++
					continue
				}
				s.greedyEvals++
			}
			var total float64
			if prune && len(chosen) == 0 {
				total, prune = b.addRegular(best, b.row(ci))
			} else {
				total = b.addValue(best, b.row(ci))
			}
			if prune {
				s.lazyTot[ci], s.lazyBase[ci] = total, base
			}
			if bestCI == -1 || b.kind.better(total, bestTotal) {
				bestCI, bestTotal = ci, total
			}
		}
		if bestCI == -1 {
			break
		}
		chosen = append(chosen, b.ids[bestCI])
		s.slots = append(s.slots, bestCI)
		used[b.ids[bestCI]] = true
		b.fold(best, b.row(bestCI))
		base = bestTotal
	}
	return chosen, prune
}

// localSearch improves a wiring with single swaps (drop one chosen
// facility, add one unchosen candidate) until no swap improves the
// objective or maxPasses passes elapse. It returns the improved set and
// its value. cur must be caller-owned, with s.slots holding its candidate
// positions; both are modified in place.
//
// Swap evaluation is incremental: per destination the best and second-best
// facility values are cached, so swapValue prices one swap in O(|dests|)
// instead of O(k·|dests|). With prune set, a swap reaches swapValue only
// when its O(|dests|/k) swapEstimate could still beat the incumbent, which
// takes a pass that improves nothing from k·|cands|·|dests| element visits
// to about 2·|cands|·|dests|: one to index the caches, one spread over the
// estimates.
func (b *block) localSearch(cur []int, maxPasses int, prune bool, s *Scratch) ([]int, float64) {
	slots := s.slots
	s.used = bools(s.used, b.nIDs)
	inSet := s.used
	for _, id := range cur {
		inSet[id] = true
	}
	st := s.swap.reset(b, inSet, prune)
	st.rebuild(slots)
	curVal := st.total()

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for slot, old := range cur {
			bestCI := -1
			bestVal := curVal
			for ci, id := range b.ids {
				if inSet[id] {
					continue
				}
				if prune {
					est := st.swapEstimate(slot, ci)
					if b.kind.misses(est, bestVal, pruneSlack*(math.Abs(est)+math.Abs(bestVal))) {
						s.swapSkips++
						continue
					}
					s.swapEvals++
				}
				if v := st.swapValue(slot, ci); b.kind.better(v, bestVal) {
					bestVal, bestCI = v, ci
				}
			}
			if bestCI >= 0 {
				id := b.ids[bestCI]
				cur[slot], slots[slot] = id, bestCI
				inSet[old] = false
				inSet[id] = true
				curVal = bestVal
				st.rebuild(slots)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curVal
}

// swapState caches, for every destination position, the best and
// second-best facility of the current set, enabling O(|dests|) single-swap
// evaluation, and — when pruning — the tables behind swapEstimate. It lives
// in the Scratch, its slices reused from call to call.
type swapState struct {
	b     *block
	inSet []bool // membership of the current set, by node id
	prune bool
	// Per destination position: the best value, the slot of the current
	// set that provides it (-1 for the Fixed facilities, which are never
	// swapped out, and for none at all), and the second-best value, read
	// only where a slot provides the best.
	best1Slot        []int
	best1Val, best2V []float64
	// Pruning tables, valid until the next rebuild: addVal[ci] is the
	// objective of the current set plus candidate ci, for every candidate
	// outside it; served[off[s]:off[s+1]] are the destination positions
	// slot s serves.
	addVal []float64
	served []int
	off    []int
}

// reset points the state at the block and sizes its tables.
func (st *swapState) reset(b *block, inSet []bool, prune bool) *swapState {
	st.b, st.inSet, st.prune = b, inSet, prune
	st.best1Slot = ints(st.best1Slot, b.d)
	st.best1Val = floats(st.best1Val, b.d)
	st.best2V = floats(st.best2V, b.d)
	if prune {
		st.addVal = floats(st.addVal, len(b.ids))
		st.served = ints(st.served, b.d)
	}
	return st
}

// rebuild recomputes the caches for the set of candidate positions slots
// ∪ Fixed. The Fixed facilities enter as the block's starting bests; the
// second best among them, which that drops, is never read: a slot that
// takes a destination from them leaves their best as its second.
func (st *swapState) rebuild(slots []int) {
	b := st.b
	kind := b.kind
	copy(st.best1Val, b.fixed)
	for di := range st.best1Slot {
		st.best1Slot[di] = -1
		st.best2V[di] = kind.worst()
	}
	for slot, ci := range slots {
		for di, c := range b.row(ci) {
			if kind.better(c, st.best1Val[di]) {
				st.best2V[di] = st.best1Val[di]
				st.best1Val[di] = c
				st.best1Slot[di] = slot
			} else if kind.better(c, st.best2V[di]) {
				st.best2V[di] = c
			}
		}
	}
	if st.prune {
		st.index(len(slots))
	}
}

// index builds the pruning tables from the caches rebuild just filled:
// addVal by pricing every outside candidate added to the current set,
// served by a counting sort of the destination positions on their serving
// slot.
func (st *swapState) index(k int) {
	for ci, id := range st.b.ids {
		if !st.inSet[id] {
			st.addVal[ci] = st.b.addValue(st.best1Val, st.b.row(ci))
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
func (st *swapState) total() float64 { return st.b.value(st.best1Val) }

// swapValue returns the objective after replacing the facility in slot out
// by candidate ci, without mutating the caches.
func (st *swapState) swapValue(out, ci int) float64 {
	b := st.b
	row := b.row(ci)
	kind, w := b.kind, b.w[:len(row)]
	b1, b2, slot := st.best1Val[:len(row)], st.best2V[:len(row)], st.best1Slot[:len(row)]
	if b.agg == AggSum {
		var tot float64
		for di, cv := range row {
			v := b1[di]
			if slot[di] == out {
				v = b2[di]
			}
			if kind.better(cv, v) {
				v = cv
			}
			tot += w[di] * kind.finalize(v)
		}
		return tot
	}
	acc := newAccum(kind, b.agg)
	for di, cv := range row {
		v := b1[di]
		if slot[di] == out {
			v = b2[di]
		}
		if kind.better(cv, v) {
			v = cv
		}
		acc.add(w[di], kind.finalize(v))
	}
	return acc.value()
}

// swapEstimate is swapValue(out, ci) by the fast-swap identity: the
// objective with the candidate added and nothing removed, plus what the
// destinations slot out serves lose by falling back to their second-best
// facility (or to the candidate). It visits only those destinations, and
// sums in a different order than swapValue, so it steers the search but
// never supplies an accepted value.
func (st *swapState) swapEstimate(out, ci int) float64 {
	b := st.b
	kind, row := b.kind, b.row(ci)
	var loss float64
	for _, di := range st.served[st.off[out]:st.off[out+1]] {
		v1 := st.best1Val[di]
		cv := row[di]
		if kind.better(cv, v1) {
			continue // the candidate serves it either way
		}
		v2 := st.best2V[di]
		if kind.better(cv, v2) {
			v2 = cv
		}
		loss += b.w[di] * (kind.finalize(v2) - kind.finalize(v1))
	}
	return st.addVal[ci] + loss
}

// exact enumerates every k-subset of the candidates and keeps the first
// best one.
func (b *block) exact(k int, s *Scratch) ([]int, float64) {
	n := len(b.ids)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	found := false
	bestVal := math.NaN()
	for {
		if v := b.value(b.bests(idx, s)); !found || b.kind.better(v, bestVal) {
			found, bestVal = true, v
			s.slots = append(s.slots[:0], idx...)
		}
		// Advance the combination indices.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
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
	chosen := make([]int, k)
	for x, ci := range s.slots {
		chosen[x] = b.ids[ci]
	}
	return chosen, bestVal
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

// shouldRewire implements BR(ε) (Sect. 4.3): re-wiring happens only when
// the newly computed wiring improves on the current one by more than
// epsilon (a fraction of the current cost). With epsilon 0 any strict
// improvement triggers a re-wire.
func shouldRewire(kind CostKind, curVal, newVal, epsilon float64) bool {
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
