package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"egoist/internal/sampling"
)

// The solver's dense form of one best response.
//
// Greedy and local search visit candidate × destination costs hundreds of
// times per call. They read them from one contiguous block, filled once per
// call: cost[ci·D+di] = Kind.combine(Direct[c], Resid[c][dests[di]]) for
// candidate position ci and destination position di, beside the positional
// objective weights and the Fixed facilities folded into the per-destination
// best every set starts from. No solver loop looks up a preference, gathers
// a residual row or combines twice, and every value the solver compares,
// stores or returns is folded and summed in the same order as an evaluation
// over the Instance, so the block changes no output bit.
//
// fill turns an Instance into its block (BestResponseScratch,
// BestResponseSampled). The scale engine, whose Instance would only be a
// copy of its facility directory's rows, fills a block straight from those
// rows instead: Block sizes it, BestResponseBlock solves it — or, when the
// caller's keep test rejects a bound every solution must meet, skips the
// solve — and SampledBlock is the Instance-built block its probe compares
// with.

// block is one best response in the solver's dense form. It lives in the
// Scratch and is rebuilt by every call.
type block struct {
	kind CostKind
	agg  AggKind
	// ids[ci] is candidate position ci's node id: the key of the solver's
	// membership sets (an id listed twice is one facility), below nIDs.
	ids  []int
	nIDs int
	d    int // destination positions
	// cost[ci·d+di] is the cost of reaching destination position di
	// through candidate ci.
	cost []float64
	// pref[di] is destination di's preference weight; w[di] is its weight
	// in the objective, pref expanded by the inverse inclusion probability
	// when the destinations are a sample.
	pref, w []float64
	// fixed[di] is the best cost at which the Fixed facilities reach
	// destination di (Kind.worst without any); fixedRegular reports that
	// every Fixed cost was regular.
	fixed        []float64
	fixedRegular bool
	// ds is the destination sample of a sampled call, nil otherwise.
	ds *sampling.DestSample
	// regular reports whether the weights and Fixed costs admit the
	// pruning bounds (see br.go); greedy's round 0 checks the rest.
	regular bool
	// minmax reports that the block is Additive and that no cost and no
	// Fixed best in it is NaN or −0. There min selects what better's <
	// selects — a tie between equal values other than zeros of opposite
	// sign is the same bits — so the sum kernels select with min and max
	// instead of a branch on better, which the data make unpredictable.
	// fill settles it on its pass over the costs, keepBound on its fold
	// of every row; until one of them does, the branching loops run.
	minmax bool
}

// minUnsafe reports whether c is a value min and max may select
// differently than better: NaN, or −0 beside +0.
func minUnsafe(c float64) bool {
	return c != c || math.Float64bits(c) == 1<<63
}

// reset sizes the scratch's block for the candidates ids (all below nIDs)
// and D destination positions, with no Fixed facility.
func (s *Scratch) reset(kind CostKind, agg AggKind, ids []int, nIDs, D int) *block {
	b := &s.blk
	b.kind, b.agg, b.ids, b.nIDs, b.d, b.ds = kind, agg, ids, nIDs, D, nil
	b.minmax = false
	b.cost = floats(b.cost, len(ids)*D)
	b.pref = floats(b.pref, D)
	b.fixed = floats(b.fixed, D)
	for di := range b.fixed {
		b.fixed[di] = kind.worst()
	}
	b.fixedRegular = true
	return b
}

// fill builds the block of in over the candidate and destination lists.
// It reads the Resid rows of the candidates and the Fixed facilities only,
// and settles minmax on the way: a Fixed cost that is NaN or −0 rules it
// out as a Fixed best would.
func (s *Scratch) fill(in *Instance, cands, dests []int) *block {
	b := s.reset(in.Kind, in.Agg, cands, in.n(), len(dests))
	clean := in.Kind == Additive
	for di, j := range dests {
		b.pref[di] = in.pref(j)
	}
	for _, f := range in.Fixed {
		df, row := in.Direct[f], in.Resid[f]
		for di, j := range dests {
			c := in.Kind.combine(df, row[j])
			if !in.Kind.regular(c) {
				b.fixedRegular = false
			}
			if minUnsafe(c) {
				clean = false
			}
			if in.Kind.better(c, b.fixed[di]) {
				b.fixed[di] = c
			}
		}
	}
	for ci, c := range cands {
		if !fillRow(in.Kind, in.Direct[c], in.Resid[c], dests, b.row(ci)) {
			clean = false
		}
	}
	b.minmax = clean
	return b
}

// fillRow sets out[di] to the cost of reaching dests[di] through a
// facility at direct cost dc with residual row row, and reports whether
// the costs admit minmax: the kind is Additive and none of them is NaN
// or −0. An additive cost is −0 only when both its terms are, so unless
// dc is −0 the loop looks for NaN alone, with a branch that is never
// taken; minUnsafe on every cost would cost as much again as the fill.
func fillRow(kind CostKind, dc float64, row []float64, dests []int, out []float64) bool {
	out = out[:len(dests)]
	if kind != Additive {
		for di, j := range dests {
			out[di] = kind.combine(dc, row[j])
		}
		return false
	}
	clean := true
	negDirect := minUnsafe(dc)
	for di, j := range dests {
		v := dc + row[j]
		if v != v || negDirect && minUnsafe(v) {
			clean = false
		}
		out[di] = v
	}
	return clean
}

// weigh sets the objective weights — the preferences, expanded by inv when
// the destinations are a sample — and settles whether the pruning bounds
// can hold before greedy's round 0 checks the candidate costs: a sum
// objective, no weight negative or NaN, and no irregular Fixed cost.
func (b *block) weigh(inv []float64) {
	b.w = floats(b.w, b.d)
	ok := b.agg == AggSum && b.fixedRegular
	for di, p := range b.pref {
		if inv != nil {
			p *= inv[di]
		}
		b.w[di] = p
		if p < 0 || math.IsNaN(p) {
			ok = false
		}
	}
	b.regular = ok
}

// row returns candidate ci's costs, one per destination position.
func (b *block) row(ci int) []float64 {
	return b.cost[ci*b.d : (ci+1)*b.d : (ci+1)*b.d]
}

// fold lowers best to the candidate costs row wherever they are better.
func (b *block) fold(best, row []float64) {
	best = best[:len(row)]
	if b.minmax {
		for di, c := range row {
			best[di] = min(best[di], c)
		}
		return
	}
	kind := b.kind
	for di, c := range row {
		if kind.better(c, best[di]) {
			best[di] = c
		}
	}
}

// foldChecked is fold's branching loop that also reports whether row is
// free of the values minUnsafe names.
func (b *block) foldChecked(best, row []float64) (clean bool) {
	kind := b.kind
	best = best[:len(row)]
	clean = true
	for di, c := range row {
		if minUnsafe(c) {
			clean = false
		}
		if kind.better(c, best[di]) {
			best[di] = c
		}
	}
	return clean
}

// bests fills the scratch's per-destination array with the bests of the
// set of candidate positions cis, folded in order from the Fixed start.
func (b *block) bests(cis []int, s *Scratch) []float64 {
	s.best = floats(s.best, b.d)
	best := s.best
	copy(best, b.fixed)
	for _, ci := range cis {
		b.fold(best, b.row(ci))
	}
	return best
}

// value is the objective of a set whose per-destination bests are best.
func (b *block) value(best []float64) float64 {
	w := b.w[:len(best)]
	acc := newAccum(b.kind, b.agg)
	for di, c := range best {
		acc.add(w[di], b.kind.finalize(c))
	}
	return acc.value()
}

// addValue is the objective of the set whose per-destination bests are
// best with the candidate whose costs are row added. The sum objective
// keeps its total in a local the compiler holds in a register, which it
// cannot do for the six-field accumulator.
func (b *block) addValue(best, row []float64) float64 {
	kind, w, row := b.kind, b.w[:len(best)], row[:len(best)]
	if b.agg == AggSum {
		var tot float64
		if b.minmax {
			for di, c := range best {
				tot += w[di] * kind.finalize(min(c, row[di]))
			}
			return tot
		}
		for di, c := range best {
			if alt := row[di]; kind.better(alt, c) {
				c = alt
			}
			tot += w[di] * kind.finalize(c)
		}
		return tot
	}
	acc := newAccum(kind, b.agg)
	for di, c := range best {
		if alt := row[di]; kind.better(alt, c) {
			c = alt
		}
		acc.add(w[di], kind.finalize(c))
	}
	return acc.value()
}

// addRegular is addValue for the sum objective that also reports whether
// every cost in row is regular: greedy's round 0 prices each candidate
// this way and settles the pruning on its one pass over the block.
func (b *block) addRegular(best, row []float64) (float64, bool) {
	kind, w, row := b.kind, b.w[:len(best)], row[:len(best)]
	var tot float64
	ok := true
	if b.minmax {
		for di, c := range best {
			alt := row[di]
			if !kind.regular(alt) {
				ok = false
			}
			tot += w[di] * kind.finalize(min(c, alt))
		}
		return tot, ok
	}
	for di, c := range best {
		alt := row[di]
		if !kind.regular(alt) {
			ok = false
		}
		if kind.better(alt, c) {
			c = alt
		}
		tot += w[di] * kind.finalize(c)
	}
	return tot, ok
}

// estimate is the Horvitz–Thompson estimate of the set of candidate
// positions cis over the block's destination sample: its bests priced by
// the unexpanded preference weights.
func (b *block) estimate(cis []int, s *Scratch) sampling.Estimate {
	best := b.bests(cis, s)
	return b.ds.EstimateAt(func(di int) float64 {
		return b.pref[di] * b.kind.finalize(best[di])
	})
}

// Block sizes the scratch's block for an additive sum best response over
// candidates 0..C−1 and the destination sample ds, and returns its two
// parts for the caller to fill. cost[ci·D+di], with D = len(ds.Dests), is
// the cost of reaching ds.Dests[di] through candidate ci: its direct link
// plus its distance to the destination, +Inf when it cannot reach it.
// pref[di] is the destination's preference weight.
//
// The order is fixed: fill both parts, then make one BestResponseBlock
// call on the same Scratch before any other use of it. That call consumes
// the block; a second one fails until the next Block.
func (s *Scratch) Block(C int, ds *sampling.DestSample) (cost, pref []float64) {
	s.candBuf = ints(s.candBuf, C)
	for ci := range s.candBuf {
		s.candBuf[ci] = ci
	}
	b := s.reset(Additive, AggSum, s.candBuf, C, len(ds.Dests))
	b.ds = ds
	return b.cost, b.pref
}

var (
	errEmptySample = errors.New("core: empty destination sample")
	errNoBlock     = errors.New("core: no filled block to solve")
)

// BestResponseBlock solves the block filled since the last Block call as
// BestResponseSampled solves its instance: the objective is the
// Horvitz–Thompson estimate over the sampled destinations. It returns the
// chosen candidates (ascending ids), the estimate of their full-roster
// objective and, on the same block, that of the set cur (candidate
// positions, folded in order).
//
// A non-nil keep is asked before the solve, with a lower bound on the
// estimate of every set the solver could return (keepBound) and the
// estimate of cur. When it returns true the solve is skipped: chosen is
// nil and est is that bound. estCur is the same bits either way.
func (s *Scratch) BestResponseBlock(k int, cur []int, opts BROptions, keep func(bound, estCur sampling.Estimate) bool) (chosen []int, est, estCur sampling.Estimate, err error) {
	b := &s.blk
	if b.ds == nil {
		return nil, est, estCur, errNoBlock
	}
	chosen, est, estCur, err = b.solveSampled(k, cur, opts, keep, s)
	// The block outlives the call inside the Scratch: drop what it
	// borrowed, so it pins neither the caller's candidates nor the sample
	// and cannot be solved twice.
	b.ids, b.ds = nil, nil
	return chosen, est, estCur, err
}

func (b *block) solveSampled(k int, cur []int, opts BROptions, keep func(bound, estCur sampling.Estimate) bool, s *Scratch) (chosen []int, est, estCur sampling.Estimate, err error) {
	if len(b.ds.Dests) == 0 {
		return nil, est, estCur, errEmptySample
	}
	if k < 0 {
		return nil, est, estCur, fmt.Errorf("core: negative k %d", k)
	}
	if k > len(b.ids) {
		k = len(b.ids)
	}
	if err := opts.checkExact(len(b.ids), k); err != nil {
		return nil, est, estCur, err
	}
	estCur = b.estimate(cur, s)
	if keep != nil {
		if bound, ok := b.keepBound(s); ok && keep(bound, estCur) {
			return nil, bound, estCur, nil
		}
	}
	b.weigh(b.ds.InvProb)
	s.slots = s.slots[:0]
	if k > 0 {
		chosen, _ = b.solve(k, opts, s)
	}
	sortSet(chosen, s.slots)
	return chosen, b.estimate(s.slots, s), estCur, nil
}

// keepBound is the estimate of a per-destination lower bound on the cost
// of every set of the block's candidates: the best over every candidate
// row, folded from the Fixed start as any set's bests are. Any set's best
// is one of the values that fold compared, so it is no better than theirs,
// bit for bit. finalize maps an unreachable destination to
// DisconnectedPenalty but leaves a finite cost above it alone, so it is
// not monotone there; the bound caps at the penalty instead, which is
// finalize wherever a cost is at most the penalty and below it elsewhere.
// A weight that is negative, NaN or infinite could turn a larger cost into
// a smaller or undefined term, and Bottleneck bests run the other way, so
// ok is false for those and the caller gets no bound. The fold reads
// every cost of the block, so it settles minmax for the solve that may
// follow: with min, since Go's min carries a NaN or a −0 anywhere in a
// column into that column's minimum (as the minimum or below it), and
// with the branching foldChecked again only when a minimum is NaN or
// signed.
func (b *block) keepBound(s *Scratch) (bound sampling.Estimate, ok bool) {
	if b.kind != Additive {
		return bound, false
	}
	for _, p := range b.pref {
		if !(p >= 0) || math.IsInf(p, 1) {
			return bound, false
		}
	}
	s.best = floats(s.best, b.d)
	best := s.best
	copy(best, b.fixed)
	for ci := range b.ids {
		for di, c := range b.row(ci) {
			best[di] = min(best[di], c)
		}
	}
	clean := !slices.ContainsFunc(best, func(c float64) bool { return c != c || math.Signbit(c) })
	if !clean {
		copy(best, b.fixed)
		clean = !slices.ContainsFunc(b.fixed, minUnsafe)
		for ci := range b.ids {
			if !b.foldChecked(best, b.row(ci)) {
				clean = false
			}
		}
	}
	b.minmax = clean
	return b.ds.EstimateAt(func(di int) float64 {
		return b.pref[di] * math.Min(best[di], DisconnectedPenalty)
	}), true
}

// SampledBlock returns, freshly allocated, the block BestResponseSampled
// solves for in and the destination sample ds, its parts laid out as
// Block's: candidates in in.Candidates order (every node but Self when
// nil), destinations in ds.Dests order. It is the reference a block filled
// directly is checked against.
func SampledBlock(in *Instance, ds *sampling.DestSample) (cost, pref []float64, err error) {
	var s Scratch
	if err := s.fillSampled(in, ds); err != nil {
		return nil, nil, err
	}
	return s.blk.cost, s.blk.pref, nil
}

// sortSet sorts the chosen ids ascending, carrying each one's candidate
// position along.
func sortSet(ids, cis []int) {
	for a := 1; a < len(ids); a++ {
		for x := a; x > 0 && ids[x] < ids[x-1]; x-- {
			ids[x], ids[x-1] = ids[x-1], ids[x]
			cis[x], cis[x-1] = cis[x-1], cis[x]
		}
	}
}
