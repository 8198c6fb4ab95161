package graph

import (
	"math"
	"math/bits"
)

// dheap is an inlined 4-ary heap for the hot Dijkstra variants.
// container/heap costs an interface allocation per push and a dynamic
// dispatch per comparison — nearly half the scale engine's CPU profile
// when it was used. The 4-ary layout halves the sift-down depth versus a
// binary heap (pops dominate under lazy-deletion duplicates). Each order
// has its own pop so every comparison inlines: popMin by key (Digraph
// searches, the pair search's backward side, and the bottleneck algebra
// on negated widths, all pushing hops = 0), popLabel by (key, hops) for
// settleCSR.
//
// A pop picks the least of four full children without a branch: on
// random keys a float compare there mispredicts about half the time,
// and that was most of a search's cost. The four run as a tournament —
// (0,1), (2,3), then the two winners — on the keys' IEEE bits compared
// as integers, the borrow of a subtraction selecting each winner. A tie
// keeps the left item, so the lowest index among the minima wins, the
// child a strict `<` over the four in index order picks. The same item
// moves up at every level, and every search pops the same sequence as
// with float compares (TestHeapPopOrder). The partial last group and the
// stop against the moved-down last entry keep their float compares.
//
// The integer compare holds under a precondition every push site meets:
//   - additive keys are ≥ +0: labels start at +0 and add non-negative
//     weights, which never gives −0, and the bits of floats ≥ +0 order
//     as the floats do;
//   - bottleneck keys are negated widths, below 0 (−Inf for the source):
//     relaxMax and seedMax push −w only for w above a width ≥ 0. Their
//     bits order backwards, and popMin's all-ones mask turns them round
//     at one XOR per key;
//   - no key is NaN: every push is guarded by a `<` or `>` that NaN fails.
type dheap struct {
	items []heapItem
}

// heapItem is a priority-queue entry for Dijkstra variants.
type heapItem struct {
	node int32
	hops int32 // the CSR search's hop count; zero elsewhere
	key  float64
}

// The popMin masks of the two key signs.
const (
	additiveKeys   uint64 = 0             // keys ≥ +0
	bottleneckKeys        = ^additiveKeys // negated widths, below 0
)

// push inserts under the (key, hops) order, which is the key order on
// a heap whose entries all have hops = 0.
func (h *dheap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !it.before(h.items[p]) {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = it
}

// popMin removes the minimum-key entry; mask is additiveKeys or
// bottleneckKeys, after the heap's key sign.
func (h *dheap) popMin(mask uint64) heapItem {
	top := h.items[0]
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	n := len(h.items)
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		if c+4 <= n {
			q := h.items[c : c+4 : c+4]
			best += least4(
				math.Float64bits(q[0].key)^mask, math.Float64bits(q[1].key)^mask,
				math.Float64bits(q[2].key)^mask, math.Float64bits(q[3].key)^mask)
		} else {
			bk := h.items[c].key
			for x := c + 1; x < n; x++ {
				if k := h.items[x].key; k < bk {
					best, bk = x, k
				}
			}
		}
		if h.items[best].key >= last.key {
			break
		}
		h.items[i] = h.items[best]
		i = best
	}
	h.items[i] = last
	return top
}

// least4 returns the index of the least of four keys, the lowest among
// equals, without a branch. The borrow of k1−k0 is 1 exactly when
// k1 < k0, and x^(x^y)&-b selects y when b is 1 and x when it is 0.
func least4(k0, k1, k2, k3 uint64) int {
	_, b := bits.Sub64(k1, k0, 0)
	i01, k01 := b, k0^(k0^k1)&-b
	_, b = bits.Sub64(k3, k2, 0)
	i23, k23 := 2+b, k2^(k2^k3)&-b
	_, b = bits.Sub64(k23, k01, 0)
	return int(i01 ^ (i01^i23)&-b)
}

// before reports whether a pops ahead of b under the (key, hops) order.
func (a heapItem) before(b heapItem) bool {
	return a.key < b.key || a.key == b.key && a.hops < b.hops
}

// popLabel removes the minimum entry under the (key, hops) order, on
// keys ≥ +0.
func (h *dheap) popLabel() heapItem {
	top := h.items[0]
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	n := len(h.items)
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		if c+4 <= n {
			q := h.items[c : c+4 : c+4]
			// least4 under the (key, hops) order, written out: as a
			// function it is too large to inline. Each compare is one
			// 128-bit subtraction whose borrow out of the hops feeds the
			// subtraction of the keys.
			k0, h0 := math.Float64bits(q[0].key), uint64(uint32(q[0].hops))
			k1, h1 := math.Float64bits(q[1].key), uint64(uint32(q[1].hops))
			k2, h2 := math.Float64bits(q[2].key), uint64(uint32(q[2].hops))
			k3, h3 := math.Float64bits(q[3].key), uint64(uint32(q[3].hops))
			_, b := bits.Sub64(h1, h0, 0)
			_, b = bits.Sub64(k1, k0, b)
			i01, k01, h01 := b, k0^(k0^k1)&-b, h0^(h0^h1)&-b
			_, b = bits.Sub64(h3, h2, 0)
			_, b = bits.Sub64(k3, k2, b)
			i23, k23, h23 := 2+b, k2^(k2^k3)&-b, h2^(h2^h3)&-b
			_, b = bits.Sub64(h23, h01, 0)
			_, b = bits.Sub64(k23, k01, b)
			best += int(i01 ^ (i01^i23)&-b)
		} else {
			b := h.items[c]
			for x := c + 1; x < n; x++ {
				if it := h.items[x]; it.before(b) {
					best, b = x, it
				}
			}
		}
		if !h.items[best].before(last) {
			break
		}
		h.items[i] = h.items[best]
		i = best
	}
	h.items[i] = last
	return top
}
