package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refHeap is dheap with the sequential child selection: a strict float
// `<` over the children in index order, so the lowest index among the
// minima wins. It is the reference the heap's pop order is pinned to.
type refHeap struct {
	items []heapItem
}

func (h *refHeap) push(it heapItem) { (*dheap)(h).push(it) }

func (h *refHeap) popMin() heapItem {
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
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		bk := h.items[c].key
		for x := c + 1; x < end; x++ {
			if k := h.items[x].key; k < bk {
				best, bk = x, k
			}
		}
		if bk >= last.key {
			break
		}
		h.items[i] = h.items[best]
		i = best
	}
	h.items[i] = last
	return top
}

func (h *refHeap) popLabel() heapItem {
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
		end := c + 4
		if end > n {
			end = n
		}
		best, b := c, h.items[c]
		for x := c + 1; x < end; x++ {
			if it := h.items[x]; it.before(b) {
				best, b = x, it
			}
		}
		if !b.before(last) {
			break
		}
		h.items[i] = h.items[best]
		i = best
	}
	h.items[i] = last
	return top
}

// The heap flavours the push sites produce, one per pop entry point and
// key sign.
const (
	heapAdditive   = iota // popMin on keys ≥ +0: Digraph searches, the pair search's backward side
	heapBottleneck        // popMin on negated widths: below 0, −Inf for the source
	heapLabel             // popLabel on (key ≥ +0, hops): settleCSR
	heapFlavours
)

// heapMasks holds popMin's mask of each popMin flavour.
var heapMasks = [heapFlavours]uint64{heapAdditive: additiveKeys, heapBottleneck: bottleneckKeys}

// heapScriptKey maps one script byte to a key of the flavour's class:
// +0 (or −Inf), small integers that tie often, a continuous spread, and
// subnormals.
func heapScriptKey(flavour int, v byte) float64 {
	x := float64(v >> 2)
	var k float64
	switch v & 3 {
	case 0:
		if flavour == heapBottleneck {
			return math.Inf(-1)
		}
		return 0
	case 1:
		k = float64(int(x)%4 + 1)
	case 2:
		k = (x + 1) * 0.37
	case 3:
		k = math.SmallestNonzeroFloat64 * (x + 1)
	}
	if flavour == heapBottleneck {
		return -k
	}
	return k
}

// checkHeapScript runs one push/pop script through dheap and refHeap
// and fails on the first pop where they differ. Each op is two bytes:
// op&3 == 0 pops (when non-empty), anything else pushes a key drawn from
// the value byte, with hops (op>>2)%4 on the label flavour. Every push
// carries a fresh node id, so a tie popped in another order shows. Both
// heaps are drained at the end.
func checkHeapScript(t *testing.T, flavour int, script []byte) {
	t.Helper()
	var h dheap
	var ref refHeap
	pops, node := 0, int32(0)
	pop := func() {
		var got, want heapItem
		switch flavour {
		case heapLabel:
			got, want = h.popLabel(), ref.popLabel()
		default:
			got, want = h.popMin(heapMasks[flavour]), ref.popMin()
		}
		if got.node != want.node || got.hops != want.hops || math.Float64bits(got.key) != math.Float64bits(want.key) {
			t.Fatalf("flavour %d, pop %d: got %+v, reference pops %+v", flavour, pops, got, want)
		}
		pops++
	}
	for x := 0; x+1 < len(script); x += 2 {
		op, v := script[x], script[x+1]
		if op&3 == 0 {
			if len(ref.items) > 0 {
				pop()
			}
			continue
		}
		it := heapItem{node: node, key: heapScriptKey(flavour, v)}
		if flavour == heapLabel {
			it.hops = int32(op>>2) % 4
		}
		node++
		h.push(it)
		ref.push(it)
	}
	for len(ref.items) > 0 {
		pop()
	}
	if len(h.items) != 0 {
		t.Fatalf("flavour %d: %d items left after the reference drained", flavour, len(h.items))
	}
}

// TestHeapPopOrder: on random scripts of every flavour the heap pops the
// same items in the same order as the sequential reference, ties on key
// and on (key, hops) included.
func TestHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 2000; trial++ {
		script := make([]byte, 2*(1+rng.Intn(800)))
		rng.Read(script)
		checkHeapScript(t, trial%heapFlavours, script)
	}
}

// FuzzHeapPopOrder is TestHeapPopOrder on fuzzer-chosen scripts.
func FuzzHeapPopOrder(f *testing.F) {
	f.Add(uint8(heapAdditive), []byte{1, 0, 1, 0, 1, 5, 1, 5, 1, 0, 0, 0, 1, 9, 1, 1, 1, 0, 0, 0})
	f.Add(uint8(heapBottleneck), []byte{1, 0, 1, 5, 1, 5, 1, 6, 1, 7, 1, 5, 0, 0, 1, 0, 1, 9, 0, 0})
	f.Add(uint8(heapLabel), []byte{1, 5, 5, 5, 9, 5, 1, 0, 5, 0, 13, 5, 1, 5, 0, 0, 5, 5, 1, 9})
	f.Fuzz(func(t *testing.T, flavour uint8, script []byte) {
		checkHeapScript(t, int(flavour)%heapFlavours, script)
	})
}
