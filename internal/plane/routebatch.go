package plane

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"egoist/internal/graph"
)

// A route-mode binary batch is answered in three passes over one
// pooled scratch:
//
//  1. In request order, on the calling goroutine: invalid pairs,
//     src == dst and sources whose row is resident are answered at once
//     (find counts each as a hit or collapse); the slots of the others,
//     the misses, are collected.
//  2. The misses — a pair search or a row fill each, 100 µs and up,
//     the fills admission would let in (several searches' worth each)
//     claimed first — run on the caller plus up to GOMAXPROCS−1 helper
//     goroutines, taken without blocking from the Server's one helper
//     budget, so any number of connections adds at most GOMAXPROCS−1
//     goroutines. With no helper free, at GOMAXPROCS 1 or with fewer
//     than two misses the caller runs them alone: no goroutine, no
//     allocation.
//  3. Every slot is encoded in request order.
//
// Every answer is the canonical DijkstraCSR label whichever way it is
// produced, so the response bytes do not depend on how the misses were
// spread. Only the counters can: the second of two lookups of one cold
// source in one batch may collapse onto the row the first is filling
// where, answered in turn, it would hit that row. Either way each
// lookup is counted once, and misses = pair searches + fills.

// routeSlot is one pair of a route batch between the passes.
type routeSlot struct {
	src, dst uint32
	invalid  bool
	cost     float64
	path     []int32 // kept across batches
}

// routeBatch is a route batch's scratch: its slots, the indices of the
// slots that missed, and pass 2's shared state (nil between batches).
type routeBatch struct {
	slots  []routeSlot
	misses []int32
	next   atomic.Int32 // next miss to run
	wg     sync.WaitGroup
	rows   *rowCache
	st     *cacheStats
	srv    *Server
	// help is helper bound once, so that starting a helper goroutine
	// allocates nothing.
	help func()
}

var routeBatches = sync.Pool{New: func() any {
	b := new(routeBatch)
	b.help = b.helper
	return b
}}

// answerRoutes appends the results of the count route pairs in pairs
// (src, dst as little-endian u32s) to dst, answered from snap.
func (s *Server) answerRoutes(snap *Snapshot, pairs []byte, count int, dst []byte) []byte {
	b := routeBatches.Get().(*routeBatch)
	if cap(b.slots) < count {
		b.slots = make([]routeSlot, count)
	}
	b.slots, b.misses = b.slots[:count], b.misses[:0]
	b.rows, b.st, b.srv = snap.rows, snap.rows.stats.Load(), s

	n := uint32(snap.N())
	var nFail int64
	fills := 0
	for i := range b.slots {
		sl := &b.slots[i]
		sl.src = binary.LittleEndian.Uint32(pairs[8*i:])
		sl.dst = binary.LittleEndian.Uint32(pairs[8*i+4:])
		sl.invalid = sl.src >= n || sl.dst >= n
		sl.path = sl.path[:0]
		switch {
		case sl.invalid:
			nFail++
		case sl.src == sl.dst:
			sl.path, sl.cost = append(sl.path, int32(sl.src)), 0
		default:
			if e := b.rows.find(int(sl.src), b.st); e != nil {
				sl.path, sl.cost = e.answer(int(sl.src), int(sl.dst), sl.path, true)
			} else {
				b.misses = append(b.misses, int32(i))
				if b.rows.buying(int(sl.src)) && b.rows.admits(int(sl.src)) {
					// A fill costs several searches: claimed first, it
					// overlaps them instead of starting after them.
					last := len(b.misses) - 1
					b.misses[fills], b.misses[last] = b.misses[last], b.misses[fills]
					fills++
				}
			}
		}
	}

	b.runMisses()

	for i := range b.slots {
		sl := &b.slots[i]
		switch {
		case sl.invalid:
			dst = append(dst, BinInvalidPair)
			dst = appendF64(dst, -1)
			dst = appendU32(dst, 0)
		case sl.cost < graph.Inf:
			dst = append(dst, BinOK)
			dst = appendF64(dst, sl.cost)
			dst = appendU32(dst, uint32(len(sl.path)))
			for _, v := range sl.path {
				dst = appendU32(dst, uint32(v))
			}
		default:
			dst = append(dst, BinUnreachable)
			dst = appendF64(dst, -1)
			dst = appendU32(dst, 0)
		}
	}
	if nRoute := int64(count) - nFail; nRoute > 0 {
		s.routes.Add(nRoute)
	}
	if nFail > 0 {
		s.failed.Add(nFail)
	}
	b.rows, b.st, b.srv = nil, nil, nil
	routeBatches.Put(b)
	return dst
}

// runMisses is pass 2: it returns once every collected miss has its
// answer in its slot.
func (b *routeBatch) runMisses() {
	m := len(b.misses)
	if m == 0 {
		return
	}
	b.next.Store(0)
	if m > 1 {
		width := runtime.GOMAXPROCS(0)
		for h := 1; h < m && h < width && b.srv.takeHelper(width-1); h++ {
			b.wg.Add(1)
			go b.help()
		}
	}
	b.work()
	b.wg.Wait()
}

// work runs misses until none is left to claim.
func (b *routeBatch) work() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.misses) {
			return
		}
		sl := &b.slots[b.misses[i]]
		sl.path, sl.cost = b.rows.miss(int(sl.src), int(sl.dst), sl.path, true, b.st)
	}
}

// helper is one helper goroutine's body: work, then hand the helper
// back to the budget before the caller can reuse the scratch.
func (b *routeBatch) helper() {
	b.work()
	b.srv.helpers.Add(-1)
	b.wg.Done()
}

// takeHelper takes one helper from the server-wide budget of limit
// running helpers; it reports false, without waiting, when none is free.
func (s *Server) takeHelper(limit int) bool {
	for {
		h := s.helpers.Load()
		if int(h) >= limit {
			return false
		}
		if s.helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}
