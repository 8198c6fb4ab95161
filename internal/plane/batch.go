package plane

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"egoist/internal/graph"
)

// Every batch — a binary frame, a JSON POST /routes body, or a GET
// /route query, a batch of one — is admitted in one step (admitBatch,
// which refuses a batch whole and counts it as one failed query),
// decoded into the slots of one pooled scratch (pair, which marks ids
// outside [0, n) invalid) and answered in three passes:
//
//  1. In request order, on the calling goroutine: invalid pairs,
//     one-hop pairs, src == dst and route sources whose row is resident
//     are answered at once (find counts each lookup as a hit or
//     collapse); the slots of the others, the route misses, are
//     collected.
//  2. The misses — a pair search or a row fill each, 100 µs and up,
//     the fills admission would let in (several searches' worth each)
//     claimed first — run on the caller plus up to GOMAXPROCS−1 helper
//     goroutines, taken without blocking from the Server's one helper
//     budget, so any number of connections adds at most GOMAXPROCS−1
//     goroutines. With no helper free, at GOMAXPROCS 1 or with fewer
//     than two misses the caller runs them alone: no goroutine, no
//     allocation. Then each answered pair counts one onehop or route
//     query, each invalid pair one failed.
//  3. An encoder, appendBinary or jsonResults, writes every slot in
//     request order.
//
// Every route answer is the canonical DijkstraCSR label whichever way
// it is produced, so the answers do not depend on how the misses were
// spread. Only the counters can: the second of two lookups of one cold
// source in one batch may collapse onto the row the first is filling
// where, answered in turn, it would hit that row. Either way each
// lookup is counted once, and misses = pair searches + fills.

// slot is one pair of a batch between the passes.
type slot struct {
	src, dst uint32
	invalid  bool
	via      int32   // one-hop: the relay, -1 for the direct path
	cost     float64 // +Inf when unreachable
	path     []int32 // route: src..dst when reachable; kept across batches
}

// batch is one batch's scratch: its slots, the indices of the route
// slots that missed, and pass 2's shared state (nil between batches).
type batch struct {
	mode   byte // BinModeOneHop or BinModeRoute
	slots  []slot
	misses []int32
	next   atomic.Int32 // next miss to run
	wg     sync.WaitGroup
	snap   *Snapshot
	st     *cacheStats
	srv    *Server
	t0     time.Time // batch latency clock (zero while metrics are off)
	// help is helper bound once, so that starting a helper goroutine
	// allocates nothing.
	help func()
}

var batches = sync.Pool{New: func() any {
	b := new(batch)
	b.help = b.helper
	return b
}}

// admitBatch is every batch's admission, on either protocol: it refuses
// a batch whose mode is unknown (jsonMode maps JSON names), that holds
// over maxBatchPairs pairs, did not decode (bad) or comes before the
// first Publish, in that order, counting one failed query and returning
// the HTTP status the JSON face refuses it with.
func (s *Server) admitBatch(mode byte, count int, bad error) (snap *Snapshot, code int, err error) {
	code, err = http.StatusBadRequest, bad
	switch {
	case mode != BinModeOneHop && mode != BinModeRoute:
		err = fmt.Errorf("plane: unknown binary mode %d (want 0 onehop or 1 route)", mode)
	case count > maxBatchPairs:
		code, err = http.StatusRequestEntityTooLarge, fmt.Errorf("plane: batch of %d pairs exceeds the %d cap", count, maxBatchPairs)
	case bad != nil:
	default:
		if snap = s.cur.Load(); snap != nil {
			return snap, http.StatusOK, nil
		}
		code, err = http.StatusServiceUnavailable, ErrNoSnapshot
	}
	s.failed.Add(1)
	return nil, code, err
}

// newBatch takes a pooled scratch for an admitted batch of count pairs
// answered from snap. Set every slot with pair, then call answer, one
// encoder and done.
func (s *Server) newBatch(snap *Snapshot, mode byte, count int) *batch {
	b := batches.Get().(*batch)
	if cap(b.slots) < count {
		b.slots = make([]slot, count)
	}
	b.mode, b.slots, b.misses = mode, b.slots[:count], b.misses[:0]
	b.snap, b.st, b.srv = snap, snap.rows.stats.Load(), s
	b.t0 = s.m.start()
	return b
}

// pair sets slot i to src→dst, invalid when either id lies outside
// [0, n) — checked before the ids are narrowed to uint32.
func (b *batch) pair(i, src, dst int) {
	n := b.snap.N()
	sl := &b.slots[i]
	sl.invalid = src < 0 || src >= n || dst < 0 || dst >= n
	sl.src, sl.dst = uint32(src), uint32(dst)
}

// answer is passes 1 and 2 and the counter tallies: every slot holds
// its answer when it returns.
func (b *batch) answer() {
	rows := b.snap.rows
	var nFail int64
	fills := 0
	for i := range b.slots {
		sl := &b.slots[i]
		sl.path = sl.path[:0]
		src, dst := int(sl.src), int(sl.dst)
		switch {
		case sl.invalid:
			nFail++
			sl.via = -1
		case b.mode == BinModeOneHop:
			d := b.snap.OneHop(src, dst)
			sl.via, sl.cost = int32(d.Via), d.Cost
		case src == dst:
			sl.path, sl.cost = append(sl.path, int32(sl.src)), 0
		default:
			if e := rows.find(src, b.st); e != nil {
				sl.path, sl.cost = e.answer(src, dst, sl.path, true)
				continue
			}
			b.misses = append(b.misses, int32(i))
			if rows.buying(src) && rows.admits(src) {
				// A fill costs several searches: claimed first, it
				// overlaps them instead of starting after them.
				last := len(b.misses) - 1
				b.misses[fills], b.misses[last] = b.misses[last], b.misses[fills]
				fills++
			}
		}
	}

	b.runMisses()

	if b.mode == BinModeOneHop {
		b.srv.onehop.Add(int64(len(b.slots)) - nFail)
	} else {
		b.srv.routes.Add(int64(len(b.slots)) - nFail)
	}
	if nFail > 0 {
		b.srv.failed.Add(nFail)
	}
}

// done times the batch and hands its scratch back to the pool.
func (b *batch) done() {
	b.srv.m.batch(b.t0)
	b.snap, b.st, b.srv = nil, nil, nil
	batches.Put(b)
}

// appendBinary is pass 3 for the binary protocol: it appends the
// response payload to dst.
func (b *batch) appendBinary(dst []byte) []byte {
	dst = append(dst, binRespOK)
	dst = appendU64(dst, uint64(b.snap.epoch))
	dst = appendU32(dst, uint32(len(b.slots)))
	for i := range b.slots {
		sl := &b.slots[i]
		status, cost := BinOK, sl.cost
		if sl.invalid {
			status, cost = BinInvalidPair, -1
		} else if !(cost < graph.Inf) {
			status, cost = BinUnreachable, -1
		}
		dst = appendF64(append(dst, status), cost)
		if b.mode == BinModeOneHop {
			dst = appendU32(dst, uint32(sl.via))
			continue
		}
		dst = appendU32(dst, uint32(len(sl.path)))
		for _, v := range sl.path {
			dst = appendU32(dst, uint32(v))
		}
	}
	return dst
}

// jsonResults is pass 3 for the JSON protocol: one routeResult per
// slot, pairs being the ids as the request gave them. An unreachable
// or invalid pair costs -1 (+Inf has no JSON encoding); an invalid one
// carries the error Server.OneHop would return for it. Every via and
// path of the batch shares one backing array, sized up front.
func (b *batch) jsonResults(pairs [][2]int) []routeResult {
	size := 0
	for i := range b.slots {
		size += 1 + len(b.slots[i].path)
	}
	ints := make([]int, 0, size)
	out := make([]routeResult, len(b.slots))
	for i := range b.slots {
		sl, r := &b.slots[i], &out[i]
		*r = routeResult{Src: pairs[i][0], Dst: pairs[i][1], Mode: modeNames[b.mode], Cost: -1, Epoch: b.snap.epoch}
		if sl.invalid {
			r.Error = b.snap.checkPair(r.Src, r.Dst).Error()
			continue
		}
		if sl.cost < graph.Inf {
			r.Cost, r.Ok = sl.cost, true
		}
		at := len(ints)
		if b.mode == BinModeOneHop && sl.via >= 0 {
			ints = append(ints, int(sl.via))
			r.Via = &ints[at]
		}
		for _, v := range sl.path { // empty in one-hop mode
			ints = append(ints, int(v))
		}
		if len(sl.path) > 0 {
			r.Path = ints[at:]
		}
	}
	return out
}

// runMisses is pass 2: it returns once every collected miss has its
// answer in its slot.
func (b *batch) runMisses() {
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
func (b *batch) work() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.misses) {
			return
		}
		sl := &b.slots[b.misses[i]]
		sl.path, sl.cost = b.snap.rows.miss(int(sl.src), int(sl.dst), sl.path, true, b.st)
	}
}

// helper is one helper goroutine's body: work, then hand the helper
// back to the budget before the caller can reuse the scratch.
func (b *batch) helper() {
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
