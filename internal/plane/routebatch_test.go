package plane

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// fanOutSnapshot compiles the fan-out test's snapshot: every seventh
// node departed, and the rows of sources 1 and 2 resident (filled
// before any server counts them).
func fanOutSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	const n = 160
	active := make([]bool, n)
	for i := range active {
		active[i] = i%7 != 3
	}
	snap := Compile(3, randomWiring(n, 3, rand.New(rand.NewSource(47))), active, testNet(t, n), Options{})
	snap.rows.get(1)
	snap.rows.get(2)
	return snap
}

// TestBinaryRouteBatchFanOut: a route batch answered at GOMAXPROCS 1
// (every miss in turn on the caller) and at GOMAXPROCS 2 (misses spread
// over the caller and a helper) gives byte-identical responses, and
// every pair equals Snapshot.RouteInto on a fresh snapshot. The batch
// mixes invalid pairs, src == dst, a departed node on either side,
// resident rows, cold sources, a source past its fill threshold and
// one cold source named three times. Each answered route pair is one
// lookup: hits + misses + collapses equals the route pairs. Four copies
// of the batch answered at once on one server, at GOMAXPROCS 2, give
// the same bytes too.
func TestBinaryRouteBatchFanOut(t *testing.T) {
	const past, repeated = 40, 50 // past: over its fill threshold
	n := uint32(fanOutSnapshot(t).N())
	pairs := []uint32{
		1, 90, // resident
		n + 4, 5, // invalid src
		7, 7, // src == dst
		past, 11,
		repeated, 60,
		8, 3, // departed destination
		3, 8, // departed source
		2, 100, // resident
		repeated, 61,
		12, n, // invalid dst
		21, 140,
		22, 141,
		repeated, 62,
		23, 142,
		25, 144,
		1, 151, // resident
	}
	const invalid = 2
	routePairs := int64(len(pairs)/2 - invalid)
	req := AppendBatchRequest(nil, BinModeRoute, pairs)

	answer := func(width int) ([]byte, CacheStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		snap := fanOutSnapshot(t)
		snap.rows.spent[past].Store(uint32(snap.NumLive()))
		srv := NewServer()
		srv.Publish(snap)
		resp, err := srv.AnswerBinary(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, routes, failed := srv.Stats(); routes != routePairs || failed != invalid {
			t.Fatalf("width %d: %d routes and %d failed, want %d and %d", width, routes, failed, routePairs, invalid)
		}
		st := srv.CacheStats()
		if st.Hits+st.Misses+st.Collapses != routePairs-1 { // less the src == dst pair
			t.Fatalf("width %d: %+v counts %d lookups, want %d", width, st, st.Hits+st.Misses+st.Collapses, routePairs-1)
		}
		if st.Fills == 0 {
			t.Fatalf("width %d: no fill, though source %d is past its threshold", width, past)
		}
		return resp, st
	}
	one, st1 := answer(1)
	two, st2 := answer(2)
	if !bytes.Equal(one, two) {
		t.Fatalf("responses differ between GOMAXPROCS 1 and 2 (%d vs %d bytes)", len(one), len(two))
	}
	t.Logf("width 1: %+v; width 2: %+v", st1, st2)

	// Four batches at once on one server share its one helper budget:
	// a batch that finds no helper free answers its misses alone, and
	// every response is still the same bytes.
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		snap := fanOutSnapshot(t)
		snap.rows.spent[past].Store(uint32(snap.NumLive()))
		srv := NewServer()
		srv.Publish(snap)
		resps, errs := make([][]byte, 4), make([]error, 4)
		var wg sync.WaitGroup
		for g := range resps {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				resps[g], errs[g] = srv.AnswerBinary(req, nil)
			}(g)
		}
		wg.Wait()
		for g, resp := range resps {
			if errs[g] != nil || !bytes.Equal(resp, one) {
				t.Fatalf("concurrent batch %d: %v, or not the width-1 bytes", g, errs[g])
			}
		}
		if h := srv.helpers.Load(); h != 0 {
			t.Fatalf("%d helpers still taken from the budget after every batch returned", h)
		}
	}()

	ref := fanOutSnapshot(t)
	_, results, err := DecodeBatchResponse(two, BinModeRoute, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		src, dst := int(pairs[2*i]), int(pairs[2*i+1])
		if src >= int(n) || dst >= int(n) {
			if res.Status != BinInvalidPair || res.Cost != -1 || len(res.Path) != 0 {
				t.Fatalf("pair %d (%d,%d): invalid pair answered %+v", i, src, dst, res)
			}
			continue
		}
		path, cost, ok := ref.RouteInto(src, dst, nil)
		status, wantCost := BinOK, cost
		if !ok {
			status, wantCost = BinUnreachable, -1
		}
		if res.Status != status || math.Float64bits(res.Cost) != math.Float64bits(wantCost) || len(res.Path) != len(path) {
			t.Fatalf("pair %d (%d,%d): %+v, RouteInto says ok=%v cost=%v path=%v", i, src, dst, res, ok, cost, path)
		}
		for p, v := range path {
			if res.Path[p] != uint32(v) {
				t.Fatalf("pair %d (%d,%d): path %v, RouteInto says %v", i, src, dst, res.Path, path)
			}
		}
	}
	if results[5].Status != BinUnreachable || results[6].Status != BinUnreachable {
		t.Fatal("the departed node's pairs were not unreachable")
	}
}

// BenchmarkAnswerBinaryRoute times one 16-pair route batch on a
// 2,500-node snapshot, k = 8: every source resident (warm), every
// source cold and answered by a pair search (cold-search), and every
// source cold and past its fill threshold, so each miss fills its row
// (cold-fill). Run it at -cpu 1,2 to see pass 2 spread the misses.
func BenchmarkAnswerBinaryRoute(b *testing.B) {
	const n, k, batch = 2500, 8, 16
	wiring := randomWiring(n, k, rand.New(rand.NewSource(5)))
	net := testNet(b, n)
	rng := rand.New(rand.NewSource(9))
	dsts := make([]uint32, n)
	for i := range dsts {
		dsts[i] = uint32(rng.Intn(n))
	}
	// request builds the batch of the 16 sources from first on.
	pairs := make([]uint32, 0, 2*batch)
	request := func(req []byte, first int) []byte {
		pairs = pairs[:0]
		for s := first; s < first+batch; s++ {
			pairs = append(pairs, uint32(s%n), dsts[s%n])
		}
		return AppendBatchRequest(req[:0], BinModeRoute, pairs)
	}
	// run answers one batch per iteration, from source first(i) on,
	// after before has set the cache up for it.
	run := func(b *testing.B, first func(i int) int, before func(snap *Snapshot, first int)) {
		srv := NewServer()
		snap := Compile(0, wiring, nil, net, Options{RouteCacheRows: batch})
		srv.Publish(snap)
		var req, resp []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := first(i)
			before(snap, f)
			req = request(req, f)
			out, err := srv.AnswerBinary(req, resp[:0])
			if err != nil {
				b.Fatal(err)
			}
			resp = out
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pair")
	}
	rotate := func(i int) int { return (i * batch) % n }
	b.Run("warm", func(b *testing.B) {
		run(b, func(int) int { return 0 }, func(snap *Snapshot, first int) {
			if snap.rows.size() < batch { // the first iteration fills them
				for s := first; s < first+batch; s++ {
					snap.rows.get(s)
				}
			}
		})
	})
	b.Run("cold-search", func(b *testing.B) {
		run(b, rotate, func(snap *Snapshot, first int) {
			if first < batch { // every source renting afresh
				for s := range snap.rows.spent {
					snap.rows.spent[s].Store(0)
				}
			}
		})
	})
	b.Run("cold-fill", func(b *testing.B) {
		run(b, rotate, func(snap *Snapshot, first int) {
			for s := first; s < first+batch; s++ {
				snap.rows.spent[s%n].Store(uint32(snap.NumLive()))
			}
		})
	})
}
