package plane

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"egoist/internal/graph"
	"egoist/internal/underlay"
)

// FuzzBinaryBatch fuzzes the one decoder in this package that reads
// bytes off a raw socket: Server.AnswerBinary, the payload handler behind
// both ServeBinary and POST /routes.bin. Properties: arbitrary bytes
// never panic; a rejected request appends nothing; every accepted
// request's response parses with DecodeBatchResponse, carries one result
// per pair on the snapshot's epoch, and each result's status, cost, via
// and path equal what the JSON path (answerPair) answers for the same
// pair, in one-hop and in route mode. The snapshot has departed nodes
// and a 4-row cache, so unreachable pairs, invalid pairs, pair searches,
// fills and evictions all occur. Seeds are AppendBatchRequest outputs
// plus truncations and count/length corruption, and a route batch of
// cold misses that a repeated source's fill lands in the middle of.
//
// CI runs this as a short -fuzztime smoke step; run it longer locally
// with: go test ./internal/plane -run '^$' -fuzz FuzzBinaryBatch
func FuzzBinaryBatch(f *testing.F) {
	const n = 60
	active := make([]bool, n)
	for i := range active {
		active[i] = i%7 != 3
	}
	snap := Compile(5, randomWiring(n, 3, rand.New(rand.NewSource(21))), active, testNet(f, n), Options{RouteCacheRows: 4})
	srv := NewServer()
	srv.Publish(snap)

	for _, mode := range []byte{BinModeOneHop, BinModeRoute} {
		good := AppendBatchRequest(nil, mode, binPairs(n))
		f.Add(good)
		f.Add(good[:len(good)-3])                           // truncated pair
		f.Add(good[:5])                                     // header only, count says 6
		f.Add(append(append([]byte(nil), good...), 9))      // trailing byte
		f.Add(AppendBatchRequest(nil, mode, nil))           // empty batch
		f.Add(AppendBatchRequest(nil, mode+2, binPairs(n))) // unknown mode
		for _, count := range []uint32{5, 7, maxBatchPairs + 1, math.MaxUint32} {
			bad := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(bad[1:5], count)
			f.Add(bad)
		}
	}
	f.Add([]byte{})
	// A route batch of misses for pass 2 to spread: one cold source
	// asked eight times (its searches pass the fill threshold, so it is
	// filled part-way) beside three cold sources asked once.
	spread := []uint32{12, 40, 13, 41, 15, 44}
	for d := uint32(0); d < 8; d++ {
		spread = append(spread, 11, 20+d)
	}
	f.Add(AppendBatchRequest(nil, BinModeRoute, spread))

	f.Fuzz(func(t *testing.T, req []byte) {
		resp, err := srv.AnswerBinary(req, nil)
		if err != nil {
			if len(resp) != 0 {
				t.Fatalf("rejected request (%v) appended %d bytes", err, len(resp))
			}
			return
		}
		mode, jsonMode := req[0], "onehop"
		if mode == BinModeRoute {
			jsonMode = "route"
		}
		count := int(binary.LittleEndian.Uint32(req[1:5]))
		epoch, results, err := DecodeBatchResponse(resp, mode, nil)
		if err != nil {
			t.Fatalf("accepted request's response does not parse: %v", err)
		}
		if epoch != snap.Epoch() || len(results) != count {
			t.Fatalf("epoch %d with %d results, want epoch %d with %d", epoch, len(results), snap.Epoch(), count)
		}
		for i, got := range results {
			src := int(binary.LittleEndian.Uint32(req[5+8*i:]))
			dst := int(binary.LittleEndian.Uint32(req[9+8*i:]))
			want := srv.answerPair(snap, jsonMode, src, dst)
			status := BinOK
			switch {
			case want.Error != "":
				status = BinInvalidPair
			case !want.Ok:
				status = BinUnreachable
			}
			if got.Status != status || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("mode %d pair %d (%d,%d): status %d cost %v, JSON path says status %d cost %v",
					mode, i, src, dst, got.Status, got.Cost, status, want.Cost)
			}
			if mode == BinModeOneHop {
				via := -1
				if want.Via != nil {
					via = *want.Via
				}
				if int(got.Via) != via {
					t.Fatalf("pair %d (%d,%d): via %d, JSON path says %d", i, src, dst, got.Via, via)
				}
				continue
			}
			if len(got.Path) != len(want.Path) {
				t.Fatalf("pair %d (%d,%d): path %v, JSON path says %v", i, src, dst, got.Path, want.Path)
			}
			for p, v := range got.Path {
				if int(v) != want.Path[p] {
					t.Fatalf("pair %d (%d,%d): path %v, JSON path says %v", i, src, dst, got.Path, want.Path)
				}
			}
		}
	})
}

// FuzzRouteCacheAdmission fuzzes the row cache's policy — rent, buy,
// admission, eviction, halving — through its cap (1 + the first byte
// mod 8) and a query sequence (the remaining bytes, a source and a
// destination each, mod n) on a 40-node snapshot with departed nodes.
// The sequence is asked one query at a time through Server.AppendRoute,
// then again as one route batch on a fresh server and snapshot, with
// its misses spread over the caller and helpers. Properties: every
// answer is the source's DijkstraCSR row, cost bits and path; hits +
// misses + collapses is the lookups and pair searches + fills is the
// misses, one at a time and in the batch (where a later lookup of a
// source may join its fill as a collapse); one at a time the cache
// never holds more than cap rows (no row is in flight between
// queries), in the batch at most cap rows plus one in flight per
// worker. Seeds are Zipf-distributed sources whose hot set moves twice,
// so fills, refusals, evictions and halvings all occur.
//
// CI runs this as a short -fuzztime smoke step; run it longer locally
// with: go test ./internal/plane -run '^$' -fuzz FuzzRouteCacheAdmission
func FuzzRouteCacheAdmission(f *testing.F) {
	const n = 40
	active := make([]bool, n)
	for i := range active {
		active[i] = i%7 != 3
	}
	wiring := randomWiring(n, 3, rand.New(rand.NewSource(29)))
	net := testNet(f, n)
	compile := func(capRows int) *Snapshot {
		return Compile(1, wiring, active, net, Options{RouteCacheRows: capRows})
	}
	ref := compile(1)
	dist, parent := make([][]float64, n), make([][]int32, n)
	var ps graph.PairScratch
	for src := range dist {
		dist[src], parent[src] = make([]float64, n), make([]int32, n)
		ps.DijkstraCSR(ref.csr, src, dist[src], parent[src])
	}
	check := func(t *testing.T, src, dst int, path []int32, cost float64) {
		t.Helper()
		want := dist[src][dst]
		if src == dst {
			want = 0
		}
		if math.Float64bits(cost) != math.Float64bits(want) {
			t.Fatalf("(%d,%d): cost %v, DijkstraCSR row says %v", src, dst, cost, want)
		}
		if want == graph.Inf {
			return
		}
		wantPath := appendPath(nil, parent[src], src, dst)
		if len(path) != len(wantPath) {
			t.Fatalf("(%d,%d): path %v, DijkstraCSR row says %v", src, dst, path, wantPath)
		}
		for i := range path {
			if path[i] != wantPath[i] {
				t.Fatalf("(%d,%d): path %v, DijkstraCSR row says %v", src, dst, path, wantPath)
			}
		}
	}

	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, n-1)
		in := []byte{byte(seed)}
		var hot []int
		for q := 0; q < 600; q++ {
			if q%200 == 0 {
				hot = rng.Perm(n) // the hot set moves
			}
			in = append(in, byte(hot[zipf.Uint64()]), byte(rng.Intn(n)))
		}
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		capRows := 1 + int(in[0]%8)
		pairs := make([]uint32, 0, len(in)-1)
		for _, b := range in[1 : len(in)-(len(in)-1)%2] {
			pairs = append(pairs, uint32(b)%n)
		}

		srv := NewServer()
		srv.Publish(compile(capRows))
		var path []int32
		lookups := int64(0)
		for i := 0; i < len(pairs); i += 2 {
			src, dst := int(pairs[i]), int(pairs[i+1])
			var cost float64
			var err error
			path, cost, _, err = srv.AppendRoute(src, dst, path[:0])
			if err != nil {
				t.Fatal(err)
			}
			check(t, src, dst, path, cost)
			if src != dst {
				lookups++
			}
			st := srv.CacheStats()
			if st.Hits+st.Misses+st.Collapses != lookups || st.PairSearches+st.Fills != st.Misses {
				t.Fatalf("query %d: %+v after %d lookups", i/2, st, lookups)
			}
			if held := srv.Current().rows.size(); held > capRows {
				t.Fatalf("query %d: %d rows resident, cap %d", i/2, held, capRows)
			}
		}

		srv = NewServer()
		srv.Publish(compile(capRows))
		resp, err := srv.AnswerBinary(AppendBatchRequest(nil, BinModeRoute, pairs), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := DecodeBatchResponse(resp, BinModeRoute, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			cost := graph.Inf
			if r.Status == BinOK {
				cost = r.Cost
			}
			path = path[:0]
			for _, v := range r.Path {
				path = append(path, int32(v))
			}
			check(t, int(pairs[2*i]), int(pairs[2*i+1]), path, cost)
		}
		st := srv.CacheStats()
		if st.Hits+st.Misses+st.Collapses != lookups || st.PairSearches+st.Fills != st.Misses {
			t.Fatalf("batch: %+v after %d lookups", st, lookups)
		}
		if held, bound := srv.Current().rows.size(), capRows+runtime.GOMAXPROCS(0); held > bound {
			t.Fatalf("batch: %d rows resident, cap %d plus %d workers", held, capRows, bound-capRows)
		}
	})
}

// FuzzOneHopPruned is the exactness net of the bound-pruned one-hop
// decision: over fuzzed sizes, degrees, underlay and wiring seeds, with
// about one node in eight departed, Snapshot.OneHop must equal the
// unpruned oneHopReference bit for bit, in Via and in the cost's bits.
// Each neighbour the decision weighs is also put to the bound at
// thresholds built to tie: for best at the float64 sum w + Delay(v, dst)
// and up to two ulps either side, a proven DelayAtLeast(v, dst, best−w)
// must mean the sum is ≥ best — the skip the strict < would have made.
//
// CI runs this as a short -fuzztime smoke step; run it longer locally
// with: go test ./internal/plane -run '^$' -fuzz FuzzOneHopPruned
func FuzzOneHopPruned(f *testing.F) {
	f.Add(uint8(58), uint8(3), int64(11), int64(5))
	f.Add(uint8(198), uint8(7), int64(2009), int64(1))
	f.Add(uint8(0), uint8(0), int64(-3), int64(0))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, netSeed, wireSeed int64) {
		n := 2 + int(nRaw)
		k := 1 + int(kRaw)%min(n-1, 12)
		net, err := underlay.NewLite(n, netSeed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(wireSeed))
		wiring := randomWiring(n, k, rng)
		active := make([]bool, n)
		for u := range active {
			active[u] = rng.Intn(8) != 0
		}
		snap := Compile(0, wiring, active, net, Options{})
		for q := 0; q < 300; q++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			got, want := snap.OneHop(src, dst), oneHopReference(net, wiring, active, src, dst)
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || got.Via != want.Via {
				t.Fatalf("onehop %d->%d: pruned %+v, reference %+v", src, dst, got, want)
			}
			to, w := snap.csr.Out(src)
			for x, v := range to {
				sum := w[x] + net.Delay(int(v), dst)
				best := math.Nextafter(math.Nextafter(sum, math.Inf(-1)), math.Inf(-1))
				for step := 0; step < 5; step++ {
					if net.DelayAtLeast(int(v), dst, best-w[x]) && sum < best {
						t.Fatalf("neighbour %d of %d toward %d: sum %v < best %v, yet the bound skips it", v, src, dst, sum, best)
					}
					best = math.Nextafter(best, math.Inf(1))
				}
			}
		}
	})
}
