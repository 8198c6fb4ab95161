package plane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"egoist/internal/graph"
	"egoist/internal/underlay"
)

// FuzzBinaryBatch fuzzes the one decoder in this package that reads
// bytes off a raw socket: Server.AnswerBinary, the payload handler behind
// ServeBinary. Properties: arbitrary bytes never panic; a rejected
// request appends nothing and counts one failed query; every accepted
// request's response parses with DecodeBatchResponse, carries one result
// per pair on the snapshot's epoch, and each result equals what the
// snapshot answers for that pair alone — Snapshot.OneHop's via and cost
// bits in one-hop mode, Snapshot.RouteInto's cost bits and whole path in
// route mode. The snapshot has departed nodes and a 4-row cache, so
// unreachable pairs, invalid pairs, pair searches, fills and evictions
// all occur. Seeds are AppendBatchRequest outputs plus truncations and
// count/length corruption, and a route batch of cold misses that a
// repeated source's fill lands in the middle of.
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
		_, _, failed := srv.Stats()
		resp, err := srv.AnswerBinary(req, nil)
		if err != nil {
			if len(resp) != 0 {
				t.Fatalf("rejected request (%v) appended %d bytes", err, len(resp))
			}
			if _, _, now := srv.Stats(); now != failed+1 {
				t.Fatalf("rejected request (%v) counted %d failed, want 1", err, now-failed)
			}
			return
		}
		mode := req[0]
		count := int(binary.LittleEndian.Uint32(req[1:5]))
		epoch, results, err := DecodeBatchResponse(resp, mode, nil)
		if err != nil {
			t.Fatalf("accepted request's response does not parse: %v", err)
		}
		if epoch != snap.Epoch() || len(results) != count {
			t.Fatalf("epoch %d with %d results, want epoch %d with %d", epoch, len(results), snap.Epoch(), count)
		}
		for i, got := range results {
			src := binary.LittleEndian.Uint32(req[5+8*i:])
			dst := binary.LittleEndian.Uint32(req[9+8*i:])
			checkBinResult(t, snap, mode, src, dst, got)
		}
	})
}

// checkBinResult requires one binary result to be what snap answers
// for src→dst alone: status 2 and cost -1 for an id outside [0, n);
// else Snapshot.OneHop's via and cost bits (one-hop mode) or
// Snapshot.RouteInto's cost bits and whole path (route mode), with
// status 1 and cost -1 when unreachable.
func checkBinResult(t *testing.T, snap *Snapshot, mode byte, src, dst uint32, got BinResult) {
	t.Helper()
	if n := uint32(snap.N()); src >= n || dst >= n {
		if got.Status != BinInvalidPair || got.Cost != -1 || len(got.Path) != 0 || (mode == BinModeOneHop && got.Via != -1) {
			t.Fatalf("mode %d invalid pair (%d,%d) answered %+v", mode, src, dst, got)
		}
		return
	}
	var path []int32
	var cost float64
	via := int32(-1)
	if mode == BinModeOneHop {
		d := snap.OneHop(int(src), int(dst))
		cost, via = d.Cost, int32(d.Via)
	} else {
		path, cost, _ = snap.RouteInto(int(src), int(dst), nil)
	}
	status, wantCost := BinOK, cost
	if cost == graph.Inf {
		status, wantCost = BinUnreachable, -1
	}
	if got.Status != status || math.Float64bits(got.Cost) != math.Float64bits(wantCost) || (mode == BinModeOneHop && got.Via != via) {
		t.Fatalf("mode %d pair (%d,%d): status %d cost %v via %d, the snapshot says status %d cost %v via %d",
			mode, src, dst, got.Status, got.Cost, got.Via, status, wantCost, via)
	}
	if len(got.Path) != len(path) {
		t.Fatalf("pair (%d,%d): path %v, RouteInto says %v", src, dst, got.Path, path)
	}
	for p, v := range path {
		if got.Path[p] != uint32(v) {
			t.Fatalf("pair (%d,%d): path %v, RouteInto says %v", src, dst, got.Path, path)
		}
	}
}

// FuzzJSONBatch fuzzes the JSON batch decoder egoistd exposes
// publicly: arbitrary bodies POSTed to /routes through Server.Handler.
// Properties: no body panics; a refused body gets a 4xx status and
// counts exactly one failed query and no answer; every 200 response
// parses and has one result per pair of the body (decoded as the
// server decodes it, with json.Decoder), on the snapshot's epoch; an id
// that is negative or ≥ n is answered in-band (ok false, error set,
// cost -1) and counts one failed, every other pair one answer; and each
// in-range pair's result equals the binary protocol's answer for it —
// status, cost bits, via and path. The snapshot is FuzzBinaryBatch's:
// departed nodes and a 4-row cache.
//
// CI runs this as a short -fuzztime smoke step; run it longer locally
// with: go test ./internal/plane -run '^$' -fuzz FuzzJSONBatch
func FuzzJSONBatch(f *testing.F) {
	const n = 60
	active := make([]bool, n)
	for i := range active {
		active[i] = i%7 != 3
	}
	snap := Compile(5, randomWiring(n, 3, rand.New(rand.NewSource(21))), active, testNet(f, n), Options{RouteCacheRows: 4})
	srv := NewServer()
	srv.Publish(snap)
	h := srv.Handler()

	for _, seed := range []string{
		`{"mode":"route","pairs":[[0,5],[5,0],[7,7],[1,30],[3,10]]}`,
		`{"mode":"onehop","pairs":[[0,5],[1,999],[7,7],[-3,2],[1,30]]}`,
		`{"pairs":[[-4294967291,5],[4294967296,0],[0,60],[59,59]]}`,
		`{"mode":"route","pairs":[[11,20],[11,21],[12,40],[11,22],[11,23],[13,41],[11,24],[11,25]]}`,
		`{"mode":null,"pairs":null}`,
		`{"pairs":[[1,2,3],[4]]}`,
		`{"pairs":[[1,2]]} trailing`,
		`{"pairs":[[1.5,2]]}`,
		`{"mode":"warp","pairs":[[0,1]]}`,
		`{"mode":"route","pairs":[[0,1]`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		onehop0, routes0, failed0 := srv.Stats()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/routes", bytes.NewReader(body)))
		onehop1, routes1, failed1 := srv.Stats()
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("refused body answered %d", rec.Code)
			}
			if failed1 != failed0+1 || onehop1 != onehop0 || routes1 != routes0 {
				t.Fatalf("refused body (%d) counted %d failed and %d answers, want 1 and 0", rec.Code, failed1-failed0, onehop1+routes1-onehop0-routes0)
			}
			return
		}
		var req batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		mode := BinModeOneHop
		if req.Mode == "route" {
			mode = BinModeRoute
		}
		var resp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 response does not parse: %v", err)
		}
		if resp.Epoch != snap.Epoch() || len(resp.Results) != len(req.Pairs) {
			t.Fatalf("epoch %d with %d results, want epoch %d with %d", resp.Epoch, len(resp.Results), snap.Epoch(), len(req.Pairs))
		}
		var inRange []uint32
		var at []int
		for i, p := range req.Pairs {
			r := resp.Results[i]
			if r.Src != p[0] || r.Dst != p[1] || r.Mode != modeNames[mode] || r.Epoch != snap.Epoch() {
				t.Fatalf("pair %d %v answered as %+v", i, p, r)
			}
			if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
				if r.Ok || r.Error == "" || r.Cost != -1 || r.Via != nil || r.Path != nil {
					t.Fatalf("pair %d %v outside [0,%d) answered %+v, want in-band", i, p, n, r)
				}
				continue
			}
			inRange = append(inRange, uint32(p[0]), uint32(p[1]))
			at = append(at, i)
		}
		invalid := int64(len(req.Pairs) - len(at))
		if failed1-failed0 != invalid || onehop1+routes1-onehop0-routes0 != int64(len(at)) {
			t.Fatalf("%d pairs, %d invalid: counted %d failed and %d answers", len(req.Pairs), invalid, failed1-failed0, onehop1+routes1-onehop0-routes0)
		}
		bin, err := srv.AnswerBinary(AppendBatchRequest(nil, mode, inRange), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := DecodeBatchResponse(bin, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range at {
			checkJSONMatchesBin(t, mode, resp.Results[i], results[j])
		}
	})
}

// checkJSONMatchesBin requires a JSON result to carry what the binary
// protocol answered for the same pair: status (an error is status 2,
// ok false status 1), cost bits, via and path.
func checkJSONMatchesBin(t *testing.T, mode byte, r routeResult, b BinResult) {
	t.Helper()
	status := BinOK
	switch {
	case r.Error != "":
		status = BinInvalidPair
	case !r.Ok:
		status = BinUnreachable
	}
	via := -1
	if r.Via != nil {
		via = *r.Via
	}
	if b.Status != status || math.Float64bits(b.Cost) != math.Float64bits(r.Cost) || (mode == BinModeOneHop && int(b.Via) != via) {
		t.Fatalf("(%d,%d) mode %d: JSON says %+v, binary says %+v", r.Src, r.Dst, mode, r, b)
	}
	if len(b.Path) != len(r.Path) {
		t.Fatalf("(%d,%d): JSON path %v, binary path %v", r.Src, r.Dst, r.Path, b.Path)
	}
	for p, v := range r.Path {
		if int(b.Path[p]) != v {
			t.Fatalf("(%d,%d): JSON path %v, binary path %v", r.Src, r.Dst, r.Path, b.Path)
		}
	}
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
