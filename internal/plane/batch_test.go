package plane

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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
// lookup: hits + misses + collapses equals the route pairs. The JSON
// leg asks the same pairs as a POST /routes body: the same body at
// either width, every result the binary answer. The mixed leg answers
// two binary and two JSON copies of the batch at once on one server, at
// GOMAXPROCS 1 and 2: the batches share its one helper budget, every
// response is its protocol's width-1 bytes, and the running helpers
// never exceed GOMAXPROCS−1.
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

	// server publishes a fresh snapshot with source past at its fill
	// threshold.
	server := func() *Server {
		snap := fanOutSnapshot(t)
		snap.rows.spent[past].Store(uint32(snap.NumLive()))
		srv := NewServer()
		srv.Publish(snap)
		return srv
	}
	var body strings.Builder
	body.WriteString(`{"mode":"route","pairs":[`)
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "[%d,%d]", pairs[i], pairs[i+1])
	}
	body.WriteString("]}")
	// askBin and askJSON send the batch over either protocol.
	askBin := func(srv *Server) []byte {
		resp, err := srv.AnswerBinary(req, nil)
		if err != nil {
			t.Error(err)
		}
		return resp
	}
	askJSON := func(srv *Server) []byte {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/routes", strings.NewReader(body.String())))
		if rec.Code != http.StatusOK {
			t.Errorf("POST /routes: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	// answer asks the batch once on a fresh server at width and checks
	// its counters.
	answer := func(width int, ask func(*Server) []byte) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		srv := server()
		got := ask(srv)
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
		return got
	}
	one, two := answer(1, askBin), answer(2, askBin)
	if !bytes.Equal(one, two) {
		t.Fatalf("responses differ between GOMAXPROCS 1 and 2 (%d vs %d bytes)", len(one), len(two))
	}
	jsonOne, jsonTwo := answer(1, askJSON), answer(2, askJSON)
	if !bytes.Equal(jsonOne, jsonTwo) {
		t.Fatalf("JSON bodies differ between GOMAXPROCS 1 and 2:\n%s\n%s", jsonOne, jsonTwo)
	}
	var resp batchResponse
	if err := json.Unmarshal(jsonOne, &resp); err != nil {
		t.Fatal(err)
	}
	_, binResults, err := DecodeBatchResponse(one, BinModeRoute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(binResults) {
		t.Fatalf("%d JSON results for %d binary ones", len(resp.Results), len(binResults))
	}
	for i := range binResults {
		checkJSONMatchesBin(t, BinModeRoute, resp.Results[i], binResults[i])
	}

	// The mixed leg, while a watcher samples the running helpers.
	for _, width := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
			srv := server()
			stop, most := make(chan struct{}), make(chan int32)
			go func() {
				m := int32(0)
				for {
					select {
					case <-stop:
						most <- m
						return
					default:
						m = max(m, srv.helpers.Load())
						runtime.Gosched()
					}
				}
			}()
			asks, wants := []func(*Server) []byte{askBin, askJSON, askBin, askJSON}, [][]byte{one, jsonOne, one, jsonOne}
			resps := make([][]byte, len(asks))
			var wg sync.WaitGroup
			for g := range asks {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					resps[g] = asks[g](srv)
				}(g)
			}
			wg.Wait()
			close(stop)
			if m := <-most; int(m) > width-1 {
				t.Fatalf("width %d: %d helpers ran at once", width, m)
			}
			for g, got := range resps {
				if !bytes.Equal(got, wants[g]) {
					t.Fatalf("width %d, concurrent batch %d: not its protocol's width-1 bytes", width, g)
				}
			}
			if _, routes, failed := srv.Stats(); routes != 4*routePairs || failed != 4*invalid {
				t.Fatalf("width %d, mixed: %d routes and %d failed, want %d and %d", width, routes, failed, 4*routePairs, 4*invalid)
			}
			if h := srv.helpers.Load(); h != 0 {
				t.Fatalf("width %d: %d helpers still taken from the budget after every batch returned", width, h)
			}
		}()
	}

	ref := fanOutSnapshot(t)
	_, results, err := DecodeBatchResponse(two, BinModeRoute, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		checkBinResult(t, ref, BinModeRoute, pairs[2*i], pairs[2*i+1], res)
	}
	if results[5].Status != BinUnreachable || results[6].Status != BinUnreachable {
		t.Fatal("the departed node's pairs were not unreachable")
	}
}

// TestBatchRefusalsCountOnce pins the one rejection rule of
// admitBatch on both protocols: a batch refused whole — it does not
// decode, names an unknown mode, is over a cap, or comes before the
// first Publish — counts exactly one failed query and no answer. The
// JSON face answers it with its HTTP status; AnswerBinary returns an
// error, or the in-band error payload when nothing is published; a
// TCP frame over the byte cap ends the connection unanswered. An
// accepted batch answers every pair and counts each invalid one as one
// failed (a GET /route of an invalid pair is such a batch of one).
func TestBatchRefusalsCountOnce(t *testing.T) {
	srv, snap := testServer(t, 40, 3)
	empty := NewServer()
	n := uint32(snap.N())
	overJSON := `{"pairs":[` + strings.Repeat("[0,1],", maxBatchPairs) + `[0,1]]}`
	bigFrame := binary.LittleEndian.AppendUint32(nil, maxBatchBytes+1)
	for _, c := range []struct {
		name     string
		srv      *Server
		post     string // a POST /routes body,
		get      string // a GET /route query,
		bin      []byte // an AnswerBinary payload
		frame    []byte // or bytes on a TCP connection
		code     int    // JSON status
		failed   int64
		answered int64
	}{
		{name: "json: not JSON", post: `not json`, code: 400, failed: 1},
		{name: "json: truncated", post: `{"mode":"route","pairs":[[1,2]`, code: 400, failed: 1},
		{name: "json: id not an integer", post: `{"pairs":[[1.5,2]]}`, code: 400, failed: 1},
		{name: "json: over the byte cap", post: `{"pairs":[` + strings.Repeat(" ", maxBatchBytes) + `]}`, code: 400, failed: 1},
		{name: "json: over the pair cap", post: overJSON, code: 413, failed: 1},
		{name: "json: unknown mode", post: `{"mode":"warp","pairs":[[0,1]]}`, code: 400, failed: 1},
		{name: "json: no snapshot", srv: empty, post: `{"pairs":[[0,1]]}`, code: 503, failed: 1},
		{name: "json: invalid pairs in-band", post: `{"pairs":[[0,5],[1,999],[-3,2]]}`, code: 200, failed: 2, answered: 1},
		{name: "get: bad src", get: "src=x&dst=1", code: 400, failed: 1},
		{name: "get: unknown mode", get: "src=1&dst=2&mode=warp", code: 400, failed: 1},
		{name: "get: no snapshot", srv: empty, get: "src=0&dst=1", code: 503, failed: 1},
		{name: "get: invalid pair", get: "src=1&dst=999", code: 400, failed: 1},
		{name: "get: answered", get: "src=1&dst=9&mode=route", code: 200, answered: 1},
		{name: "bin: shorter than the header", bin: []byte{9, 9}, failed: 1},
		{name: "bin: unknown mode", bin: []byte{9, 0, 0, 0, 0}, failed: 1},
		{name: "bin: over the pair cap", bin: AppendBatchRequest(nil, BinModeRoute, make([]uint32, 2*(maxBatchPairs+1))), failed: 1},
		{name: "bin: length mismatch", bin: []byte{0, 2, 0, 0, 0}, failed: 1},
		{name: "bin: no snapshot", srv: empty, bin: AppendBatchRequest(nil, BinModeOneHop, []uint32{0, 1}), failed: 1},
		{name: "bin: invalid pairs in-band", bin: AppendBatchRequest(nil, BinModeRoute, []uint32{0, 5, n, 1, 2, n + 7}), failed: 2, answered: 1},
		{name: "tcp: frame over the byte cap", frame: bigFrame, failed: 1},
	} {
		s := c.srv
		if s == nil {
			s = srv
		}
		onehop0, routes0, failed0 := s.Stats()
		switch {
		case c.post != "" || c.get != "":
			rec := httptest.NewRecorder()
			hr := httptest.NewRequest(http.MethodPost, "/routes", strings.NewReader(c.post))
			if c.get != "" {
				hr = httptest.NewRequest(http.MethodGet, "/route?"+c.get, nil)
			}
			s.Handler().ServeHTTP(rec, hr)
			if rec.Code != c.code {
				t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body)
			}
		case c.bin != nil:
			out, err := s.AnswerBinary(c.bin, nil)
			if err == nil {
				_, _, err = DecodeBatchResponse(out, c.bin[0], nil)
			}
			if refused := c.answered == 0; (err != nil) != refused {
				t.Errorf("%s: answered with %v, want refused = %v", c.name, err, refused)
			}
		default:
			if _, out, ok := s.answerFrame(bufio.NewReader(bytes.NewReader(c.frame)), nil, nil); ok || len(out) != 0 {
				t.Errorf("%s: ok = %v with %d bytes, want the connection ended unanswered", c.name, ok, len(out))
			}
		}
		onehop1, routes1, failed1 := s.Stats()
		if failed1-failed0 != c.failed || onehop1+routes1-onehop0-routes0 != c.answered {
			t.Errorf("%s: counted %d failed and %d answers, want %d and %d", c.name, failed1-failed0, onehop1+routes1-onehop0-routes0, c.failed, c.answered)
		}
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
