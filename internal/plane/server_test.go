package plane

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func testServer(t *testing.T, n, k int) (*Server, *Snapshot) {
	t.Helper()
	net := testNet(t, n)
	wiring := randomWiring(n, k, rand.New(rand.NewSource(21)))
	snap := Compile(0, wiring, nil, net, Options{})
	srv := NewServer()
	srv.Publish(snap)
	return srv, snap
}

// TestServerNoSnapshot: queries before the first publish fail loudly
// (and are counted), never panic.
func TestServerNoSnapshot(t *testing.T) {
	srv := NewServer()
	if _, _, err := srv.OneHop(0, 1); err != ErrNoSnapshot {
		t.Fatalf("err = %v", err)
	}
	if _, _, _, err := srv.AppendRoute(0, 1, nil); err != ErrNoSnapshot {
		t.Fatalf("err = %v", err)
	}
	if _, _, failed := srv.Stats(); failed != 2 {
		t.Fatalf("failed counter = %d", failed)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/route?src=0&dst=1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d", rec.Code)
	}
}

// TestServerAnswersMatchSnapshot: the serving layer is a pass-through
// to the published snapshot, with epochs reported.
func TestServerAnswersMatchSnapshot(t *testing.T) {
	srv, snap := testServer(t, 40, 3)
	d, epoch, err := srv.OneHop(2, 9)
	if err != nil || epoch != 0 {
		t.Fatalf("onehop: %v epoch %d", err, epoch)
	}
	if want := snap.OneHop(2, 9); d != want {
		t.Fatalf("decision %+v, want %+v", d, want)
	}
	path, cost, ok, err := srv.AppendRoute(2, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wr, wok := snap.Route(2, 9); ok != wok || len(path) != len(wr.Path) || (ok && cost != wr.Cost) {
		t.Fatalf("route %v cost %v ok %v, want %+v/%v", path, cost, ok, wr, wok)
	}
	if _, _, err := srv.OneHop(-1, 5); err == nil {
		t.Fatal("bad id accepted")
	}
	onehop, routes, failed := srv.Stats()
	if onehop != 1 || routes != 1 || failed != 1 {
		t.Fatalf("stats %d/%d/%d", onehop, routes, failed)
	}
}

// TestServerHTTPRoute drives GET /route in both modes.
func TestServerHTTPRoute(t *testing.T) {
	srv, snap := testServer(t, 40, 3)
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/route?src=3&dst=17", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var res routeResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	want := snap.OneHop(3, 17)
	if res.Mode != "onehop" || res.Cost != want.Cost || !res.Ok || res.Epoch != 0 {
		t.Fatalf("result %+v, want cost %v", res, want.Cost)
	}
	if (res.Via == nil) != (want.Via < 0) {
		t.Fatalf("via %v, want %d", res.Via, want.Via)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/route?src=3&dst=17&mode=route", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	wr, wok := snap.Route(3, 17)
	if res.Ok != wok || res.Cost != wr.Cost || len(res.Path) != len(wr.Path) {
		t.Fatalf("route result %+v, want %+v", res, wr)
	}

	for _, bad := range []string{"/route?src=x&dst=1", "/route?src=1", "/route?src=3abc&dst=5", "/route?src=1&dst=999", "/route?src=1&dst=2&mode=warp"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d", bad, rec.Code)
		}
	}
}

// TestServerHTTPBatch drives POST /routes: every pair answered from one
// epoch.
func TestServerHTTPBatch(t *testing.T) {
	srv, snap := testServer(t, 40, 3)
	h := srv.Handler()
	body := `{"mode":"route","pairs":[[0,5],[5,0],[7,7],[1,30]]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/routes", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 0 || len(resp.Results) != 4 {
		t.Fatalf("batch %+v", resp)
	}
	for _, res := range resp.Results {
		wr, wok := snap.Route(res.Src, res.Dst)
		if res.Ok != wok || res.Cost != wr.Cost {
			t.Fatalf("batch %d->%d: %+v want %+v", res.Src, res.Dst, res, wr)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/routes", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /routes: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/routes", strings.NewReader("not json")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", rec.Code)
	}
}

// TestServerHTTPSnapshotInfo reads /snapshot metadata.
func TestServerHTTPSnapshotInfo(t *testing.T) {
	srv, snap := testServer(t, 40, 3)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var info map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info["published"] != true || int(info["nodes"].(float64)) != snap.N() || int(info["arcs"].(float64)) != snap.NumArcs() {
		t.Fatalf("info %+v", info)
	}
}

// TestServerSwapUnderLoad is the RCU contract under the race detector:
// continuous publishes of fresh epochs race a storm of readers; every
// one-hop answer must come from a consistent snapshot (a positive cost
// — never torn state), routes must answer without error, and epochs
// must only move forward within a reader's sequence of queries:
// publication order is the single writer's program order.
func TestServerSwapUnderLoad(t *testing.T) {
	const n, k, epochs = 60, 3, 30
	net := testNet(t, n)
	srv := NewServer()
	srv.Publish(Compile(0, randomWiring(n, k, rand.New(rand.NewSource(100))), nil, net, Options{}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lastEpoch := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				src, dst := rng.Intn(n), rng.Intn(n)
				d, epoch, err := srv.OneHop(src, dst)
				if err != nil {
					t.Errorf("onehop: %v", err)
					return
				}
				if epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", epoch, lastEpoch)
					return
				}
				lastEpoch = epoch
				if src != dst && d.Cost <= 0 {
					t.Errorf("degenerate decision %+v", d)
					return
				}
				if _, _, _, err := srv.AppendRoute(src, dst, nil); err != nil {
					t.Errorf("route: %v", err)
					return
				}
			}
		}(int64(w))
	}
	for e := 1; e <= epochs; e++ {
		srv.Publish(Compile(int64(e), randomWiring(n, k, rand.New(rand.NewSource(int64(100+e)))), nil, net, Options{}))
	}
	close(stop)
	wg.Wait()
}

// TestServerShardedSwapUnderLoad races publishes against readers that
// each reuse one path buffer across AppendRoute calls. (The name dates
// from per-core shard handles; one serving state remains.) Every route
// must run src→dst at a positive cost whichever epoch answered it — a
// reused buffer must never leak a previous answer's hops.
func TestServerShardedSwapUnderLoad(t *testing.T) {
	const n, k, epochs, readers = 60, 3, 20, 4
	net := testNet(t, n)
	srv := NewServer()
	srv.Publish(Compile(0, randomWiring(n, k, rand.New(rand.NewSource(100))), nil, net, Options{}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				src, dst := rng.Intn(n), rng.Intn(n)
				path, cost, ok, err := srv.AppendRoute(src, dst, buf)
				if err != nil {
					t.Errorf("append route: %v", err)
					return
				}
				if ok && (int(path[0]) != src || int(path[len(path)-1]) != dst) {
					t.Errorf("path %v does not run %d->%d", path, src, dst)
					return
				}
				if ok && src != dst && cost <= 0 {
					t.Errorf("degenerate route cost %v", cost)
					return
				}
				buf = path[:0]
			}
		}(int64(w))
	}
	for e := 1; e <= epochs; e++ {
		srv.Publish(Compile(int64(e), randomWiring(n, k, rand.New(rand.NewSource(int64(100+e)))), nil, net, Options{}))
	}
	close(stop)
	wg.Wait()
}

// TestServerBatchInvalidPairsInBand pins the ISSUE 9 counter bugfix:
// one bad pair must not abort a batch — it is answered in its slot with
// ok=false and an error, while the valid pairs around it are delivered
// and tallied. A tallied onehop/routes query is a delivered result.
func TestServerBatchInvalidPairsInBand(t *testing.T) {
	srv, snap := testServer(t, 40, 3)
	h := srv.Handler()
	body := `{"mode":"onehop","pairs":[[0,5],[1,999],[7,7],[-3,2],[1,30]]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/routes", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("%d results, want all 5 pairs answered", len(resp.Results))
	}
	for i, res := range resp.Results {
		invalid := i == 1 || i == 3
		if invalid {
			if res.Ok || res.Error == "" || res.Cost != -1 {
				t.Fatalf("invalid pair %d answered %+v, want ok=false + error + cost -1", i, res)
			}
			continue
		}
		if res.Error != "" {
			t.Fatalf("valid pair %d carries error %q", i, res.Error)
		}
		if want := snap.OneHop(res.Src, res.Dst); res.Cost != want.Cost {
			t.Fatalf("valid pair %d cost %v, want %v", i, res.Cost, want.Cost)
		}
	}
	// Counter contract: 3 delivered one-hop answers, 2 failed pairs.
	onehop, routes, failed := srv.Stats()
	if onehop != 3 || routes != 0 || failed != 2 {
		t.Fatalf("Stats() = (%d, %d, %d), want (3, 0, 2)", onehop, routes, failed)
	}

	// An unknown batch mode is still a whole-request 400 (there is
	// nothing per-pair to answer).
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/routes", strings.NewReader(`{"mode":"warp","pairs":[[0,1]]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %d", rec.Code)
	}
}

// TestWriteJSONEncodesBeforeWriting pins the writeJSON bugfix: an
// unencodable value must produce a clean 500, not a 200 header followed
// by a truncated body.
func TestWriteJSONEncodesBeforeWriting(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]interface{}{"oops": func() {}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value answered %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatal("error response still claims application/json")
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"n": 1})
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"n\":1}\n" {
		t.Fatalf("good value answered %d %q", rec.Code, rec.Body.String())
	}
}
