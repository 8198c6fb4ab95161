package plane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"egoist/internal/graph"
)

// ErrNoSnapshot is returned for queries issued before the control plane
// has published anything.
var ErrNoSnapshot = errors.New("plane: no snapshot published yet")

// Batch limits of POST /routes and the binary batch protocol
// (admitBatch holds every batch to maxBatchPairs).
const (
	maxBatchPairs = 10000
	maxBatchBytes = 1 << 20 // comfortably holds maxBatchPairs of JSON pairs
)

// Server is the query-serving layer: one atomic snapshot pointer, the
// query counters and the metrics hooks. Publish swaps the pointer
// (RCU-style): queries in flight finish on the snapshot they started
// with, a batch loads the pointer once and answers every pair from that
// epoch, and old snapshots are garbage once their readers drain. The
// published snapshot itself serves, so its row cache is the one a later
// Patch carries rows from. One Server is safe for any number of
// concurrent Publish-ers and query-ers, though the engines publish from
// a single goroutine.
type Server struct {
	cur        atomic.Pointer[Snapshot]
	onehop     atomic.Int64
	routes     atomic.Int64
	failed     atomic.Int64
	binRefused atomic.Int64   // binary connections closed over the cap
	binWrites  atomic.Int64   // binary TCP response writes
	bin        binTracker     // binary listeners and connections, for ShutdownBinary
	helpers    atomic.Int32   // route-batch helper goroutines running
	m          *serverMetrics // nil until EnableMetrics
	mu         sync.Mutex     // serializes Publish bookkeeping
	pubTime    atomic.Int64   // UnixNano of the last Publish (0 = never)
	cstats     cacheStats     // row-cache counters, threaded through every publish
	counts     *lookupCounts  // per-source lookup counts, threaded likewise (under mu)
}

// NewServer returns a Server with no snapshot published.
func NewServer() *Server { return new(Server) }

// Shard is what the benchmark module's probes still call a serving
// handle: the Server itself. It and Server.Shard go with the benchmark
// revision that stops passing egoist-route -cores 1.
type Shard = *Server

// Shard returns s.
func (s *Server) Shard(int) Shard { return s }

// Publish installs snap as the serving snapshot. Nothing is computed
// here: rows a Patch carried over keep serving, and a source whose row
// a change crossed is answered by pair searches until it has earned the
// row back. The row cache's counters and lookup counts carry over from
// the previous snapshot (the counts start afresh when the node count
// changes).
func (s *Server) Publish(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()
	snap.rows.setStats(&s.cstats)
	if s.counts == nil || len(*s.counts) != snap.N() {
		lc := make(lookupCounts, snap.N())
		s.counts = &lc
	}
	snap.rows.counts.Store(s.counts)
	s.cur.Store(snap)
	s.pubTime.Store(time.Now().UnixNano())
	if s.m != nil {
		s.m.publishNs.Observe(time.Since(t0).Nanoseconds())
	}
}

// Current returns the serving snapshot, or nil before the first
// Publish. It stays valid (immutable) even after later publishes — and
// it is the snapshot to Patch when chaining delta publications.
func (s *Server) Current() *Snapshot { return s.cur.Load() }

// Stats reports the served-query counters; failed counts queries with
// no published snapshot or invalid node ids, and batches refused whole
// (admitBatch), one each. The counter contract: a tallied onehop/routes
// query is a delivered result — queries rejected before an answer only
// ever increment failed.
func (s *Server) Stats() (onehop, routes, failed int64) {
	return s.onehop.Load(), s.routes.Load(), s.failed.Load()
}

// admit is every single-query path's preamble: it loads the serving
// snapshot and validates src and dst against it, counting a rejected
// query as failed. epoch is the snapshot's, or -1 before the first
// Publish.
func (s *Server) admit(src, dst int) (snap *Snapshot, epoch int64, err error) {
	snap = s.cur.Load()
	if snap == nil {
		s.failed.Add(1)
		return nil, -1, ErrNoSnapshot
	}
	if err := snap.checkPair(src, dst); err != nil {
		s.failed.Add(1)
		return nil, snap.epoch, err
	}
	return snap, snap.epoch, nil
}

// OneHop answers one O(k) source-routing query from the current
// snapshot — zero allocations end-to-end (gated by
// TestServeHotPathsZeroAlloc).
func (s *Server) OneHop(src, dst int) (Decision, int64, error) {
	snap, epoch, err := s.admit(src, dst)
	if err != nil {
		return Decision{}, epoch, err
	}
	t0 := s.m.startNth(s.onehop.Add(1))
	d := snap.OneHop(src, dst)
	s.m.onehop(t0)
	return d, epoch, nil
}

// RouteCost answers one shortest-path cost query (+Inf when
// unreachable), skipping path reconstruction — zero allocations whether
// a row or a pair search answers.
func (s *Server) RouteCost(src, dst int) (float64, int64, error) {
	snap, epoch, err := s.admit(src, dst)
	if err != nil {
		return graph.Inf, epoch, err
	}
	t0 := s.m.startNth(s.routes.Add(1))
	c := snap.RouteCost(src, dst)
	s.m.route(t0)
	return c, epoch, nil
}

// AppendRoute answers one full shortest-path query, appending the path
// to buf (pass the previous call's path[:0] to reuse storage) — the
// zero-allocation serving path. ok=false means unreachable (cost +Inf,
// empty path).
func (s *Server) AppendRoute(src, dst int, buf []int32) (path []int32, cost float64, ok bool, err error) {
	snap, _, err := s.admit(src, dst)
	if err != nil {
		return buf[:0], graph.Inf, false, err
	}
	t0 := s.m.startNth(s.routes.Add(1))
	path, cost, ok = snap.RouteInto(src, dst, buf)
	s.m.route(t0)
	return path, cost, ok, nil
}

// routeResult is the JSON shape of one answered query.
type routeResult struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Mode string  `json:"mode"`
	Via  *int    `json:"via,omitempty"`  // one-hop relay (absent = direct)
	Path []int   `json:"path,omitempty"` // route mode
	Cost float64 `json:"cost"`
	Ok   bool    `json:"ok"` // false: unreachable this epoch, or Error set
	// Error reports an invalid pair answered in-band (batch queries
	// keep their slot instead of aborting the whole batch).
	Error string `json:"error,omitempty"`
	Epoch int64  `json:"epoch"`
}

// batchRequest is the JSON body of POST /routes.
type batchRequest struct {
	Mode  string   `json:"mode"` // "onehop" (default) or "route"
	Pairs [][2]int `json:"pairs"`
}

// batchResponse is the JSON reply of POST /routes: every pair answered
// from one consistent snapshot.
type batchResponse struct {
	Epoch   int64         `json:"epoch"`
	Results []routeResult `json:"results"`
}

// Handler returns the HTTP JSON face of the server:
//
//	GET  /route?src=I&dst=J[&mode=onehop|route]  one query
//	POST /routes {"mode":"onehop","pairs":[[i,j],...]}  batch, one epoch
//	GET  /snapshot  serving-snapshot metadata and query counters
//
// Both query endpoints answer through the batch pipeline (batch.go),
// /route as a batch of one; the binary protocol (binary.go) is served
// on its own TCP listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", s.handleRoute)
	mux.HandleFunc("/routes", s.handleBatch)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	return mux
}

// modeNames are the batch modes' JSON names, indexed by mode byte.
var modeNames = [...]string{BinModeOneHop: "onehop", BinModeRoute: "route"}

// jsonMode maps a JSON mode name ("" is onehop) to its mode byte.
func jsonMode(name string) (byte, error) {
	switch name {
	case "", "onehop":
		return BinModeOneHop, nil
	case "route":
		return BinModeRoute, nil
	}
	return BinModeOneHop, fmt.Errorf("plane: unknown mode %q (want onehop or route)", name)
}

// answerJSON admits a decoded JSON batch (bad: why it did not decode)
// and answers it through the batch pipeline. A refused batch is
// answered on w with its HTTP status, and resp is nil.
func (s *Server) answerJSON(w http.ResponseWriter, mode byte, pairs [][2]int, bad error) (resp *batchResponse) {
	snap, code, err := s.admitBatch(mode, len(pairs), bad)
	if err != nil {
		http.Error(w, err.Error(), code)
		return nil
	}
	b := s.newBatch(snap, mode, len(pairs))
	for i, p := range pairs {
		b.pair(i, p[0], p[1])
	}
	b.answer()
	resp = &batchResponse{Epoch: snap.epoch, Results: b.jsonResults(pairs)}
	b.done()
	return resp
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	mode, bad := jsonMode(q.Get("mode"))
	src, srcErr := strconv.Atoi(q.Get("src"))
	dst, dstErr := strconv.Atoi(q.Get("dst"))
	switch {
	case bad != nil:
	case srcErr != nil:
		bad = fmt.Errorf("plane: bad src: %w", srcErr)
	case dstErr != nil:
		bad = fmt.Errorf("plane: bad dst: %w", dstErr)
	}
	resp := s.answerJSON(w, mode, [][2]int{{src, dst}}, bad)
	switch {
	case resp == nil:
	case resp.Results[0].Error != "":
		// Single-query endpoint: an invalid pair is the whole request.
		http.Error(w, resp.Results[0].Error, http.StatusBadRequest)
	default:
		writeJSON(w, resp.Results[0])
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "plane: POST only", http.StatusMethodNotAllowed)
		return
	}
	// Bound the request: egoistd exposes this endpoint publicly, and an
	// unbounded pairs array is an amplification vector (each route-mode
	// pair can cost a search).
	var req batchRequest
	mode, bad := BinModeOneHop, json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes)).Decode(&req)
	if bad != nil {
		req, bad = batchRequest{}, fmt.Errorf("plane: bad batch: %w", bad)
	} else {
		mode, bad = jsonMode(req.Mode)
	}
	if resp := s.answerJSON(w, mode, req.Pairs, bad); resp != nil {
		writeJSON(w, resp)
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.cur.Load()
	onehop, routes, failed := s.Stats()
	info := map[string]interface{}{
		"published":      snap != nil,
		"queries_onehop": onehop,
		"queries_route":  routes,
		"queries_failed": failed,
		"cache":          s.cstats.read(),
	}
	if snap != nil {
		info["epoch"] = snap.epoch
		info["nodes"] = snap.N()
		info["live"] = snap.NumLive()
		info["arcs"] = snap.NumArcs()
		info["age_seconds"] = s.SnapshotAge().Seconds()
	}
	writeJSON(w, info)
}

// writeJSON encodes v fully before touching the ResponseWriter: an
// encoding failure turns into a clean 500 instead of a 200 header
// followed by a truncated body (and a superfluous-WriteHeader log).
func writeJSON(w http.ResponseWriter, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	data = append(data, '\n')
	_, _ = w.Write(data)
}
