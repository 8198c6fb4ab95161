package plane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"egoist/internal/graph"
)

// ErrNoSnapshot is returned for queries issued before the control plane
// has published anything.
var ErrNoSnapshot = errors.New("plane: no snapshot published yet")

// Batch limits of POST /routes and the binary batch protocol.
const (
	maxBatchPairs = 10000
	maxBatchBytes = 1 << 20 // comfortably holds maxBatchPairs of JSON pairs
)

// Server is the query-serving layer, sharded per core: each shard owns
// an atomic snapshot pointer, its own shortest-path row cache (a
// per-shard view of the published snapshot), and its own counters, so
// readers pinned to different shards share no mutable state — no
// rowCache mutex contention, no counter cache-line ping-pong. Publish
// swaps every shard's pointer (RCU-style): queries in flight finish on
// the snapshot they started with, a batch grabs one shard's pointer
// once and answers every pair from that epoch, and old snapshots are
// garbage once their readers drain.
//
// Decisions are identical at any shard count: shards differ only in
// cache and counter placement, never in answers (pinned by the plane
// equivalence suite). One Server is safe for any number of concurrent
// Publish-ers and query-ers, though the engines publish from a single
// goroutine.
type Server struct {
	shards  []*shard
	base    atomic.Pointer[Snapshot]
	rr      atomic.Uint32 // round-robin shard pick for unpinned callers
	mu      sync.Mutex    // serializes Publish bookkeeping
	pubTime atomic.Int64  // UnixNano of the last Publish (0 = never)
	cstats  cacheStats    // row-cache counters, threaded through every publish
}

// shard is one core's serving state. The counters of different shards
// live in different allocations (and the trailing pad keeps a shard's
// hot fields from sharing a line with a neighboring allocation), so
// shard-pinned readers never contend.
type shard struct {
	cur    atomic.Pointer[Snapshot]
	onehop atomic.Int64
	routes atomic.Int64
	failed atomic.Int64
	idx    int            // this shard's index (metrics cell selector)
	m      *serverMetrics // nil until Server.EnableMetrics
	_      [64]byte
}

// NewServer returns a single-shard Server with no snapshot published —
// the zero-contention layout for single-goroutine callers, and the
// exact pre-sharding behavior (the published snapshot itself serves,
// so its row cache carries across Patch chains).
func NewServer() *Server { return NewServerShards(1) }

// NewServerShards returns a Server with p independent serving shards
// (p <= 0 means GOMAXPROCS). Callers that want multi-core throughput
// pin each worker to one Shard handle; unpinned Server-level calls and
// HTTP requests are spread round-robin.
func NewServerShards(p int) *Server {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	s := &Server{shards: make([]*shard, p)}
	for i := range s.shards {
		s.shards[i] = &shard{idx: i}
	}
	return s
}

// Shards reports the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Shard returns a handle pinned to shard i mod Shards() — the
// multi-core serving API: one handle per worker, no shared mutable
// state between handles of different shards.
func (s *Server) Shard(i int) Shard {
	if i < 0 {
		i = 0
	}
	return Shard{sh: s.shards[i%len(s.shards)]}
}

// pick spreads unpinned callers across shards. The round-robin counter
// is the one shared atomic on this path — callers that care about the
// last nanoseconds hold a Shard handle instead.
func (s *Server) pick() *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[int(s.rr.Add(1))%len(s.shards)]
}

// Publish installs snap as the serving snapshot on every shard, handing
// each its own view: same immutable topology, a private row cache
// seeded with every row snap already has (the rows a Patch carried
// over, typically) shared by reference, so the per-shard caches start
// as warm as snap without copying a byte. With one shard, snap itself
// serves (exact pre-sharding behavior). Nothing is computed here: a
// source whose row a change crossed is answered by pair searches until
// it has earned the row back.
func (s *Server) Publish(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()
	snap.rows.setStats(&s.cstats)
	s.base.Store(snap)
	if len(s.shards) == 1 {
		s.shards[0].cur.Store(snap)
	} else {
		for _, sh := range s.shards {
			view := snap.shardView()
			view.rows.setStats(&s.cstats)
			sh.cur.Store(view)
		}
	}
	s.pubTime.Store(time.Now().UnixNano())
	if m := s.shards[0].m; m != nil {
		m.publishNs.Observe(time.Since(t0).Nanoseconds())
	}
}

// Current returns the published base snapshot, or nil before the first
// Publish. It stays valid (immutable) even after later publishes — and
// it is the snapshot to Patch when chaining delta publications, since
// its row cache is the one Publish seeds the per-shard views from.
func (s *Server) Current() *Snapshot { return s.base.Load() }

// Stats reports the served-query counters summed across shards; failed
// counts queries with no published snapshot or invalid node ids. The
// counter contract: a tallied onehop/routes query is a delivered
// result — queries rejected before an answer (bad ids, no snapshot)
// only ever increment failed.
func (s *Server) Stats() (onehop, routes, failed int64) {
	for _, sh := range s.shards {
		onehop += sh.onehop.Load()
		routes += sh.routes.Load()
		failed += sh.failed.Load()
	}
	return
}

// OneHop answers one O(k) source-routing query from a round-robin
// shard's current snapshot. Pinned callers use Shard.OneHop.
func (s *Server) OneHop(src, dst int) (Decision, int64, error) {
	return Shard{sh: s.pick()}.OneHop(src, dst)
}

// Route answers one full shortest-path query from a round-robin
// shard's current snapshot. ok=false means dst is not
// overlay-reachable from src in the serving epoch — still an answered
// query, unlike an error.
func (s *Server) Route(src, dst int) (Route, bool, int64, error) {
	return Shard{sh: s.pick()}.Route(src, dst)
}

// Shard is a handle pinned to one serving shard: the multi-core hot
// path. Handles are values; any number may point at the same shard.
type Shard struct {
	sh *shard
}

// Current returns the shard's serving snapshot view (nil before the
// first Publish). Multi-shard views share topology with the base
// snapshot but own their row cache.
func (h Shard) Current() *Snapshot { return h.sh.cur.Load() }

// OneHop answers one one-hop query from this shard — zero allocations
// end-to-end (gated by TestServeHotPathsZeroAlloc).
func (h Shard) OneHop(src, dst int) (Decision, int64, error) {
	snap := h.sh.cur.Load()
	if snap == nil {
		h.sh.failed.Add(1)
		return Decision{}, -1, ErrNoSnapshot
	}
	if err := snap.checkPair(src, dst); err != nil {
		h.sh.failed.Add(1)
		return Decision{}, snap.epoch, err
	}
	h.sh.onehop.Add(1)
	if m := h.sh.m; m != nil {
		t0 := time.Now()
		d := snap.OneHop(src, dst)
		m.onehopNs.ObserveShard(h.sh.idx, time.Since(t0).Nanoseconds())
		return d, snap.epoch, nil
	}
	return snap.OneHop(src, dst), snap.epoch, nil
}

// Route answers one full shortest-path query from this shard. The
// returned path is freshly allocated; the serving hot loop uses
// AppendRoute instead.
func (h Shard) Route(src, dst int) (Route, bool, int64, error) {
	snap := h.sh.cur.Load()
	if snap == nil {
		h.sh.failed.Add(1)
		return Route{}, false, -1, ErrNoSnapshot
	}
	if err := snap.checkPair(src, dst); err != nil {
		h.sh.failed.Add(1)
		return Route{}, false, snap.epoch, err
	}
	h.sh.routes.Add(1)
	if m := h.sh.m; m != nil {
		t0 := time.Now()
		r, ok := snap.Route(src, dst)
		m.routeNs.ObserveShard(h.sh.idx, time.Since(t0).Nanoseconds())
		return r, ok, snap.epoch, nil
	}
	r, ok := snap.Route(src, dst)
	return r, ok, snap.epoch, nil
}

// RouteCost answers one shortest-path cost query from this shard
// (+Inf when unreachable), skipping path reconstruction — zero
// allocations whether a row or a pair search answers.
func (h Shard) RouteCost(src, dst int) (float64, int64, error) {
	snap := h.sh.cur.Load()
	if snap == nil {
		h.sh.failed.Add(1)
		return graph.Inf, -1, ErrNoSnapshot
	}
	if err := snap.checkPair(src, dst); err != nil {
		h.sh.failed.Add(1)
		return graph.Inf, snap.epoch, err
	}
	h.sh.routes.Add(1)
	if m := h.sh.m; m != nil {
		t0 := time.Now()
		c := snap.RouteCost(src, dst)
		m.routeNs.ObserveShard(h.sh.idx, time.Since(t0).Nanoseconds())
		return c, snap.epoch, nil
	}
	return snap.RouteCost(src, dst), snap.epoch, nil
}

// AppendRoute answers one full shortest-path query, appending the path
// to buf (pass the previous call's path[:0] to reuse storage) — the
// zero-allocation serving path. ok=false means unreachable (cost +Inf,
// empty path).
func (h Shard) AppendRoute(src, dst int, buf []int32) (path []int32, cost float64, ok bool, err error) {
	snap := h.sh.cur.Load()
	if snap == nil {
		h.sh.failed.Add(1)
		return buf[:0], graph.Inf, false, ErrNoSnapshot
	}
	if err := snap.checkPair(src, dst); err != nil {
		h.sh.failed.Add(1)
		return buf[:0], graph.Inf, false, err
	}
	h.sh.routes.Add(1)
	if m := h.sh.m; m != nil {
		t0 := time.Now()
		path, cost, ok = snap.RouteInto(src, dst, buf)
		m.routeNs.ObserveShard(h.sh.idx, time.Since(t0).Nanoseconds())
		return path, cost, ok, nil
	}
	path, cost, ok = snap.RouteInto(src, dst, buf)
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
//	POST /routes.bin  binary batch (see binary.go for the frame format)
//	GET  /snapshot  serving-snapshot metadata and query counters
//
// Each request is answered by one round-robin shard, so concurrent
// HTTP load spreads across the per-shard caches.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/route", s.handleRoute)
	mux.HandleFunc("/routes", s.handleBatch)
	mux.HandleFunc("/routes.bin", s.handleBatchBin)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	return mux
}

// validMode reports whether mode names a lookup path.
func validMode(mode string) bool {
	return mode == "" || mode == "onehop" || mode == "route"
}

// answerPair resolves one pre-validated-mode query against an explicit
// snapshot (so batches stay on one epoch) and tallies the shard's
// counters under the contract that a tallied onehop/routes query is a
// delivered result: an invalid pair is answered in-band (Ok=false,
// Error set, Cost -1) and only increments failed.
func answerPair(sh *shard, snap *Snapshot, mode string, src, dst int) routeResult {
	res := routeResult{Src: src, Dst: dst, Mode: mode, Epoch: snap.epoch}
	if res.Mode == "" {
		res.Mode = "onehop"
	}
	if err := snap.checkPair(src, dst); err != nil {
		sh.failed.Add(1)
		res.Cost = -1
		res.Error = err.Error()
		return res
	}
	switch mode {
	case "", "onehop":
		sh.onehop.Add(1)
		t0 := time.Time{}
		if sh.m != nil {
			t0 = time.Now()
		}
		d := snap.OneHop(src, dst)
		if sh.m != nil {
			sh.m.onehopNs.ObserveShard(sh.idx, time.Since(t0).Nanoseconds())
		}
		res.Cost = d.Cost
		res.Ok = d.Cost < graph.Inf
		if !res.Ok {
			res.Cost = -1 // +Inf has no JSON encoding
		}
		if d.Via >= 0 {
			via := d.Via
			res.Via = &via
		}
	case "route":
		sh.routes.Add(1)
		t0 := time.Time{}
		if sh.m != nil {
			t0 = time.Now()
		}
		r, ok := snap.Route(src, dst)
		if sh.m != nil {
			sh.m.routeNs.ObserveShard(sh.idx, time.Since(t0).Nanoseconds())
		}
		res.Cost = r.Cost
		res.Path = r.Path
		res.Ok = ok
		if !ok {
			res.Cost = -1 // match the one-hop unreachable encoding
		}
	}
	return res
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	sh := s.pick()
	snap := sh.cur.Load()
	if snap == nil {
		sh.failed.Add(1)
		http.Error(w, ErrNoSnapshot.Error(), http.StatusServiceUnavailable)
		return
	}
	mode := r.URL.Query().Get("mode")
	if !validMode(mode) {
		sh.failed.Add(1)
		http.Error(w, fmt.Sprintf("plane: unknown mode %q (want onehop or route)", mode), http.StatusBadRequest)
		return
	}
	src, err := strconv.Atoi(r.URL.Query().Get("src"))
	if err != nil {
		sh.failed.Add(1)
		http.Error(w, "plane: bad src: "+err.Error(), http.StatusBadRequest)
		return
	}
	dst, err := strconv.Atoi(r.URL.Query().Get("dst"))
	if err != nil {
		sh.failed.Add(1)
		http.Error(w, "plane: bad dst: "+err.Error(), http.StatusBadRequest)
		return
	}
	res := answerPair(sh, snap, mode, src, dst)
	if res.Error != "" {
		// Single-query endpoint: an invalid pair is the whole request.
		http.Error(w, res.Error, http.StatusBadRequest)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "plane: POST only", http.StatusMethodNotAllowed)
		return
	}
	sh := s.pick()
	snap := sh.cur.Load()
	if snap == nil {
		sh.failed.Add(1)
		http.Error(w, ErrNoSnapshot.Error(), http.StatusServiceUnavailable)
		return
	}
	// Bound the request: egoistd exposes this endpoint publicly, and an
	// unbounded pairs array is an amplification vector (each route-mode
	// pair can cost a search).
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes)).Decode(&req); err != nil {
		http.Error(w, "plane: bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Pairs) > maxBatchPairs {
		http.Error(w, fmt.Sprintf("plane: batch of %d pairs exceeds the %d cap", len(req.Pairs), maxBatchPairs), http.StatusRequestEntityTooLarge)
		return
	}
	if !validMode(req.Mode) {
		sh.failed.Add(1)
		http.Error(w, fmt.Sprintf("plane: unknown mode %q (want onehop or route)", req.Mode), http.StatusBadRequest)
		return
	}
	// Invalid pairs are answered in-band (ok=false + error) so one bad
	// pair can't discard a batch of already-answered results — the
	// onehop/routes counters only tally results the client receives.
	resp := batchResponse{Epoch: snap.epoch, Results: make([]routeResult, 0, len(req.Pairs))}
	for _, p := range req.Pairs {
		resp.Results = append(resp.Results, answerPair(sh, snap, req.Mode, p[0], p[1]))
	}
	writeJSON(w, resp)
}

// shardCounters is one shard's query-counter row in GET /snapshot —
// the per-shard breakdown that makes shard imbalance visible next to
// the summed totals.
type shardCounters struct {
	Shard  int   `json:"shard"`
	OneHop int64 `json:"onehop"`
	Routes int64 `json:"routes"`
	Failed int64 `json:"failed"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.base.Load()
	onehop, routes, failed := s.Stats()
	perShard := make([]shardCounters, len(s.shards))
	for i, sh := range s.shards {
		perShard[i] = shardCounters{
			Shard:  i,
			OneHop: sh.onehop.Load(),
			Routes: sh.routes.Load(),
			Failed: sh.failed.Load(),
		}
	}
	info := map[string]interface{}{
		"published":      snap != nil,
		"shards":         len(s.shards),
		"queries_onehop": onehop,
		"queries_route":  routes,
		"queries_failed": failed,
		"per_shard":      perShard,
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
