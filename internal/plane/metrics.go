package plane

import (
	"time"

	"egoist/internal/obs"
)

// serverMetrics are the serving layer's obs instruments. The pointer
// is nil until EnableMetrics, and its methods are nil-safe: with metrics
// off a hot path pays one predictable branch and no clock reading, and
// it stays allocation-free either way (gated by
// TestServeHotPathsZeroAlloc, which runs with metrics enabled).
//
// A single query costs about as much as the two clock readings that
// would time it, so the one-hop and route histograms time one answer in
// timedEvery: the one whose count — the delivered-answer counter the
// path increments anyway — is a multiple of it. Their quantiles are those
// of the answer stream (TestSampledQuantilesTrackAlwaysOn) and their
// _count is the timed answers; plane_queries_{onehop,route}_total stay
// exact. Only OneHop, RouteCost and AppendRoute feed them. A batch of
// either protocol (GET /route's batch of one too), a publish, a row
// fill and a pair search are timed every time; the last two's
// summaries live on cacheStats beside the counters they share a _count
// with.
type serverMetrics struct {
	onehopNs  *obs.Histogram // per timed one-hop decision
	routeNs   *obs.Histogram // per timed shortest-path answer
	batchNs   *obs.Histogram // per batch answered, binary or JSON
	publishNs *obs.Histogram // per Publish
}

// timedEvery is the single-query timing period: a power of two, so the
// test is a mask. The two sampled histograms' HELP texts state it.
const timedEvery = 64

// start is the clock reading a timed answer begins at (zero while
// metrics are off).
func (m *serverMetrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// startNth is start for the single query counted n: zero unless n is a
// multiple of timedEvery.
func (m *serverMetrics) startNth(n int64) time.Time {
	if n&(timedEvery-1) != 0 {
		return time.Time{}
	}
	return m.start()
}

// onehop, route and batch record the answer begun at t0; an untimed
// answer (t0 zero) records nothing.
func (m *serverMetrics) onehop(t0 time.Time) {
	if m != nil && !t0.IsZero() {
		m.onehopNs.Observe(time.Since(t0).Nanoseconds())
	}
}

func (m *serverMetrics) route(t0 time.Time) {
	if m != nil && !t0.IsZero() {
		m.routeNs.Observe(time.Since(t0).Nanoseconds())
	}
}

func (m *serverMetrics) batch(t0 time.Time) {
	if m != nil {
		m.batchNs.Observe(time.Since(t0).Nanoseconds())
	}
}

// EnableMetrics registers the serving layer's instrument set on reg
// and attaches the latency histograms to the hot paths. The query,
// row-cache and listener counters are exposed as scrape-time callbacks
// over the atomics the server already maintains — enabling metrics
// never adds a second counter write to a query. Call once, before
// serving; a second call panics on duplicate registration.
//
// Registered series:
//
//	plane_queries_{onehop,route}_total  delivered answers
//	plane_queries_failed_total          invalid pairs, and batches refused whole (one each)
//	plane_cache_{hits,misses,collapses}_total  route lookups, by what they found
//	plane_cache_{fills,evictions}_total        rows computed on demand / dropped
//	plane_cache_refusals_total          fills the admission rule refused
//	plane_pair_{searches,settled}_total  pair searches a miss paid
//	plane_pair_fallbacks_total          pair searches re-run unpruned (a path bound that does not hold)
//	plane_binary_conns_refused_total    binary connections closed over the cap
//	plane_binary_writes_total           binary TCP response writes (pipelined frames share one)
//	plane_snapshot_epoch / _age_seconds / _live  serving snapshot
//	plane_{onehop,route}_latency_ns     one answer in timedEvery
//	plane_{batch,publish}_latency_ns    summaries, every one
//	plane_cache_fill_latency_ns         per row fill, every one
//	plane_pair_search_latency_ns        per pair search, every one
func (s *Server) EnableMetrics(reg *obs.Registry) {
	m := &serverMetrics{
		onehopNs:  reg.Histogram("plane_onehop_latency_ns", "one-hop decision latency of single queries (batches are timed whole in plane_batch_latency_ns); one answer in 64 is timed, so with no batch traffic _count is plane_queries_onehop_total/64"),
		routeNs:   reg.Histogram("plane_route_latency_ns", "shortest-path answer latency of single queries, cache-warm or not (batches are timed whole in plane_batch_latency_ns); one answer in 64 is timed, so with no batch traffic _count is plane_queries_route_total/64"),
		batchNs:   reg.Histogram("plane_batch_latency_ns", "batch answer latency (whole batch, binary or JSON; GET /route is a batch of one)"),
		publishNs: reg.Histogram("plane_publish_latency_ns", "snapshot publish latency"),
	}
	s.cstats.fillNs = reg.Histogram("plane_cache_fill_latency_ns", "row fill latency (one CSR Dijkstra), every fill")
	s.cstats.searchNs = reg.Histogram("plane_pair_search_latency_ns", "exact pair search latency, every search")
	reg.CounterFunc("plane_queries_onehop_total", "delivered one-hop answers", s.onehop.Load)
	reg.CounterFunc("plane_queries_route_total", "delivered route answers", s.routes.Load)
	reg.CounterFunc("plane_queries_failed_total", "queries rejected before an answer: an invalid pair, or a batch refused whole (counted once)", s.failed.Load)
	reg.CounterFunc("plane_cache_hits_total", "row-cache lookups answered from a computed row", s.cstats.hits.Load)
	reg.CounterFunc("plane_cache_misses_total", "row-cache lookups that found no row for the source and paid for their answer: a pair search or a fill", s.cstats.misses.Load)
	reg.CounterFunc("plane_cache_fills_total", "shortest-path rows computed on demand (one Dijkstra each)", s.cstats.fills.Load)
	reg.CounterFunc("plane_cache_refusals_total", "row fills refused by admission: the source was looked up no more often than the row it would evict (the miss is answered by a pair search)", s.cstats.refusals.Load)
	reg.CounterFunc("plane_pair_searches_total", "misses answered by an exact pair search", s.cstats.searches.Load)
	reg.CounterFunc("plane_pair_settled_total", "nodes settled by pair searches (a filled row settles every live node)", s.cstats.settled.Load)
	reg.CounterFunc("plane_pair_fallbacks_total", "pair searches whose pruned run ended short of the destination and re-ran unpruned; above 0 a path bound does not hold for the snapshot's arcs", s.cstats.fallbacks.Load)
	reg.CounterFunc("plane_cache_evictions_total", "row-cache rows dropped under the cap", s.cstats.evictions.Load)
	reg.CounterFunc("plane_cache_collapses_total", "row-cache lookups that joined an in-flight compute (singleflight)", s.cstats.collapses.Load)
	reg.CounterFunc("plane_binary_writes_total", "binary-protocol TCP response writes (the answers to frames a client pipelined share one)", s.binWrites.Load)
	reg.CounterFunc("plane_binary_conns_refused_total", "binary-protocol connections closed at accept because the connection cap was reached", s.binRefused.Load)
	reg.GaugeFunc("plane_snapshot_epoch", "serving snapshot epoch (-1 before the first publish)", func() float64 {
		if snap := s.cur.Load(); snap != nil {
			return float64(snap.epoch)
		}
		return -1
	})
	reg.GaugeFunc("plane_snapshot_age_seconds", "seconds since the serving snapshot was published (-1 before the first publish)", func() float64 {
		return s.SnapshotAge().Seconds()
	})
	reg.GaugeFunc("plane_snapshot_live", "live overlay members in the serving snapshot", func() float64 {
		if snap := s.cur.Load(); snap != nil {
			return float64(snap.nLive)
		}
		return 0
	})
	s.m = m
}

// CacheStats reads the server-lifetime row-cache counters (they
// survive publishes; every published snapshot feeds the same set).
func (s *Server) CacheStats() CacheStats { return s.cstats.read() }

// SnapshotAge reports the time since the last Publish, or -1s before
// the first one.
func (s *Server) SnapshotAge() time.Duration {
	t := s.pubTime.Load()
	if t == 0 {
		return -time.Second
	}
	return time.Duration(time.Now().UnixNano() - t)
}
