package plane

import (
	"time"

	"egoist/internal/obs"
)

// serverMetrics are the serving layer's obs instruments. The pointer
// lives on every shard and is nil until EnableMetrics: the hot paths
// pay one predictable branch when metrics are off, and stay
// allocation-free either way (gated by TestServeHotPathsZeroAlloc,
// which runs with metrics enabled).
type serverMetrics struct {
	onehopNs  *obs.Histogram // per one-hop decision, per-shard cells
	routeNs   *obs.Histogram // per shortest-path answer, per-shard cells
	batchNs   *obs.Histogram // per binary batch answered, per-shard cells
	publishNs *obs.Histogram // per Publish
}

// EnableMetrics registers the serving layer's instrument set on reg
// and attaches the latency histograms to the hot paths. The query and
// row-cache counters are exposed as scrape-time callbacks over the
// padded per-shard atomics the server already maintains — enabling
// metrics never adds a second counter write to a query. Call once,
// before serving; a second call panics on duplicate registration.
//
// Registered series:
//
//	plane_queries_onehop_total{shard=...}  delivered one-hop answers
//	plane_queries_route_total{shard=...}   delivered route answers
//	plane_queries_failed_total{shard=...}  rejected queries
//	plane_cache_{hits,misses,collapses}_total  route lookups, by what they found
//	plane_cache_{fills,evictions}_total        rows computed on demand / dropped
//	plane_pair_{searches,settled,fallbacks}_total  pair searches a miss paid
//	plane_snapshot_epoch / _age_seconds / _live  serving snapshot
//	plane_{onehop,route,batch,publish}_latency_ns  summaries
func (s *Server) EnableMetrics(reg *obs.Registry) {
	p := len(s.shards)
	m := &serverMetrics{
		onehopNs:  reg.HistogramVec("plane_onehop_latency_ns", "one-hop decision latency", p),
		routeNs:   reg.HistogramVec("plane_route_latency_ns", "shortest-path answer latency (cache-warm or not)", p),
		batchNs:   reg.HistogramVec("plane_batch_latency_ns", "binary batch answer latency (whole batch)", p),
		publishNs: reg.Histogram("plane_publish_latency_ns", "snapshot publish latency"),
	}
	reg.CounterVecFunc("plane_queries_onehop_total", "delivered one-hop answers", p,
		func(i int) int64 { return s.shards[i].onehop.Load() })
	reg.CounterVecFunc("plane_queries_route_total", "delivered route answers", p,
		func(i int) int64 { return s.shards[i].routes.Load() })
	reg.CounterVecFunc("plane_queries_failed_total", "queries rejected before an answer", p,
		func(i int) int64 { return s.shards[i].failed.Load() })
	reg.CounterFunc("plane_cache_hits_total", "row-cache lookups answered from a computed row",
		func() int64 { return s.cstats.hits.Load() })
	reg.CounterFunc("plane_cache_misses_total", "row-cache lookups that found no row for the source (answered by a pair search or a fill)",
		func() int64 { return s.cstats.misses.Load() })
	reg.CounterFunc("plane_cache_fills_total", "shortest-path rows computed on demand (one Dijkstra each)",
		func() int64 { return s.cstats.fills.Load() })
	reg.CounterFunc("plane_pair_searches_total", "misses answered by an exact pair search",
		func() int64 { return s.cstats.searches.Load() })
	reg.CounterFunc("plane_pair_settled_total", "nodes settled by pair searches (a filled row settles every live node)",
		func() int64 { return s.cstats.settled.Load() })
	reg.CounterFunc("plane_pair_fallbacks_total", "pair searches that hit a tie and were answered from a filled row instead",
		func() int64 { return s.cstats.fallbacks.Load() })
	reg.CounterFunc("plane_cache_evictions_total", "row-cache rows dropped under the cap",
		func() int64 { return s.cstats.evictions.Load() })
	reg.CounterFunc("plane_cache_collapses_total", "row-cache lookups that joined an in-flight compute (singleflight)",
		func() int64 { return s.cstats.collapses.Load() })
	reg.GaugeFunc("plane_snapshot_epoch", "serving snapshot epoch (-1 before the first publish)", func() float64 {
		if snap := s.base.Load(); snap != nil {
			return float64(snap.epoch)
		}
		return -1
	})
	reg.GaugeFunc("plane_snapshot_age_seconds", "seconds since the serving snapshot was published (-1 before the first publish)", func() float64 {
		return s.SnapshotAge().Seconds()
	})
	reg.GaugeFunc("plane_snapshot_live", "live overlay members in the serving snapshot", func() float64 {
		if snap := s.base.Load(); snap != nil {
			return float64(snap.nLive)
		}
		return 0
	})
	for _, sh := range s.shards {
		sh.m = m
	}
}

// CacheStats reads the server-lifetime row-cache counters (they
// survive publishes; every published snapshot and shard view feeds the
// same set).
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
