package plane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"egoist/internal/obs"
)

// TestServerMetricsExposition drives queries through an instrumented
// server and checks the registered series move: query counters track
// the server's atomics, latency histograms observe one single query in
// timedEvery, cache counters classify, and the snapshot gauges report
// the serving epoch. Every series is unlabeled.
func TestServerMetricsExposition(t *testing.T) {
	const n, k = 80, 4
	net := testNet(t, n)
	srv := NewServer()
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	srv.Publish(Compile(7, randomWiring(n, k, rand.New(rand.NewSource(5))), nil, net, Options{}))

	for i := 0; i < 2*timedEvery+10; i++ {
		if _, _, err := srv.OneHop(i%n, n-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*timedEvery; i++ {
		if _, _, err := srv.RouteCost(i%3, n-1-i%7); err != nil {
			t.Fatal(err)
		}
	}
	req := AppendBatchRequest(nil, BinModeOneHop, []uint32{1, 2, 3, 4})
	if _, err := srv.AnswerBinary(req, nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m := obs.ParsePrometheus(buf.Bytes())
	for series := range m {
		if strings.Contains(series, "shard=") {
			t.Errorf("series %s carries a shard label", series)
		}
	}
	for series, want := range map[string]float64{
		"plane_queries_onehop_total":       2*timedEvery + 12, // direct + 2 binary pairs
		"plane_queries_route_total":        2 * timedEvery,
		"plane_queries_failed_total":       0,
		"plane_binary_conns_refused_total": 0,
		"plane_binary_writes_total":        0, // AnswerBinary alone writes nothing
		"plane_pair_fallbacks_total":       0, // the Lite bound holds on the fixture
		"plane_batch_latency_ns_count":     1,
		"plane_publish_latency_ns_count":   1,
		"plane_snapshot_epoch":             7,
		"plane_snapshot_live":              float64(n),
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	helps := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helps[name] = help
		}
	}
	// The sampled summaries time one answer in timedEvery, and say so:
	// their _count is the answer total over timedEvery, rounded down
	// (the two binary one-hop pairs are counted but land in the batch
	// histogram).
	for hist, total := range map[string]string{
		"plane_onehop_latency_ns": "plane_queries_onehop_total",
		"plane_route_latency_ns":  "plane_queries_route_total",
	} {
		if got, want := m[hist+"_count"], math.Floor(m[total]/timedEvery); got != want {
			t.Errorf("series %s_count = %v, want floor(%s / %d) = %v", hist, got, total, timedEvery, want)
		}
		if !strings.Contains(helps[hist], fmt.Sprintf("one answer in %d is timed", timedEvery)) {
			t.Errorf("%s HELP %q does not state the sampling", hist, helps[hist])
		}
	}
	// 128 route lookups over 3 cold sources. Each source is answered by
	// pair searches until they have settled a row's worth of nodes (the
	// 80 live ones), then its row is filled once and every later lookup
	// hits it: 19 searches + 3 fills are the 22 misses, the other 106 are
	// hits. (The Lite's path bound prunes the searches: without it 18
	// searches settle 253 nodes. The last 3 searches run with 1 or 2
	// rows of the other sources resident, whose bound prunes 1 node more:
	// without it 252.)
	for series, want := range map[string]float64{
		"plane_cache_hits_total":      106,
		"plane_cache_misses_total":    22,
		"plane_cache_fills_total":     3,
		"plane_pair_searches_total":   19,
		"plane_pair_settled_total":    251,
		"plane_cache_evictions_total": 0,
		"plane_cache_refusals_total":  0,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	// Every miss is paid for once: by a pair search or by a fill (a
	// refused fill's miss is answered by a search).
	if searches, fills, misses := m["plane_pair_searches_total"], m["plane_cache_fills_total"], m["plane_cache_misses_total"]; searches+fills != misses {
		t.Errorf("plane_pair_searches_total %v + plane_cache_fills_total %v, want plane_cache_misses_total %v", searches, fills, misses)
	}
	// The miss-path summaries time every fill and every pair search.
	for hist, counter := range map[string]string{
		"plane_cache_fill_latency_ns_count":  "plane_cache_fills_total",
		"plane_pair_search_latency_ns_count": "plane_pair_searches_total",
	} {
		if got, want := m[hist], m[counter]; got != want {
			t.Errorf("series %s = %v, want %s = %v", hist, got, counter, want)
		}
	}
	if age, ok := m["plane_snapshot_age_seconds"]; !ok || age < 0 {
		t.Errorf("snapshot age = %v (present=%v), want >= 0", age, ok)
	}
	st := srv.CacheStats()
	if want := (CacheStats{Hits: 106, Misses: 22, Fills: 3, PairSearches: 19, PairSettled: 251}); st != want {
		t.Errorf("CacheStats() = %+v, want %+v", st, want)
	}
}

// TestSampledQuantilesTrackAlwaysOn feeds one latency stream to an
// always-on histogram and, through the servers' one-in-timedEvery rule,
// to a sampled one, and requires the sampled median, p90 and p99 to land
// within one bucket of the always-on ones. The stream is a seeded
// lognormal around a one-hop answer's ~160 ns with a 3% tail ten times
// slower: the rule keys on the answer count, so it reads the stream's
// quantiles unless latency repeats with the timing period.
func TestSampledQuantilesTrackAlwaysOn(t *testing.T) {
	reg := obs.NewRegistry()
	all := reg.Histogram("all_ns", "every answer")
	m := &serverMetrics{onehopNs: reg.Histogram("sampled_ns", "timed answers")}
	rng := rand.New(rand.NewSource(11))
	for n := int64(1); n <= 4096*timedEvery; n++ {
		ns := int64(160 * math.Exp(0.4*rng.NormFloat64()))
		if rng.Intn(100) < 3 {
			ns *= 10
		}
		all.Observe(ns)
		if !m.startNth(n).IsZero() {
			m.onehopNs.Observe(ns)
		}
	}
	if got, want := m.onehopNs.Count(), all.Count()/timedEvery; got != want {
		t.Fatalf("sampled histogram holds %d answers, want %d", got, want)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		a, s := all.Quantile(q), m.onehopNs.Quantile(q)
		if d := obs.BucketIndex(int64(a)) - obs.BucketIndex(int64(s)); d < -1 || d > 1 {
			t.Errorf("q%v: sampled %v ns, always-on %v ns: %d buckets apart", q, s, a, d)
		}
	}
}

// TestSnapshotEndpoint pins GET /snapshot: the query totals, the
// row-cache counters and the snapshot age, and no key beyond the
// snapshot's metadata (no per-shard breakdown).
func TestSnapshotEndpoint(t *testing.T) {
	const n, k = 60, 4
	net := testNet(t, n)
	srv := NewServer()
	srv.Publish(Compile(3, randomWiring(n, k, rand.New(rand.NewSource(9))), nil, net, Options{}))
	for i := 0; i < 5; i++ {
		if _, _, err := srv.OneHop(i, n-1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := srv.RouteCost(0, n-1); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		QueriesOneHop int64      `json:"queries_onehop"`
		QueriesRoute  int64      `json:"queries_route"`
		Cache         CacheStats `json:"cache"`
		AgeSeconds    *float64   `json:"age_seconds"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.QueriesOneHop != 5 || info.QueriesRoute != 1 {
		t.Fatalf("onehop/route totals = %d/%d, want 5/1", info.QueriesOneHop, info.QueriesRoute)
	}
	if info.Cache.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", info.Cache.Misses)
	}
	if info.AgeSeconds == nil || *info.AgeSeconds < 0 {
		t.Fatalf("age_seconds = %v, want present and >= 0", info.AgeSeconds)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range keys {
		got = append(got, key)
	}
	sort.Strings(got)
	want := "age_seconds arcs cache epoch live nodes published queries_failed queries_onehop queries_route"
	if strings.Join(got, " ") != want {
		t.Fatalf("/snapshot keys = %v, want exactly %s", got, want)
	}
}
