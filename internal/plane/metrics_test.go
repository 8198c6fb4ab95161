package plane

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"egoist/internal/obs"
)

// TestServerMetricsExposition drives queries through an instrumented
// server and checks the registered series move: query counters track
// the server's atomics, latency histograms observe, cache counters
// classify, and the snapshot gauges report the serving epoch. Every
// series is unlabeled.
func TestServerMetricsExposition(t *testing.T) {
	const n, k = 80, 4
	net := testNet(t, n)
	srv := NewServer()
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	srv.Publish(Compile(7, randomWiring(n, k, rand.New(rand.NewSource(5))), nil, net, Options{}))

	for i := 0; i < 10; i++ {
		if _, _, err := srv.OneHop(i, n-1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
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
		"plane_queries_onehop_total":       12, // 10 direct + 2 binary pairs
		"plane_queries_route_total":        60,
		"plane_queries_failed_total":       0,
		"plane_binary_conns_refused_total": 0,
		"plane_onehop_latency_ns_count":    10, // binary pairs land in the batch histogram
		"plane_route_latency_ns_count":     60,
		"plane_batch_latency_ns_count":     1,
		"plane_publish_latency_ns_count":   1,
		"plane_snapshot_epoch":             7,
		"plane_snapshot_live":              float64(n),
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	// 60 route lookups over 3 cold sources. Each source is answered by
	// pair searches until they have settled a row's worth of nodes (the
	// 80 live ones), then its row is filled once and every later lookup
	// hits it: 18 searches + 3 fills are the 21 misses, the other 39 are
	// hits.
	for series, want := range map[string]float64{
		"plane_cache_hits_total":      39,
		"plane_cache_misses_total":    21,
		"plane_cache_fills_total":     3,
		"plane_pair_searches_total":   18,
		"plane_pair_settled_total":    253,
		"plane_cache_evictions_total": 0,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	if age, ok := m["plane_snapshot_age_seconds"]; !ok || age < 0 {
		t.Errorf("snapshot age = %v (present=%v), want >= 0", age, ok)
	}
	st := srv.CacheStats()
	if want := (CacheStats{Hits: 39, Misses: 21, Fills: 3, PairSearches: 18, PairSettled: 253}); st != want {
		t.Errorf("CacheStats() = %+v, want %+v", st, want)
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
