package obs

import (
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrentStorm hammers one counter and one multi-cell
// histogram from many writers (run under -race in CI) and checks
// nothing is lost: wait-free atomics, no torn reads.
func TestCounterConcurrentStorm(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("storm_total", "")
	h := reg.HistogramVec("storm_ns", "", 4)
	g := reg.Gauge("storm_gauge", "")
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				h.ObserveShard(w, int64(50+i%1000))
				g.Set(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter lost updates: %d != %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("histogram lost observations: %d != %d", got, writers*perWriter)
	}
	var bucketSum int64
	m := h.Merged()
	for _, b := range m {
		bucketSum += b
	}
	if bucketSum != h.Count() {
		t.Fatalf("merged buckets sum %d != count %d", bucketSum, h.Count())
	}
}

// TestBucketBoundaries pins the histogram's bucket function: values
// at and around every bucket's lower bound land where the scheme says,
// tiny and huge values clamp, and the quantile of a point mass is the
// geometric mean of its bucket's bounds.
func TestBucketBoundaries(t *testing.T) {
	if BucketIndex(0) != 0 || BucketIndex(1) != 0 || BucketIndex(45) != 0 {
		t.Fatalf("values at or below the base must land in bucket 0")
	}
	if BucketIndex(math.MaxInt64) != NumBuckets-1 {
		t.Fatalf("huge values must clamp to the last bucket")
	}
	for i := 1; i < NumBuckets; i++ {
		// The geometric midpoint of bucket i's bounds lands in bucket i
		// (integer-nanosecond truncation at the edges stays inside).
		mid := int64(BucketLower(i) * math.Sqrt(BucketGrowth))
		if got := BucketIndex(mid); got != i {
			t.Fatalf("bucket %d: midpoint %d landed in %d", i, mid, got)
		}
		if BucketLower(i) <= BucketLower(i-1) {
			t.Fatalf("bucket bounds must be strictly increasing at %d", i)
		}
	}
	// Monotone: a geometric sweep never decreases the bucket index.
	prev := 0
	for ns := int64(1); ns < int64(1)<<62; ns += ns/16 + 1 {
		idx := BucketIndex(ns)
		if idx < prev {
			t.Fatalf("bucket index regressed at %dns: %d < %d", ns, idx, prev)
		}
		prev = idx
	}
	reg := NewRegistry()
	h := reg.Histogram("point_ns", "")
	h.Observe(1000) // bucket i, bounds [lo, lo*g)
	i := BucketIndex(1000)
	want := BucketLower(i) * math.Sqrt(BucketGrowth)
	for _, q := range []float64{0, 0.5, 0.99} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("point-mass quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if h.Quantile(0.5) < 1000*0.8 || h.Quantile(0.5) > 1000*1.25 {
		t.Fatalf("quantile %v too far from the observed 1000ns", h.Quantile(0.5))
	}
	if reg.Histogram("empty_ns", "").Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile must be 0")
	}
}

// TestQuantileMatchesSortedRank feeds a known spread and checks the
// quantiles straddle the true ranks within one bucket's resolution.
func TestQuantileMatchesSortedRank(t *testing.T) {
	h := NewRegistry().HistogramVec("spread_ns", "", 2)
	for i := 1; i <= 1000; i++ {
		h.ObserveShard(i, int64(i)*100) // 100ns..100µs uniform
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := float64(int(q*1000)+1) * 100
		got := h.Quantile(q)
		if got < truth/BucketGrowth || got > truth*BucketGrowth {
			t.Fatalf("quantile(%v) = %v, want within one bucket of %v", q, got, truth)
		}
	}
}

// TestPrometheusExpositionGolden pins the exposition format
// byte-for-byte for one of every instrument kind.
func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("queries_total", "answered queries")
	g := reg.Gauge("snapshot_epoch", "serving epoch")
	reg.GaugeFunc("alive", "live peers", func() float64 { return 7 })
	reg.CounterFunc("drops_total", "", func() int64 { return 3 })
	h := reg.Histogram("lat_ns", "lookup latency")

	c.Add(41)
	c.Inc()
	g.Set(9)
	h.Observe(1000)
	h.Observe(1000)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	q := formatFloat(BucketLower(BucketIndex(1000)) * math.Sqrt(BucketGrowth))
	want := strings.Join([]string{
		"# HELP queries_total answered queries",
		"# TYPE queries_total counter",
		"queries_total 42",
		"# HELP snapshot_epoch serving epoch",
		"# TYPE snapshot_epoch gauge",
		"snapshot_epoch 9",
		"# HELP alive live peers",
		"# TYPE alive gauge",
		"alive 7",
		"# TYPE drops_total counter",
		"drops_total 3",
		"# HELP lat_ns lookup latency",
		"# TYPE lat_ns summary",
		`lat_ns{quantile="0.5"} ` + q,
		`lat_ns{quantile="0.9"} ` + q,
		`lat_ns{quantile="0.99"} ` + q,
		"lat_ns_sum 2000",
		"lat_ns_count 2",
		"",
	}, "\n")
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestHandler serves the exposition over HTTP with the text/plain
// content type scrapers expect, and TestParsePrometheus round-trips it
// through the scrape-side parser.
func TestHandlerAndParseRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_total", "").Add(11)
	reg.Gauge("rt_gauge", "").Set(2.5)
	reg.Histogram("rt_ns", "").Observe(500)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	m := ParsePrometheus(buf.Bytes())
	if m["rt_total"] != 11 {
		t.Fatalf("parsed counter wrong: %v", m)
	}
	if m["rt_gauge"] != 2.5 {
		t.Fatalf("parsed gauge %v", m["rt_gauge"])
	}
	if m["rt_ns_count"] != 1 {
		t.Fatalf("parsed histogram count %v", m["rt_ns_count"])
	}
}

// TestRegistryPanics pins the registration contract: duplicates and
// invalid names are programmer errors.
func TestRegistryPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup", "")
	for name, f := range map[string]func(){
		"duplicate":   func() { reg.Gauge("dup", "") },
		"empty":       func() { reg.Counter("", "") },
		"bad-charset": func() { reg.Counter("a-b", "") },
		"digit-first": func() { reg.Counter("9a", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: registration must panic", name)
				}
			}()
			f()
		}()
	}
}

// TestInstrumentsZeroAlloc gates the write paths at exactly zero
// allocations per operation — the property that lets the serving hot
// loops run with metrics enabled.
func TestInstrumentsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	reg := NewRegistry()
	c := reg.Counter("za_total", "")
	h := reg.HistogramVec("za_ns", "", 4)
	g := reg.Gauge("za_gauge", "")
	for name, f := range map[string]func(){
		"counter-add":       func() { c.Add(1) },
		"histogram-observe": func() { h.ObserveShard(3, 1234) },
		"gauge-set":         func() { g.Set(1.5) },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestHTTPServerDropsStalledRequest pins the header deadline of the
// shared server constructor: a peer that sends half a request line and
// then stalls is disconnected by the server, not held for ever.
func TestHTTPServerDropsStalledRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the header deadline")
	}
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(http.NotFoundHandler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	if srv.IdleTimeout <= 0 {
		t.Error("no idle deadline on keep-alive connections")
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
		t.Fatal(err)
	}
	// The server owes this connection nothing but the close (net/http
	// may send a 408 first): reading must end, well before the client's
	// own deadline.
	_ = conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
	start := time.Now()
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header deadline could have fired", waited, readHeaderTimeout)
	}
}
