package plane

import (
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"egoist/internal/obs"
)

// The testing.AllocsPerRun gates below run at GOMAXPROCS 1 —
// AllocsPerRun pins it there — so a route batch's misses all run on the
// caller in them. TestColdRouteBatchAllocsAtWidth2 gates the width-2
// path, where a batch starts a helper goroutine, with runtime.MemStats.

// allocServer builds a server with a published snapshot and
// pre-warms the rows the alloc gates will query, so every measured
// iteration runs the cache-warm path. Metrics are enabled: the gates
// hold for the instrumented paths — latency histogram observation and
// cache-counter classification included — not just the bare ones.
func allocServer(t *testing.T) (*Server, int) {
	t.Helper()
	const n, k = 120, 4
	net := testNet(t, n)
	wiring := randomWiring(n, k, rand.New(rand.NewSource(77)))
	srv := NewServer()
	srv.EnableMetrics(obs.NewRegistry())
	srv.Publish(Compile(0, wiring, nil, net, Options{}))
	return srv, n
}

// TestServeHotPathsZeroAlloc is the ISSUE 9 allocation gate: the
// one-hop path and the cache-warm route paths (cost, full path with a
// caller-owned buffer, binary batch answering with reused buffers) must
// not allocate per query. A regression here is a throughput regression
// in disguise — GC pressure scales with query rate.
func TestServeHotPathsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	srv, n := allocServer(t)

	// Warm the rows the route-mode gates touch.
	for src := 0; src < 8; src++ {
		if _, _, err := srv.RouteCost(src, n-1); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("onehop", func(t *testing.T) {
		dst := 1
		if got := testing.AllocsPerRun(200, func() {
			if _, _, err := srv.OneHop(0, dst); err != nil {
				t.Fatal(err)
			}
			dst = (dst + 1) % n
		}); got != 0 {
			t.Fatalf("Server.OneHop allocates %.1f/op, want 0", got)
		}
	})

	t.Run("route-cost-warm", func(t *testing.T) {
		src := 0
		if got := testing.AllocsPerRun(200, func() {
			if _, _, err := srv.RouteCost(src, n-1); err != nil {
				t.Fatal(err)
			}
			src = (src + 1) % 8
		}); got != 0 {
			t.Fatalf("Server.RouteCost allocates %.1f/op on warm rows, want 0", got)
		}
	})

	t.Run("append-route-warm", func(t *testing.T) {
		buf := make([]int32, 0, n)
		src := 0
		if got := testing.AllocsPerRun(200, func() {
			path, _, ok, err := srv.AppendRoute(src, n-1, buf)
			if err != nil || !ok {
				t.Fatalf("AppendRoute(%d,%d): ok=%v err=%v", src, n-1, ok, err)
			}
			buf = path[:0]
			src = (src + 1) % 8
		}); got != 0 {
			t.Fatalf("Server.AppendRoute allocates %.1f/op on warm rows, want 0", got)
		}
	})

	t.Run("binary-batch-warm", func(t *testing.T) {
		pairs := make([]uint32, 0, 16)
		for src := 0; src < 8; src++ {
			pairs = append(pairs, uint32(src), uint32(n-1))
		}
		for _, mode := range []byte{BinModeOneHop, BinModeRoute} {
			req := AppendBatchRequest(nil, mode, pairs)
			// First call grows the response buffer; steady state reuses it.
			resp, err := srv.AnswerBinary(req, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(200, func() {
				out, err := srv.AnswerBinary(req, resp[:0])
				if err != nil {
					t.Fatal(err)
				}
				resp = out
			}); got != 0 {
				t.Fatalf("Server.AnswerBinary(mode=%d) allocates %.1f/op on warm rows, want 0", mode, got)
			}
		}
	})

	// The TCP connection loop answering a pipelined burst with one
	// coalesced write: its reader, deadlines and buffers included.
	t.Run("binary-conn-burst", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go srv.ServeBinary(ln)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		burst, want := binBurst(t, srv, n, 4)
		answers := 0
		for _, w := range want {
			answers += 4 + len(w)
		}
		in := make([]byte, answers)
		round := func() {
			if _, err := conn.Write(burst); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, in); err != nil {
				t.Fatal(err)
			}
		}
		round() // grows the server's buffers
		if got := testing.AllocsPerRun(200, round); got != 0 {
			t.Fatalf("a binary connection answering a 4-frame burst allocates %.1f/op, want 0", got)
		}
	})
}

// TestColdRouteBatchAllocsAtWidth2 is the allocation gate of a route
// batch's fan-out. testing.AllocsPerRun pins GOMAXPROCS to 1, so the
// gates above only ever see pass 2 run its misses on the caller; this
// one counts runtime.MemStats mallocs at GOMAXPROCS 2, where every cold
// batch starts a helper goroutine. A batch of cold sources (pair
// searches only) allocates coldBatchAllocs objects, whether it has 16
// pairs or 64: the helper is started from a function value bound once
// per pooled scratch, and a goroutine's descriptor and stack are reused
// by the runtime, not malloc'd. The gate reads the mean per batch of a
// window of batches, truncated to an integer like AllocsPerRun's, and
// keeps the least of several windows: a pooled scratch is per P, so the
// first batch a goroutine answers on a P it has not used yet fills that
// P's pool once (a one-off that lands in one window), while an
// allocation every batch shows in all of them.
func TestColdRouteBatchAllocsAtWidth2(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	const coldBatchAllocs = 0
	const n, k, windows, runs = 2000, 4, 5, 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv := NewServer()
	srv.EnableMetrics(obs.NewRegistry())
	snap := Compile(0, randomWiring(n, k, rand.New(rand.NewSource(83))), nil, testNet(t, n), Options{})
	srv.Publish(snap)
	// Every source starts each batch renting afresh, so none reaches
	// its fill threshold.
	src, asked := 0, int64(0)
	var pairs []uint32
	var req, resp []byte
	batch := func(size int) {
		for s := range snap.rows.spent {
			snap.rows.spent[s].Store(0)
		}
		pairs = pairs[:0]
		for i := 0; i < size; i++ {
			src = src%(n-1) + 1
			pairs = append(pairs, uint32(src), 0)
		}
		req = AppendBatchRequest(req[:0], BinModeRoute, pairs)
		out, err := srv.AnswerBinary(req, resp[:0])
		if err != nil {
			t.Fatal(err)
		}
		resp = out
		asked += int64(size)
	}
	// Drop pooled scratch sized for other tests' snapshots, then let
	// both Ps' pools hold a scratch of this size.
	runtime.GC()
	runtime.GC()
	for i := 0; i < 8; i++ {
		batch(64)
	}
	for _, size := range []int{16, 64} {
		least := uint64(math.MaxUint64)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				batch(size)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.Mallocs-before.Mallocs)/runs)
		}
		if least != coldBatchAllocs {
			t.Errorf("a cold %d-pair route batch at GOMAXPROCS 2 allocates %d objects, want %d", size, least, coldBatchAllocs)
		}
	}
	if st := srv.CacheStats(); st.Fills != 0 || st.Hits != 0 || st.PairSearches != asked {
		t.Fatalf("the gate did not run on pair searches alone: %+v after %d pairs", st, asked)
	}
}
