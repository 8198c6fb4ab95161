package plane

import (
	"math/rand"
	"testing"

	"egoist/internal/obs"
)

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
}
