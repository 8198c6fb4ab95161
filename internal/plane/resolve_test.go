package plane

import (
	"math"
	"math/rand"
	"testing"

	"egoist/internal/graph"
	"egoist/internal/obs"
)

// routeAnswer is one route query's full answer, for bit-for-bit
// comparison across the ways a snapshot can produce it.
type routeAnswer struct {
	ok   bool
	cost uint64
	path []int
}

func sameAnswer(a, b routeAnswer) bool {
	if a.ok != b.ok || a.cost != b.cost || len(a.path) != len(b.path) {
		return false
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return false
		}
	}
	return true
}

// answersOf asks snap for src→dst through every in-process entry point
// and fails unless they agree with each other.
func answersOf(t *testing.T, snap *Snapshot, src, dst int) routeAnswer {
	t.Helper()
	r, ok := snap.Route(src, dst)
	ans := routeAnswer{ok: ok, cost: math.Float64bits(r.Cost), path: r.Path}
	path32, cost, ok2 := snap.RouteInto(src, dst, nil)
	into := routeAnswer{ok: ok2, path: make([]int, len(path32))}
	for i, v := range path32 {
		into.path[i] = int(v)
	}
	if ok2 {
		into.cost = math.Float64bits(cost)
	} else if !math.IsInf(cost, 1) {
		t.Fatalf("RouteInto(%d,%d) unreachable with cost %v, want +Inf", src, dst, cost)
	}
	if len(into.path) == 0 {
		into.path = nil
	}
	if !sameAnswer(ans, into) {
		t.Fatalf("(%d,%d): Route says %+v, RouteInto %+v", src, dst, ans, into)
	}
	if rc := snap.RouteCost(src, dst); (rc < graph.Inf) != ok || (ok && math.Float64bits(rc) != ans.cost) {
		t.Fatalf("(%d,%d): RouteCost %v, Route says ok=%v cost=%v", src, dst, rc, ok, r.Cost)
	}
	return ans
}

// binaryAnswers asks the server for the panel in route mode.
func binaryAnswers(t *testing.T, srv *Server, panel [][2]int) []routeAnswer {
	t.Helper()
	var pairs []uint32
	for _, p := range panel {
		pairs = append(pairs, uint32(p[0]), uint32(p[1]))
	}
	resp, err := srv.AnswerBinary(AppendBatchRequest(nil, BinModeRoute, pairs), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, results, err := DecodeBatchResponse(resp, BinModeRoute, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]routeAnswer, len(results))
	for i, r := range results {
		if r.Status != BinOK {
			continue
		}
		out[i] = routeAnswer{ok: true, cost: math.Float64bits(r.Cost)}
		for _, v := range r.Path {
			out[i].path = append(out[i].path, int(v))
		}
	}
	return out
}

// TestRouteAnswersAgreeAcrossCacheStates is the serve-path
// differential: along a served Compile → 20×Patch chain, every route
// answer — cost bits, node ids, path order — is the same whether it
// came from a pair search on a cold cache, from the row the source
// earned once it crossed the fill threshold, from a row Patch carried,
// or from a fresh Compile whose rows were all computed up front. It
// runs on measured delays and on a tie-heavy net whose delays are
// small integers, a quarter of them zero, so equal-cost paths and
// zero-weight plateaus are everywhere. Every cold-panel source is
// distinct, so the first of its three entry points is always answered
// by a pair search; on the tie-heavy net a search settles a larger
// share of the graph, and the third may already find the source's row
// earned (coldFills bounds the fills the panel may cause).
func TestRouteAnswersAgreeAcrossCacheStates(t *testing.T) {
	const n, panel = 90, 40
	t.Run("delays", func(t *testing.T) { routeAnswersAgree(t, testNet(t, n), 3) })
	t.Run("ties", func(t *testing.T) {
		routeAnswersAgree(t, DelayFunc{Nodes: n, Fn: func(i, j int) float64 {
			return float64((i*7919 + j*104729) % 4)
		}}, panel)
	})
}

func routeAnswersAgree(t *testing.T, net DelayNet, coldFills int64) {
	const k = 3
	n := net.N()
	rng := rand.New(rand.NewSource(61))
	m := newMutableWiring(rng, n, k)
	srv := NewServer()
	chain := Compile(-1, m.wiring, m.active, net, Options{})
	srv.Publish(chain)
	for step := 0; step <= 20; step++ {
		if step > 0 {
			chain = chain.Patch(int64(step), m.churn(rng, k), m.wiring, m.active)
			srv.Publish(chain)
		}
		// Distinct sources, so hardly any earns its row while the cold
		// snapshot is being asked (three entry points, one search each).
		panel := make([][2]int, 40)
		for i, src := range rng.Perm(n)[:len(panel)] {
			panel[i] = [2]int{src, rng.Intn(n)}
		}
		panel[0][1] = panel[0][0] // a self pair

		cold := Compile(int64(step), m.wiring, m.active, net, Options{})
		var coldStats cacheStats
		cold.rows.setStats(&coldStats)
		full := Compile(int64(step), m.wiring, m.active, net, Options{RouteCacheRows: n})
		for src := 0; src < n; src++ {
			full.rows.get(src)
		}
		var fullStats cacheStats
		full.rows.setStats(&fullStats)

		want := make([]routeAnswer, len(panel))
		for i, p := range panel {
			want[i] = answersOf(t, full, p[0], p[1])
			if got := answersOf(t, cold, p[0], p[1]); !sameAnswer(got, want[i]) {
				t.Fatalf("step %d (%d,%d): pair search says %+v, the row %+v", step, p[0], p[1], got, want[i])
			}
		}
		if st := coldStats.read(); st.Fills > coldFills || st.PairSearches+st.Fills != st.Misses || st.PairSearches < 2*int64(len(panel)) {
			t.Fatalf("step %d: the cold snapshot did not answer (all but) everything by pair search: %+v", step, st)
		}
		if st := fullStats.read(); st.Misses != 0 || st.PairSearches != 0 {
			t.Fatalf("step %d: the pre-filled snapshot did not answer from rows alone: %+v", step, st)
		}
		// Past the threshold: the same cold snapshot, every source now
		// holding the row it would have earned.
		for _, p := range panel {
			cold.rows.get(p[0])
		}
		for i, p := range panel {
			if got := answersOf(t, cold, p[0], p[1]); !sameAnswer(got, want[i]) {
				t.Fatalf("step %d (%d,%d): filled row says %+v, want %+v", step, p[0], p[1], got, want[i])
			}
		}
		// The served chain: the panel plus one busy source, so searches,
		// a fill and hits on carried or fresh rows all answer within one
		// batch — asked through the server first, while the chain's cache
		// is as Patch left it, then through the snapshot API.
		for q := 0; q < 16; q++ {
			p := [2]int{panel[1][0], rng.Intn(n)}
			panel, want = append(panel, p), append(want, answersOf(t, full, p[0], p[1]))
		}
		for i, got := range binaryAnswers(t, srv, panel) {
			if !sameAnswer(got, want[i]) {
				t.Fatalf("step %d (%d,%d): AnswerBinary says %+v, want %+v", step, panel[i][0], panel[i][1], got, want[i])
			}
		}
		for i, p := range panel {
			if got := answersOf(t, chain, p[0], p[1]); !sameAnswer(got, want[i]) {
				t.Fatalf("step %d (%d,%d): the patched chain says %+v, want %+v", step, p[0], p[1], got, want[i])
			}
		}
	}
	if st := srv.CacheStats(); st.PairSearches == 0 || st.Fills == 0 || st.Hits == 0 {
		t.Fatalf("the served chain did not mix searches, fills and hits: %+v", st)
	}
}

// TestResolvePolicy pins the rent-then-buy rule: a cold source is
// answered by pair searches until they have settled as many nodes as
// its row would (the live count), is then filled exactly once, answers
// from the row afterwards — and starts renting again once evicted.
func TestResolvePolicy(t *testing.T) {
	const n, capRows, src = 150, 4, 7
	snap := cacheSnapshot(t, n, capRows)
	var st cacheStats
	snap.rows.setStats(&st)
	live := int64(snap.NumLive())

	maxSearch := int64(0)
	for q := 0; q < 200; q++ {
		before := st.read()
		snap.RouteCost(src, (src+1+q%(n-1))%n)
		after := st.read()
		if after.Fills == 0 {
			if after.PairSearches != before.PairSearches+1 {
				t.Fatalf("query %d: no row yet and no pair search ran: %+v", q, after)
			}
			if d := after.PairSettled - before.PairSettled; d > maxSearch {
				maxSearch = d
			}
			continue
		}
		if before.Fills == 0 {
			// The query that bought the row.
			if before.PairSettled < live || before.PairSettled > live+maxSearch {
				t.Fatalf("row filled after %d settled nodes, want within [live=%d, live+max search=%d]", before.PairSettled, live, live+maxSearch)
			}
			if after.PairSearches != before.PairSearches {
				t.Fatalf("the filling query also searched: %+v", after)
			}
			continue
		}
		if after.Hits != before.Hits+1 || after.PairSearches != before.PairSearches {
			t.Fatalf("query %d: a resident row did not answer: %+v → %+v", q, before, after)
		}
	}
	if got := st.read(); got.Fills != 1 || got.Hits == 0 || got.Hits+got.Misses != 200 {
		t.Fatalf("200 queries on one source: %+v, want 1 fill and hits+misses = 200", got)
	}

	// Push src out with rows of other sources.
	for other := 20; other < 20+capRows+1; other++ {
		snap.rows.get(other)
	}
	if st.evictions.Load() == 0 {
		t.Fatal("nothing was evicted")
	}
	before := st.read()
	snap.RouteCost(src, src+1)
	if after := st.read(); after.PairSearches != before.PairSearches+1 || after.Fills != before.Fills {
		t.Fatalf("an evicted source did not start renting again: %+v → %+v", before, after)
	}
}

// TestColdRoutesZeroAlloc: a route answered by pair search allocates
// nothing once the pooled scratch is warm — cost only, full path into a
// caller's buffer, and a route-mode binary batch. Every source is cold
// and stays below the fill threshold throughout.
func TestColdRoutesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	const n, k, runs = 700, 4, 100
	srv := NewServer()
	srv.EnableMetrics(obs.NewRegistry())
	srv.Publish(Compile(0, randomWiring(n, k, rand.New(rand.NewSource(83))), nil, testNet(t, n), Options{}))
	src := 0
	next := func() int { src++; return src % n }

	if got := testing.AllocsPerRun(runs, func() {
		if _, _, err := srv.RouteCost(next(), n/2); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Server.RouteCost allocates %.1f/op on cold sources, want 0", got)
	}
	buf := make([]int32, 0, n)
	if got := testing.AllocsPerRun(runs, func() {
		path, _, _, err := srv.AppendRoute(next(), n/2, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = path[:0]
	}); got != 0 {
		t.Fatalf("Server.AppendRoute allocates %.1f/op on cold sources, want 0", got)
	}
	pairs := make([]uint32, 8)
	var req []byte
	resp, err := srv.AnswerBinary(AppendBatchRequest(nil, BinModeRoute, []uint32{1, 2, 3, 4, 5, 6, 7, 8}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(runs, func() {
		for i := 0; i < len(pairs); i += 2 {
			pairs[i], pairs[i+1] = uint32(next()), uint32(n/2)
		}
		req = AppendBatchRequest(req[:0], BinModeRoute, pairs)
		out, err := srv.AnswerBinary(req, resp[:0])
		if err != nil {
			t.Fatal(err)
		}
		resp = out
	}); got != 0 {
		t.Fatalf("Server.AnswerBinary(route) allocates %.1f/op on cold sources, want 0", got)
	}
	if st := srv.CacheStats(); st.Fills != 0 || st.Hits != 0 || st.PairSearches < 6*runs {
		t.Fatalf("the gates did not run on pair searches alone: %+v", st)
	}
}
