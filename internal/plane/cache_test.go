package plane

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"egoist/internal/graph"
)

// size reports the current entry count.
func (c *rowCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// get returns src's row, computing it (or waiting for the computation
// another goroutine already started) as needed: resolve without the
// pair search and the admission rule, for the tests that exercise the
// row store itself.
func (c *rowCache) get(src int) *rowEntry {
	st := c.stats.Load()
	if e := c.find(src, st); e != nil {
		return e
	}
	return c.fill(src, st, false)
}

// cacheSnapshot compiles a small snapshot with a row-cache cap low
// enough that the tests below can push it over.
func cacheSnapshot(t *testing.T, n, capRows int) *Snapshot {
	t.Helper()
	wiring := randomWiring(n, 4, rand.New(rand.NewSource(31)))
	return Compile(0, wiring, nil, testNet(t, n), Options{RouteCacheRows: capRows})
}

// TestRowCacheOverCapBound pins the documented transient over-cap
// bound: under G concurrent workers the cache may hold up to cap+G
// entries (in-flight rows are never evicted), but once the misses
// resolve and one more get runs eviction, the population is back at
// cap. The bound is asserted against the cache's real counters — the
// resident population is exactly fills − evictions, and every get is
// classified exactly once as hit, miss, or singleflight collapse (two
// gets that miss the same source at once fill it once) — so the test
// watches the same signals /metrics exports instead of private LRU
// state.
func TestRowCacheOverCapBound(t *testing.T) {
	const n, capRows, g = 120, 8, 16
	snap := cacheSnapshot(t, n, capRows)
	var st cacheStats
	snap.rows.setStats(&st)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Every worker walks every source (offset by w), so sources
			// are contended: concurrent gets on one source collapse onto
			// a single Dijkstra.
			for i := 0; i < n; i++ {
				snap.rows.get((w + i) % n)
				// Fills first, evictions second: evictions only grow, so
				// the estimate never exceeds the true population at the
				// time the fill counter was read.
				if held := st.fills.Load() - st.evictions.Load(); held > capRows+g {
					t.Errorf("cache held %d rows, over-cap bound is cap+G = %d", held, capRows+g)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if total := st.hits.Load() + st.misses.Load() + st.collapses.Load(); total != g*n {
		t.Fatalf("hits+misses+collapses = %d, want one classification per get = %d", total, g*n)
	}

	// One more miss runs evictLocked with nothing in flight: the
	// steady-state population is the cap again (+1 transiently for the
	// in-flight row itself, which resolves before get returns... and is
	// then evictable, so bound at cap+1).
	snap.rows.get(0)
	if f, m := st.fills.Load(), st.misses.Load(); f > m {
		t.Fatalf("%d fills for %d misses: a row was computed nobody missed", f, m)
	}
	held := st.fills.Load() - st.evictions.Load()
	if held > capRows+1 {
		t.Fatalf("counters say %d rows held after misses drained, want <= cap+1 = %d", held, capRows+1)
	}
	if got := snap.rows.size(); int64(got) != held {
		t.Fatalf("fills-evictions = %d but cache holds %d entries — counters drifted from the population", held, got)
	}
}

// TestRowCacheCollapseCounter pins the singleflight-collapse signal
// deterministically: a get that joins a row another goroutine is still
// computing is counted as a collapse — not a hit, not a miss — before
// it blocks. This is the miss-storm indicator: collapses spiking while
// misses stay flat means many clients piled onto few cold rows.
func TestRowCacheCollapseCounter(t *testing.T) {
	const n = 10
	snap := cacheSnapshot(t, n, 4)
	var st cacheStats
	c := snap.rows
	c.setStats(&st)

	// An in-flight entry, constructed by hand (open done channel).
	c.mu.Lock()
	e := &rowEntry{src: 5, done: make(chan struct{})}
	c.entries[5] = e
	e.el = c.lru.PushFront(e)
	c.mu.Unlock()

	got := make(chan *rowEntry)
	go func() { got <- c.get(5) }()

	// The collapse is counted before the waiter blocks on the row.
	deadline := time.Now().Add(5 * time.Second)
	for st.collapses.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("collapse counter never moved while a get waited on an in-flight row")
		}
		time.Sleep(time.Millisecond)
	}

	// Resolve the row; the waiter returns it.
	c.mu.Lock()
	e.dist = make([]float64, n)
	e.parent = make([]int32, n)
	c.ready++
	c.mu.Unlock()
	close(e.done)
	if row := <-got; row != e {
		t.Fatal("waiter returned a different entry than the in-flight row")
	}
	if h, m, co := st.hits.Load(), st.misses.Load(), st.collapses.Load(); h != 0 || m != 0 || co != 1 {
		t.Fatalf("hits=%d misses=%d collapses=%d, want 0/0/1", h, m, co)
	}

	// A repeat get on the now-computed row is a plain hit.
	c.get(5)
	if h := st.hits.Load(); h != 1 {
		t.Fatalf("hits = %d after a warm get, want 1", h)
	}
}

// TestCarryIntoPreservesLRUOrder: carrying rows into a fresh cache must
// keep their recency order, or the first evictions in the new epoch
// would drop the hottest rows. Touch order in the source cache is
// 0..9 with 3 re-touched last; after two carries and an over-cap burst
// in the destination, 3 must still be resident and 4 (the coldest
// survivor boundary) evicted first.
func TestCarryIntoPreservesLRUOrder(t *testing.T) {
	const n = 60
	snap := cacheSnapshot(t, n, 32)
	for src := 0; src < 10; src++ {
		snap.rows.get(src)
	}
	snap.rows.get(3) // most recent

	keepAll := func(int, []float64, []int32) bool { return true }

	// Carry twice: order must survive chained carries (Patch chains do
	// exactly this every epoch).
	mid := newRowCache(snap, 32)
	snap.rows.carryInto(mid, keepAll)
	dst := newRowCache(snap, 10)
	mid.carryInto(dst, keepAll)

	if dst.size() != 10 {
		t.Fatalf("carried %d rows, want 10", dst.size())
	}
	// Expected recency, most recent first: 3, 9, 8, 7, 6, 5, 4, 2, 1, 0.
	want := []int{3, 9, 8, 7, 6, 5, 4, 2, 1, 0}
	i := 0
	dst.mu.Lock()
	for el := dst.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*rowEntry); i >= len(want) || e.src != want[i] {
			dst.mu.Unlock()
			t.Fatalf("LRU position %d holds src %d, want %d", i, e.src, want[i])
		}
		i++
	}
	dst.mu.Unlock()

	// Seed one more row into the full cache: the coldest carried row
	// (src 0) must be the one evicted.
	dst.seed(50, make([]float64, n), make([]int32, n), 0)
	dst.mu.Lock()
	_, kept3 := dst.entries[3]
	_, kept0 := dst.entries[0]
	dst.mu.Unlock()
	if !kept3 || kept0 {
		t.Fatalf("after over-cap seed: src 3 resident=%v (want true), src 0 resident=%v (want false)", kept3, kept0)
	}
}

// TestEvictionSkipsInFlightRows: an entry whose Dijkstra is still
// running must never be evicted — its waiters hold the entry and would
// otherwise block forever on a row the cache no longer owns. The test
// constructs in-flight entries by hand (open done channels) and drives
// eviction past them.
func TestEvictionSkipsInFlightRows(t *testing.T) {
	const n = 40
	snap := cacheSnapshot(t, n, 2)
	c := snap.rows

	// Two in-flight entries at the LRU tail.
	c.mu.Lock()
	for src := 30; src < 32; src++ {
		e := &rowEntry{src: src, done: make(chan struct{})}
		c.entries[src] = e
		e.el = c.lru.PushFront(e)
	}
	c.mu.Unlock()

	// Computed rows push the population far over cap; every eviction
	// pass walks the tail, where the in-flight entries sit.
	for src := 0; src < 8; src++ {
		c.get(src)
	}

	c.mu.Lock()
	for src := 30; src < 32; src++ {
		if _, ok := c.entries[src]; !ok {
			c.mu.Unlock()
			t.Fatalf("in-flight row %d was evicted", src)
		}
	}
	inFlight := 2
	if len(c.entries) > c.cap+inFlight {
		c.mu.Unlock()
		t.Fatalf("cache holds %d entries, want <= cap+inflight = %d", len(c.entries), c.cap+inFlight)
	}
	c.mu.Unlock()

	// Resolve them; the next get may now evict them like any row.
	c.mu.Lock()
	for src := 30; src < 32; src++ {
		e := c.entries[src]
		e.dist = make([]float64, n)
		e.parent = make([]int32, n)
		c.ready++
		close(e.done)
	}
	c.mu.Unlock()
	c.get(9)
	if got := c.size(); got > c.cap+1 {
		t.Fatalf("cache holds %d entries after rows resolved, want <= cap+1 = %d", got, c.cap+1)
	}
}

// TestCacheAdmission pins the admission rule in front of the
// rent-then-buy fill, at cap 4 with four hot sources resident:
//   - a stream of one-off cold sources, each asked until its searches
//     reach the buy threshold, evicts nothing: every fill is refused
//     and the miss is answered by a pair search;
//   - a refused source rents again from zero: its spent count is the
//     one search that answered the refused miss;
//   - once the hot set moves, the halved counts let the new hot sources
//     in within 4·halveEvery·n lookups, where without halving the old
//     rows' counts (2·halveEvery·n lookups each) would hold them off for
//     twice as long.
func TestCacheAdmission(t *testing.T) {
	const n, capRows = 150, 4
	snap := cacheSnapshot(t, n, capRows)
	var st cacheStats
	snap.rows.setStats(&st)
	period := halveEvery * n

	resident := func(srcs ...int) bool {
		snap.rows.mu.Lock()
		defer snap.rows.mu.Unlock()
		for _, src := range srcs {
			if e, ok := snap.rows.entries[src]; !ok || !isClosed(e.done) {
				return false
			}
		}
		return true
	}
	ask := func(src, q int) { snap.RouteCost(src, (src+1+q%(n-1))%n) }

	hot := []int{1, 2, 3, 4}
	for q := 0; q < 2*period; q++ {
		for _, src := range hot {
			ask(src, q)
		}
	}
	if !resident(hot...) || st.fills.Load() != capRows || st.evictions.Load() != 0 {
		t.Fatalf("hot sources %v not all resident after warm-up: %+v", hot, st.read())
	}

	for cold := 10; cold < 40; cold++ {
		for q := 0; ; q++ {
			if q == n {
				t.Fatalf("cold source %d was never refused", cold)
			}
			before := st.read()
			ask(cold, q)
			after := st.read()
			if after.Fills != before.Fills || after.Evictions != 0 {
				t.Fatalf("cold source %d was filled: %+v → %+v", cold, before, after)
			}
			if after.PairSearches != before.PairSearches+1 {
				t.Fatalf("cold source %d's miss was not answered by a pair search: %+v → %+v", cold, before, after)
			}
			if after.Refusals == before.Refusals {
				continue
			}
			if q == 0 {
				t.Fatalf("cold source %d refused on its first lookup", cold)
			}
			if got, want := int64(snap.rows.spent[cold].Load()), after.PairSettled-before.PairSettled; got != want {
				t.Fatalf("refused source %d spent %d, want the %d its one search settled", cold, got, want)
			}
			break
		}
	}
	if !resident(hot...) {
		t.Fatal("a cold source displaced a hot row")
	}

	moved := []int{50, 51, 52, 53}
	lookups := 0
	for q := 0; !resident(moved...); q++ {
		if lookups >= 4*period {
			t.Fatalf("new hot set %v not resident after %d lookups: %+v", moved, lookups, st.read())
		}
		for _, src := range moved {
			ask(src, q)
			lookups++
		}
	}
	if got := st.read(); got.PairSearches+got.Fills != got.Misses {
		t.Fatalf("searches + fills = %d, want the %d misses", got.PairSearches+got.Fills, got.Misses)
	}
	t.Logf("new hot set resident after %d lookups (halving every %d misses): %+v", lookups, period, st.read())
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// checkRoute fails unless snap's route src→dst is the DijkstraCSR row's:
// cost bits and path.
func checkRoute(t *testing.T, snap *Snapshot, src, dst int, dist []float64, parent []int32) {
	t.Helper()
	path, cost, ok := snap.RouteInto(src, dst, nil)
	if math.Float64bits(cost) != math.Float64bits(dist[dst]) || ok != (dist[dst] < graph.Inf) {
		t.Fatalf("epoch %d (%d,%d): cost %v, row says %v", snap.Epoch(), src, dst, cost, dist[dst])
	}
	for x, v := len(path)-1, dst; ok && v != -1; x, v = x-1, int(parent[v]) {
		if x < 0 || path[x] != int32(v) {
			t.Fatalf("epoch %d (%d,%d): path %v is not the row's", snap.Epoch(), src, dst, path)
		}
	}
}

// TestResidentRowsPruneMisses: with rows resident, a miss from a source
// outside them is pruned by them (graph.RowBound) — on a Compile
// snapshot, chained to the Lite's path bound, and on a CompileGraph one,
// which has no other bound — and settles fewer nodes than the same
// queries on a cold snapshot, while every answer stays the DijkstraCSR
// row's, cost bits and path.
func TestResidentRowsPruneMisses(t *testing.T) {
	const n, k, warm = 400, 4, 64
	net := testNet(t, n)
	wiring := randomWiring(n, k, rand.New(rand.NewSource(37)))
	for _, kind := range []struct {
		name    string
		compile func() *Snapshot
	}{
		{"Compile", func() *Snapshot { return Compile(0, wiring, nil, net, Options{}) }},
		{"CompileGraph", func() *Snapshot { return CompileGraph(0, overlayGraph(wiring, net), net, Options{}) }},
	} {
		t.Run(kind.name, func(t *testing.T) {
			cold, warmed := kind.compile(), kind.compile()
			for src := 0; src < warm; src++ {
				warmed.rows.get(src)
			}
			var sp graph.SPScratch
			dist, parent := make([]float64, n), make([]int32, n)
			rng := rand.New(rand.NewSource(41))
			for src := warm; src < n; src++ {
				sp.DijkstraCSR(cold.csr, src, dist, parent)
				for q := 0; q < 2; q++ {
					dst := rng.Intn(n)
					if dst == src {
						continue
					}
					checkRoute(t, cold, src, dst, dist, parent)
					checkRoute(t, warmed, src, dst, dist, parent)
				}
			}
			c, w := cold.rows.stats.Load().read(), warmed.rows.stats.Load().read()
			if c.PairSearches != w.PairSearches || w.Fills != warm {
				t.Fatalf("cold %+v, warmed %+v: the two did not answer the same misses by searches", c, w)
			}
			t.Logf("settled per search: %.1f cold, %.1f with %d rows resident", float64(c.PairSettled)/float64(c.PairSearches), float64(w.PairSettled)/float64(w.PairSearches), warm)
			if w.PairSettled >= c.PairSettled {
				t.Fatalf("resident rows left %d of the cold searches' %d settled nodes", w.PairSettled, c.PairSettled)
			}
		})
	}
}

// TestRowSlotsRace runs pair searches, which read the row slots without
// the lock, against fills and evictions of a small cache and against
// Patch, which carries the rows into a new snapshot's slots; every
// answer must stay the row's. Run it under -race.
func TestRowSlotsRace(t *testing.T) {
	const n, k, capRows = 160, 4, 6
	net := testNet(t, n)
	rng := rand.New(rand.NewSource(47))
	wiring := randomWiring(n, k, rng)
	snap := Compile(0, wiring, nil, net, Options{RouteCacheRows: capRows})
	changed := []int{5, 77}
	next := make([][]int, n)
	copy(next, wiring)
	for _, u := range changed {
		next[u] = randomWiring(n, k, rng)[u]
	}
	var ref [2][][]float64 // rows of snap's graph and of the patched one
	for i, s := range []*Snapshot{snap, Compile(1, next, nil, net, Options{})} {
		ref[i] = make([][]float64, n)
		for src := range ref[i] {
			ref[i][src] = make([]float64, n)
			new(graph.SPScratch).DijkstraCSR(s.csr, src, ref[i][src], make([]int32, n))
		}
	}
	var patched atomic.Pointer[Snapshot]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for q := 0; q < 600; q++ {
				s, want := snap, ref[0]
				if p := patched.Load(); p != nil && q%2 == 0 {
					s, want = p, ref[1]
				}
				switch src, dst := rng.Intn(n), rng.Intn(n); {
				case w == 0:
					s.rows.get(src) // fills past the cap: evictions
				case src != dst:
					if got := s.RouteCost(src, dst); math.Float64bits(got) != math.Float64bits(want[src][dst]) {
						t.Errorf("epoch %d (%d,%d): %v, row says %v", s.Epoch(), src, dst, got, want[src][dst])
						return
					}
				}
				if w == 1 && q == 200 {
					patched.Store(snap.Patch(1, changed, next, nil))
				}
			}
		}(w)
	}
	wg.Wait()
}
