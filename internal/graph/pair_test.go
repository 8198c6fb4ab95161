package graph

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"egoist/internal/underlay"
)

// Weight classes of the CSR differentials. Continuous weights are what
// the data plane serves (tie-free); the other three manufacture ties,
// absorbed sums and zero-weight plateaus — where only the canonical
// tie rule keeps the parents order-independent — and sums whose float
// value depends on association.
const (
	pairContinuous = iota
	pairSmallInt
	pairFractional // 0.1·k + 0.3: not representable, association shows
	pairZeroHeavy
	pairClasses
)

func pairWeight(class int, rng *rand.Rand) float64 {
	switch class {
	case pairSmallInt:
		return float64(1 + rng.Intn(4))
	case pairFractional:
		return 0.1*float64(rng.Intn(10)) + 0.3
	case pairZeroHeavy:
		return float64(rng.Intn(3)) // a third of the arcs weigh nothing
	}
	return 1 + rng.Float64()*99
}

// pairGraph draws a sparse CSR with the shapes a search can trip on:
// isolated nodes, dead ends (in-arcs only), sources nobody reaches,
// parallel arcs with equal and different weights.
func pairGraph(n, class int, rng *rand.Rand) *CSR {
	deg := 1 + rng.Intn(5)
	return NewCSR(n, func(u int) []Arc {
		if rng.Intn(10) == 0 {
			return nil
		}
		var arcs []Arc
		for a := rng.Intn(deg + 1); a > 0; a-- {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			arcs = append(arcs, Arc{To: v, W: pairWeight(class, rng)})
			if rng.Intn(10) == 0 {
				arcs = append(arcs, Arc{To: v, W: pairWeight(class, rng)}, arcs[len(arcs)-1])
			}
		}
		return arcs
	})
}

// liteGraph is the data plane's shape in small: n Lite sites (underlay
// seed useed), each live node wired to up to k random live others
// (wiring seed wseed), about depart tenths of the nodes departed with
// no arcs in or out, every arc priced by Delay. The Lite is the bound
// such a graph is searched under.
func liteGraph(n, k int, useed, wseed int64, depart int) (*CSR, *underlay.Lite) {
	net, err := underlay.NewLite(n, useed)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(wseed))
	live := make([]bool, n)
	for u := range live {
		live[u] = rng.Intn(10) >= depart
	}
	var arcs []Arc
	return NewCSR(n, func(u int) []Arc {
		arcs = arcs[:0]
		for a := 0; a < k && live[u]; a++ {
			if v := rng.Intn(n); v != u && live[v] {
				arcs = append(arcs, Arc{To: v, W: net.Delay(u, v)})
			}
		}
		return arcs
	}), net
}

// checkAllPairs compares PairCSR under bound b (nil: none) with
// DijkstraCSR's row for every ordered pair of c, on the caller's
// (reused) scratch: distance bits and the whole parent chain. Each
// search is also pruned by rows (exact rows of c), offered to ps.Rows
// the way the route cache offers its resident rows. It returns how many
// pairs had a path.
func checkAllPairs(t *testing.T, c *CSR, ps *PairScratch, b PathBound, rows [][]float64) (reachable int) {
	t.Helper()
	n := c.N()
	dist, parent := make([]float64, n), make([]int32, n)
	for src := 0; src < n; src++ {
		ps.DijkstraCSR(c, src, dist, parent)
		for dst := 0; dst < n; dst++ {
			ps.Rows.Reset(b)
			for _, r := range rows {
				ps.Rows.Offer(r, src, dst)
			}
			d := ps.PairCSR(c, src, dst, ps.Rows.Bound())
			if math.Float64bits(d) != math.Float64bits(dist[dst]) {
				t.Fatalf("n=%d (%d,%d): PairCSR dist %v (%x), row says %v (%x)", n, src, dst, d, math.Float64bits(d), dist[dst], math.Float64bits(dist[dst]))
			}
			if ps.FellBack() {
				t.Fatalf("n=%d (%d,%d): the search re-ran unpruned on an input its bound holds for", n, src, dst)
			}
			if ps.Settled() > 2*n {
				t.Fatalf("n=%d (%d,%d): settled %d nodes, two searches can settle at most %d", n, src, dst, ps.Settled(), 2*n)
			}
			if d >= Inf || src == dst {
				continue
			}
			reachable++
			got := ps.Parent()
			for v, hops := dst, 0; v != src; v, hops = int(parent[v]), hops+1 {
				if got[v] != parent[v] {
					t.Fatalf("n=%d (%d,%d): parent[%d] = %d, row says %d", n, src, dst, v, got[v], parent[v])
				}
				if hops > n {
					t.Fatalf("n=%d (%d,%d): parent chain does not reach src", n, src, dst)
				}
			}
		}
	}
	return reachable
}

// TestPairCSRFallbackShowsBadBound: under a bound that does not hold —
// the Lite of a graph whose arcs weigh Delay/4 — the pruned search cuts
// dst's in-neighbours and ends short of dst. PairCSR still answers the
// row, by re-running unpruned, and FellBack says so: that flag is the
// only trace a misapplied bound leaves.
func TestPairCSRFallbackShowsBadBound(t *testing.T) {
	lite, net := liteGraph(60, 4, 3, 4, 1)
	n := lite.N()
	c := NewCSR(n, func(u int) (out []Arc) {
		for x := lite.off[u]; x < lite.off[u+1]; x++ {
			out = append(out, Arc{To: int(lite.to[x]), W: lite.w[x] / 4})
		}
		return out
	})
	var ps PairScratch
	dist, parent := make([]float64, n), make([]int32, n)
	fellBack := 0
	for src := 0; src < n; src++ {
		ps.DijkstraCSR(c, src, dist, parent)
		for dst := 0; dst < n; dst++ {
			if d := ps.PairCSR(c, src, dst, net); math.Float64bits(d) != math.Float64bits(dist[dst]) {
				t.Fatalf("(%d,%d): PairCSR %v under the overstating bound, row says %v", src, dst, d, dist[dst])
			}
			if ps.FellBack() {
				fellBack++
			}
		}
	}
	t.Logf("%d of %d searches fell back", fellBack, n*n)
	if fellBack == 0 {
		t.Fatal("no search fell back under a bound four times the paths it prunes")
	}
}

// TestPairCSRMatchesRow is the exactness pin: on every ordered pair of
// random graphs of every weight class — ties, absorbed sums and
// zero-weight plateaus included — PairCSR's distance is Float64bits-equal
// to the row's (so unreachable ⇔ +Inf) and its parent chain is the
// row's, node for node. Lite-priced graphs are searched under the
// Lite's path bound.
func TestPairCSRMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var ps PairScratch
	var reachable [pairClasses + 1]int
	for trial := 0; trial < 300; trial++ {
		class := trial % (pairClasses + 1)
		if class == pairClasses {
			c, net := liteGraph(2+rng.Intn(60), 1+rng.Intn(6), rng.Int63(), rng.Int63(), rng.Intn(4))
			reachable[class] += checkAllPairs(t, c, &ps, net, nil)
			continue
		}
		reachable[class] += checkAllPairs(t, pairGraph(2+rng.Intn(45), class, rng), &ps, nil, nil)
	}
	for class, r := range reachable {
		if r == 0 {
			t.Fatalf("class %d: no reachable pair — the generator stopped exercising the path check", class)
		}
	}
}

// FuzzPairCSR builds the graph from the fuzzer's bytes: n, weight
// class, then (tail, head, weight) triples, isolated nodes and parallel
// arcs falling out of whatever the bytes say. One class past the weight
// classes is the Lite leg: then the bytes are n, k, underlay seed,
// wiring seed and departed tenths of a liteGraph searched under its
// Lite's path bound. The class after it is the cached-rows leg: byte 2
// names a Lite graph (odd) or a continuous one, and how many of the
// last bytes (byte 2 / 2 mod 9) are row sources; the rest, byte 2
// dropped, builds that graph, whose searches are then pruned by the
// sources' rows as well.
func FuzzPairCSR(f *testing.F) {
	f.Add([]byte{5, pairZeroHeavy, 0, 1, 0, 1, 2, 0, 0, 2, 0, 2, 4, 1, 3, 4, 2})
	f.Add([]byte{9, pairFractional, 0, 1, 3, 1, 2, 4, 0, 2, 7, 2, 3, 1, 0, 3, 9, 3, 8, 2})
	f.Add([]byte{12, pairContinuous, 0, 5, 200, 5, 7, 13, 7, 0, 99, 0, 7, 45, 11, 5, 1})
	f.Add([]byte{40, pairClasses, 3, 7, 11, 2})
	f.Add([]byte{60, pairClasses, 7, 42, 5, 0})
	f.Add([]byte{40, pairClasses + 1, 2*5 + 1, 3, 7, 11, 2, 0, 9, 17, 25, 33})
	f.Add([]byte{12, pairClasses + 1, 2 * 3, 0, 5, 200, 5, 7, 13, 7, 0, 99, 0, 7, 45, 11, 5, 1, 0, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var srcs []byte
		if data[1]%(pairClasses+2) == pairClasses+1 && len(data) > 2 {
			m := min(int(data[2]/2)%9, len(data)-3)
			srcs = data[len(data)-m:]
			data = append([]byte{data[0], byte(pairContinuous + int(data[2]%2)*pairClasses)}, data[3:len(data)-m]...)
		}
		c, b := fuzzGraph(data)
		var rows [][]float64
		for _, h := range srcs {
			row, parent := make([]float64, c.N()), make([]int32, c.N())
			new(SPScratch).DijkstraCSR(c, int(h)%c.N(), row, parent)
			rows = append(rows, row)
		}
		var ps PairScratch
		checkAllPairs(t, c, &ps, b, rows)
	})
}

// fuzzGraph is FuzzPairCSR's graph of data and its path bound (nil off
// the Lite leg).
func fuzzGraph(data []byte) (*CSR, PathBound) {
	n, class := 2+int(data[0])%30, int(data[1])%(pairClasses+1)
	if class == pairClasses {
		data = append(data[:len(data):len(data)], 0, 0, 0, 0) // a copy: bytes the fuzzer left out read 0
		return liteGraph(2+int(data[0])%80, 1+int(data[2])%8, int64(data[3]), int64(data[4]), int(data[5])%5)
	}
	adj := make([][]Arc, n)
	for x := 2; x+2 < len(data); x += 3 {
		u, v, b := int(data[x])%n, int(data[x+1])%n, float64(data[x+2])
		if u == v {
			continue
		}
		w := 1 + b*0.37
		switch class {
		case pairSmallInt:
			w = 1 + math.Mod(b, 4)
		case pairFractional:
			w = 0.1*math.Mod(b, 10) + 0.3
		case pairZeroHeavy:
			w = math.Mod(b, 3)
		}
		adj[u] = append(adj[u], Arc{To: v, W: w})
	}
	return NewCSR(n, func(u int) []Arc { return adj[u] }), nil
}

// TestReverseCSR: the in-arc view holds every arc once, ascending by
// tail, with its weight.
func TestReverseCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := pairGraph(40, pairSmallInt, rng)
	r := c.Reverse()
	if r != c.Reverse() {
		t.Fatal("Reverse built twice")
	}
	if r.N() != c.N() || r.NumArcs() != c.NumArcs() {
		t.Fatalf("shape %d/%d, want %d/%d", r.N(), r.NumArcs(), c.N(), c.NumArcs())
	}
	type arc struct {
		u, v int32
		w    float64
	}
	want := map[arc]int{}
	for u := 0; u < c.N(); u++ {
		to, w := c.Out(u)
		for x := range to {
			want[arc{int32(u), to[x], w[x]}]++
		}
	}
	for v := 0; v < r.N(); v++ {
		from, w := r.Out(v)
		for x := range from {
			if x > 0 && from[x] < from[x-1] {
				t.Fatalf("in-arcs of %d not ascending by tail: %v", v, from)
			}
			want[arc{from[x], int32(v), w[x]}]--
		}
	}
	for a, left := range want {
		if left != 0 {
			t.Fatalf("arc %v: forward and reverse counts differ by %d", a, left)
		}
	}
}

// servedFixture loads the overlay the repository benchmark serves
// (read-only, from the nested module's directory) priced the way
// egoist-route prices it, with the Lite that prices it, or skips.
func servedFixture(tb testing.TB) (*CSR, *underlay.Lite) {
	tb.Helper()
	data, err := os.ReadFile("../../benchmark/fixtures/wiring-n2500-k8.json")
	if err != nil {
		tb.Skipf("fixture not available: %v", err)
	}
	var wf struct {
		N      int     `json:"n"`
		Seed   int64   `json:"seed"`
		Wiring [][]int `json:"wiring"`
	}
	if err := json.Unmarshal(data, &wf); err != nil {
		tb.Fatal(err)
	}
	net, err := underlay.NewLite(wf.N, wf.Seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	var arcs []Arc
	return NewCSR(wf.N, func(u int) []Arc {
		arcs = arcs[:0]
		for _, v := range wf.Wiring[u] {
			arcs = append(arcs, Arc{To: v, W: net.Delay(u, v)})
		}
		return arcs
	}), net
}

// BenchmarkPairCSR is the kernel ratio the serve path's miss policy
// rests on: one whole row against one pair search on the served
// fixture, unbounded and under the Lite's path bound, with the nodes
// each settles. A pair search that settles half a row or more fails
// it: renting would then never pay.
func BenchmarkPairCSR(b *testing.B) {
	c, net := servedFixture(b)
	n := c.N()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	var ps PairScratch
	dist, parent := make([]float64, n), make([]int32, n)
	b.Run("row", func(b *testing.B) {
		settled := 0
		for i := 0; i < b.N; i++ {
			ps.DijkstraCSR(c, pairs[i%len(pairs)][0], dist, parent)
			for _, d := range dist {
				if d < Inf {
					settled++
				}
			}
		}
		b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
	})
	for _, leg := range []struct {
		name  string
		bound PathBound
	}{{"pair", nil}, {"pair-bound", net}} {
		b.Run(leg.name, func(b *testing.B) {
			c.Reverse()
			b.ResetTimer()
			settled := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				ps.PairCSR(c, p[0], p[1], leg.bound)
				settled += ps.Settled()
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
			if settled/b.N >= n/2 {
				b.Fatalf("a pair search settles %d nodes on average, half a row is %d", settled/b.N, n/2)
			}
		})
	}
}

// TestPairCSRServedFixture runs the differential where it matters: on
// the served overlay, 40 sources × 75 destinations, unbounded and under
// the Lite's path bound. Both must be the row; the bound must settle at
// most 3/4 of what the unbounded search does.
func TestPairCSRServedFixture(t *testing.T) {
	c, net := servedFixture(t)
	n := c.N()
	rng := rand.New(rand.NewSource(5))
	var ps PairScratch
	dist, parent := make([]float64, n), make([]int32, n)
	var settled [2]int
	pairs := 0
	for s := 0; s < 40; s++ {
		src := rng.Intn(n)
		ps.DijkstraCSR(c, src, dist, parent)
		for q := 0; q < 75; q++ {
			dst := rng.Intn(n)
			for leg, b := range []PathBound{nil, net} {
				d := ps.PairCSR(c, src, dst, b)
				if math.Float64bits(d) != math.Float64bits(dist[dst]) {
					t.Fatalf("(%d,%d) bound %v: PairCSR %v, row says %v", src, dst, b != nil, d, dist[dst])
				}
				for v := dst; v != src; v = int(parent[v]) {
					if ps.Parent()[v] != parent[v] {
						t.Fatalf("(%d,%d) bound %v: parent[%d] = %d, row says %d", src, dst, b != nil, v, ps.Parent()[v], parent[v])
					}
				}
				settled[leg] += ps.Settled()
			}
			pairs++
		}
	}
	plain, bounded := float64(settled[0])/float64(pairs), float64(settled[1])/float64(pairs)
	t.Logf("settled per pair: %.1f unbounded, %.1f bounded", plain, bounded)
	if plain > float64(n/2) {
		t.Fatalf("a pair search settles %.0f nodes on average, more than half a row (%d)", plain, n)
	}
	if bounded > 0.75*plain {
		t.Fatalf("the path bound settles %.1f nodes per pair, more than 3/4 of the unbounded %.1f", bounded, plain)
	}
}

// BenchmarkPairCSRRows is the served miss in the kernel: on the served
// fixture with 256 resident rows, a pair search from a source outside
// them under the Lite's path bound, without rows and with the rows the
// route cache would pass (each resident row offered, the best kept), the
// offering included in the time.
func BenchmarkPairCSRRows(b *testing.B) {
	c, net := servedFixture(b)
	n := c.N()
	rng := rand.New(rand.NewSource(2))
	perm := rng.Perm(n)
	var ps PairScratch
	rows := make([][]float64, 256)
	parent := make([]int32, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		ps.DijkstraCSR(c, perm[i], rows[i], parent)
	}
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{perm[len(rows)+rng.Intn(n-len(rows))], rng.Intn(n)}
	}
	c.Reverse()
	for _, leg := range []struct {
		name string
		rows [][]float64
	}{{"no-rows", nil}, {"rows", rows}} {
		b.Run(leg.name, func(b *testing.B) {
			settled := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				ps.Rows.Reset(net)
				for _, r := range leg.rows {
					ps.Rows.Offer(r, p[0], p[1])
				}
				ps.PairCSR(c, p[0], p[1], ps.Rows.Bound())
				settled += ps.Settled()
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}

// TestRowBoundSound: a row bound never proves a c above the true u→v
// distance (a fresh DijkstraCSR(u)'s, up to pairEps) on random graphs
// with zero, tied, tiny and 1e6-scale weights, the last two mixed so
// that a row's difference carries the rounding of a 1e6 sum into a
// 1e-9 arc, and weights near the float maximum, whose sums overflow to
// +Inf in a row though the pair's own arc is finite. Unreachable pairs
// and u = v are among the pairs. Each row is tried alone and all of
// them through Offer's selection; Offer must keep the rows with the
// largest differences.
func TestRowBoundSound(t *testing.T) {
	weights := []func(*rand.Rand) float64{
		func(rng *rand.Rand) float64 { return float64(rng.Intn(3)) },
		func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(3)) },
		func(rng *rand.Rand) float64 { return 1e-9 * (1 + rng.Float64()) },
		func(rng *rand.Rand) float64 { return 1e6 * (1 + rng.Float64()) },
		func(rng *rand.Rand) float64 { return []float64{1e-9, 1e6}[rng.Intn(2)] * (1 + rng.Float64()) },
		func(rng *rand.Rand) float64 { return 0x1p1022 * (1 + rng.Float64()) },
	}
	rng := rand.New(rand.NewSource(43))
	var ps PairScratch
	var rb RowBound
	proved := 0
	for trial := 0; trial < 240; trial++ {
		weight := weights[trial%len(weights)]
		n := 2 + rng.Intn(30)
		c := NewCSR(n, func(u int) (arcs []Arc) {
			for a := rng.Intn(4); a > 0; a-- {
				if v := rng.Intn(n); v != u {
					arcs = append(arcs, Arc{To: v, W: weight(rng)})
				}
			}
			return arcs
		})
		rows, parent := make([][]float64, n), make([]int32, n)
		for h := range rows {
			rows[h] = make([]float64, n)
			ps.DijkstraCSR(c, h, rows[h], parent)
		}
		check := func(b PathBound, u, v int, what string) {
			d := rows[u][v]
			if d == Inf {
				return
			}
			if c := math.Nextafter(d*(1+pairEps), Inf); b.PathAtLeast(u, v, c) {
				t.Fatalf("trial %d %s: proves %d→%d costs at least %v, it costs %v", trial, what, u, v, c, d)
			}
			if b.PathAtLeast(u, v, Inf) {
				t.Fatalf("trial %d %s: proves %d→%d unreachable, it costs %v", trial, what, u, v, d)
			}
			if b.PathAtLeast(u, v, d*(1-1e-6)-1e-300) {
				proved++
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for h := range rows {
					rb.Reset(nil)
					rb.Offer(rows[h], h, h) // kept whatever its entries at u and v
					check(&rb, u, v, "one row")
				}
				rb.Reset(nil)
				for _, r := range rows {
					rb.Offer(r, u, v)
				}
				var keys []float64
				for _, r := range rows {
					if r[v] < Inf {
						keys = append(keys, r[v]-r[u])
					}
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(keys)))
				if want := min(len(keys), rowBoundRows); rb.k != want || !slices.Equal(rb.keys[:rb.k], keys[:want]) {
					t.Fatalf("trial %d (%d,%d): Offer kept %v, the largest differences are %v", trial, u, v, rb.keys[:rb.k], keys)
				}
				check(&rb, u, v, "offered rows")
			}
		}
	}
	if proved == 0 {
		t.Fatal("no bound proved anything: the test exercises nothing")
	}
}
