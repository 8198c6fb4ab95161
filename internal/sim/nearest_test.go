package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"egoist/internal/underlay"
)

// siteNet places node v at site[v] of a Lite: nodes that share a site
// share its delays, so a proposer sees exact ties among them, broken by
// id. The tests keep the proposer alone at its site: there Lite prices
// a pair of one site at 0, below the access delay its bound assumes.
type siteNet struct {
	l    *underlay.Lite
	site []int
}

func (s siteNet) N() int                         { return len(s.site) }
func (s siteNet) Delay(i, j int) float64         { return s.l.Delay(s.site[i], s.site[j]) }
func (s siteNet) Cos(i, j int) float64           { return s.l.Cos(s.site[i], s.site[j]) }
func (s siteNet) CosThreshold(c float64) float64 { return s.l.CosThreshold(c) }
func (s siteNet) DelayAtLeast(i, j int, c float64) bool {
	return s.l.DelayAtLeast(s.site[i], s.site[j], c)
}

// exactBound proves Delay ≥ c by pricing it: the tightest bound a net
// could have, under which a selection that skipped a member tied with
// the k-th would show.
type exactBound struct{ ScaleNet }

func (b exactBound) Cos(i, j int) float64                  { return 0 }
func (b exactBound) CosThreshold(c float64) float64        { return math.Inf(-1) }
func (b exactBound) DelayAtLeast(i, j int, c float64) bool { return b.Delay(i, j) >= c }

// cmpByKey orders positions by key[x] ascending, ids[x] breaking ties.
// Distinct ids make that a strict total order.
func cmpByKey(key []float64, ids []int, xa, xb int) int {
	switch {
	case key[xa] < key[xb]:
		return -1
	case key[xa] > key[xb]:
		return 1
	}
	return ids[xa] - ids[xb]
}

// selectByKey, the reference the nearest selection is checked against,
// returns the k first positions of order under cmpByKey, in that order —
// order[:k] of the fully sorted slice, without sorting the rest: a
// bounded max-heap over order[:k] takes in every later position that
// beats its root, then only the heap is sorted. The order being strict
// and total, the result does not depend on how it was selected. order is
// permuted.
func selectByKey(order []int, key []float64, ids []int, k int) []int {
	if k <= 0 {
		return order[:0]
	}
	if k < len(order) {
		heap := order[:k]
		sift := func(x int) {
			for {
				top := x
				for c := 2*x + 1; c <= 2*x+2 && c < k; c++ {
					if cmpByKey(key, ids, heap[top], heap[c]) < 0 {
						top = c
					}
				}
				if top == x {
					return
				}
				heap[x], heap[top] = heap[top], heap[x]
				x = top
			}
		}
		for x := k/2 - 1; x >= 0; x-- {
			sift(x)
		}
		for x := k; x < len(order); x++ {
			if cmpByKey(key, ids, order[x], heap[0]) < 0 {
				heap[0], order[x] = order[x], heap[0]
				sift(0)
			}
		}
		order = heap
	}
	slices.SortFunc(order, func(xa, xb int) int { return cmpByKey(key, ids, xa, xb) })
	return order
}

// checkNearest compares w.nearest over ids (proposer i, the taken marks)
// with selectByKey over the exact delays of the members it may pick,
// for every k from 0 past the member count, with the net's own bound,
// with an exact one and without.
func checkNearest(t *testing.T, net ScaleNet, i int, ids []int, taken []int32) {
	t.Helper()
	var order []int
	key := make([]float64, len(ids))
	for x, v := range ids {
		if v != i && (taken == nil || taken[v] < 0) {
			order = append(order, x)
			key[x] = net.Delay(i, v)
		}
	}
	bound, _ := net.(nearBound)
	var w scaleWorker
	for k := 0; k <= len(order)+1; k++ {
		want := selectByKey(slices.Clone(order), key, ids, min(k, len(order)))
		for _, b := range []nearBound{bound, exactBound{net}, nil} {
			got := w.nearest(net.Delay, b, i, ids, k, taken)
			same := len(got) == len(want)
			for y := 0; same && y < len(got); y++ {
				same = got[y].x == want[y] && got[y].id == ids[want[y]] && got[y].d == key[want[y]]
			}
			if !same {
				t.Fatalf("k=%d, bound %T: nearest = %v, selectByKey = %v", k, b, got, want)
			}
		}
	}
}

// TestNearestMatchesSelectByKey: the pruned nearest selection returns
// selectByKey's positions in selectByKey's order over exact delays, on a
// plain Lite and on Lites whose nodes share sites (exact ties), with
// some members taken, for every k, and on a net without the bound. On a
// large scan the bound must also spare most of the Delay calls.
func TestNearestMatchesSelectByKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n, sites := 20+rng.Intn(60), 2+rng.Intn(30)
		l, err := underlay.NewLite(sites+1, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		net := siteNet{l: l, site: make([]int, n)}
		i := rng.Intn(n)
		for v := range net.site {
			net.site[v] = 1 + rng.Intn(sites) // the proposer alone at site 0
		}
		net.site[i] = 0
		ids := rng.Perm(n)[:1+rng.Intn(n)]
		taken := make([]int32, n)
		for v := range taken {
			taken[v] = int32(rng.Intn(3)) - 2 // a third taken
		}
		checkNearest(t, net, i, ids, taken)
		checkNearest(t, net, i, ids, nil)
		checkNearest(t, struct{ ScaleNet }{net}, i, ids, nil)
	}
	l, err := underlay.NewLite(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkNearest(t, l, 17, rand.New(rand.NewSource(1)).Perm(300), nil)
	calls := 0
	count := func(i, j int) float64 { calls++; return l.Delay(i, j) }
	var w scaleWorker
	w.nearest(count, l, 17, rand.New(rand.NewSource(2)).Perm(2000), 32, nil)
	if calls > 500 {
		t.Fatalf("nearest priced %d of 2000 members for k=32; the bound should skip most", calls)
	}
}

// FuzzNearestPruned compares the pruned nearest selection with
// selectByKey, as checkNearest does, at one fuzzer-chosen k on
// fuzzer-chosen sizes, site counts (few sites: many exact ties) and
// seeds.
func FuzzNearestPruned(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(4), uint8(10))
	f.Add(int64(2), uint16(300), uint8(200), uint8(40))
	f.Add(int64(3), uint16(9), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, sites uint8, k uint8) {
		if n < 2 || n > 2000 || sites == 0 {
			t.Skip()
		}
		l, err := underlay.NewLite(int(sites)+1, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		net := siteNet{l: l, site: make([]int, n)}
		i := rng.Intn(int(n))
		for v := range net.site {
			net.site[v] = 1 + rng.Intn(int(sites))
		}
		net.site[i] = 0
		ids := rng.Perm(int(n))
		order, key := []int{}, make([]float64, len(ids))
		for x, v := range ids {
			if v != i {
				order, key[x] = append(order, x), net.Delay(i, v)
			}
		}
		want := selectByKey(order, key, ids, min(int(k), len(order)))
		var w scaleWorker
		got := w.nearest(net.Delay, net, i, ids, int(k), nil)
		if len(got) != len(want) {
			t.Fatalf("nearest picked %d, selectByKey %d", len(got), len(want))
		}
		for y := range got {
			if got[y].x != want[y] {
				t.Fatalf("position %d: nearest %v, selectByKey %v", y, got, want)
			}
		}
	})
}
