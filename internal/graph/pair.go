package graph

// Exact point-to-point search on a CSR: the answer DijkstraCSR's row
// would hold at one destination, path included, for a fraction of the
// row's work.
//
// A backward Dijkstra from dst over the in-arcs alternates with the
// forward settle loop from src. Every arc one side relaxes into a node
// the other side has labelled closes a real src→dst path; mu is the
// shortest one seen. Once the two frontiers' radii sum past mu the
// backward side stops, and the forward side runs on to the pop of dst,
// skipping every node v whose label plus a lower bound on v→dst —
// min(bdist[v], radius), or an optional PathBound's — exceeds mu. The
// PathBound also stops the backward side labelling a node u whose label
// plus its bound on src→u exceeds mu; it never enters a heap key.
//
// Why the result is DijkstraCSR's, parents included. Only a label whose
// path runs within float rounding of the answer can reach dst's chain;
// any other arrives with a strictly larger dist. Re-association moves a
// 10⁵-hop sum by less than 2e-11 relative and the skip tests leave
// pairEps = 1e-9 of slack, so no such node is skipped, nor refused a
// backward label: each gets its exact one or sits behind a heap entry
// no cheaper, so min(bdist, radius) stays below its distance to dst. The
// forward loop makes the row's relaxations among them, and since
// settleCSR's labels are unique it assigns the row's labels. Where that
// argument fails (sums overflowing to +Inf) the loop ends without
// popping dst though mu says a path exists, and PairCSR re-runs it
// unpruned.

// pairEps is the relative slack of PairCSR's pruning tests.
const pairEps = 1e-9

// PathBound bounds a CSR's paths from below: PathAtLeast(u, v, c)
// reports that every u→v path, the empty one when u = v, costs at
// least c up to pairEps of its float fold; false means only "not
// proven". underlay.Lite is one for the arcs it prices.
type PathBound interface {
	PathAtLeast(u, v int, c float64) bool
}

// rowBoundRows is how many rows a RowBound keeps.
const rowBoundRows = 4

// RowBound is a PathBound from exact rows of one CSR c: rows DijkstraCSR
// computed over c, of any sources, held in front of an optional next
// bound. A row r of source h proves every u→v path costs at least
// r[v] − r[u] less a margin, when r[v] < +Inf: in reals
// d(u,v) ≥ d(h,v) − d(h,u). Each finite entry is the float fold of the
// at most n−1 non-negative arcs of h's tree path, so with γ = (n−1)·2^-53
// to first order r[u] ≥ (1−γ)·d(h,u), and r[v] ≤ (1+γ)·d(h,v), because a
// label is at most the fold along any path (rounding is monotone). Hence
// d(u,v) ≥ r[v] − r[u] − 2γ·(r[u] + r[v]). The margin n·2^-51·(r[u] + r[v])
// is about twice 2γ's, and the rest covers the test's own roundings
// (each 2^-53 relative, of terms at most r[u] + r[v]). So the bound is on
// the real cost, and pairEps covers the float fold of the u→v path the
// caller compares with. The guard r[v] < +Inf matters where h's sums
// overflow: there +Inf does not mean v is out of reach.
type RowBound struct {
	rows [rowBoundRows][]float64
	keys [rowBoundRows]float64 // rows[i][dst] − rows[i][src] at Offer, descending
	k    int
	next PathBound
}

// Reset empties b and chains it in front of next (nil: none).
func (b *RowBound) Reset(next PathBound) { b.k, b.next = 0, next }

// Offer considers row r for a search src→dst and keeps the rowBoundRows
// rows with the largest r[dst] − r[src], the bound each gives the pair.
func (b *RowBound) Offer(r []float64, src, dst int) {
	key := r[dst] - r[src]
	if !(r[dst] < Inf) || b.k == rowBoundRows && !(key > b.keys[b.k-1]) {
		return
	}
	i := min(b.k, rowBoundRows-1)
	for ; i > 0 && key > b.keys[i-1]; i-- {
		b.rows[i], b.keys[i] = b.rows[i-1], b.keys[i-1]
	}
	b.rows[i], b.keys[i], b.k = r, key, min(b.k+1, rowBoundRows)
}

// Bound returns b as a PathBound, or its next bound while it holds no row.
func (b *RowBound) Bound() PathBound {
	if b.k == 0 {
		return b.next
	}
	return b
}

// PathAtLeast reports that some kept row, or the next bound, proves
// every u→v path costs at least c.
func (b *RowBound) PathAtLeast(u, v int, c float64) bool {
	for _, r := range b.rows[:b.k] {
		if rv, ru := r[v], r[u]; rv < Inf && rv-ru >= c+float64(len(r))*0x1p-51*(rv+ru) {
			return true
		}
	}
	return b.next != nil && b.next.PathAtLeast(u, v, c)
}

// PairScratch holds the reusable state of PairCSR; after a call it
// also holds the path found (Parent). The embedded SPScratch is the
// forward heap, so one pooled PairScratch serves a caller that
// sometimes needs the whole row; Rows is the row bound a caller may
// fill and pass to it. One scratch serves one goroutine.
type PairScratch struct {
	SPScratch
	Rows    RowBound
	bh      dheap
	fdist   []float64
	bdist   []float64
	fparent []int32
	touched []int32 // nodes labelled by either side since the last reset
	settled int
	rerun   bool // the last call re-ran its search unpruned

	// The backward side and the bound it gives the forward loop.
	rev      *CSR
	bound    PathBound // nil: no bound beyond the backward side's
	src, dst int32
	mu       float64 // shortest src→dst path closed so far
	radius   float64 // no node the backward side has not settled is closer to dst
	backward bool    // the backward side still runs
}

// reset returns the label arrays to +Inf by undoing the previous
// call's writes — a search touches a few hundred nodes, not n.
func (s *PairScratch) reset(n int) {
	if len(s.fdist) != n {
		s.fdist, s.bdist = make([]float64, n), make([]float64, n)
		s.fparent = make([]int32, n)
		for i := range s.fdist {
			s.fdist[i], s.bdist[i] = Inf, Inf
		}
		s.touched = s.touched[:0]
	}
	for _, v := range s.touched {
		s.fdist[v], s.bdist[v] = Inf, Inf
	}
	s.touched = s.touched[:0]
	s.settled = 0
	s.rerun = false
}

// Settled reports how many nodes the last PairCSR call expanded, both
// sides together — the unit DijkstraCSR spends c.N() of on a connected
// graph.
func (s *PairScratch) Settled() int { return s.settled }

// FellBack reports whether the last PairCSR call found its pruned
// search ending short of dst and re-ran it unpruned: on sane inputs
// only when sums overflow, so a count of these is how a PathBound that
// does not hold for the graph shows.
func (s *PairScratch) FellBack() bool { return s.rerun }

// Parent returns the forward parent array of the last PairCSR call,
// valid along the path to its dst (walk it like DijkstraCSR's parent)
// when that call returned a finite distance, until the next call.
func (s *PairScratch) Parent() []int32 { return s.fparent }

// PairCSR returns the shortest additive distance src→dst over c, +Inf
// when dst is unreachable. The distance and the parent chain from dst
// back to src (Parent) are bit-identical to what DijkstraCSR(c, src)
// records. b, when non-nil, must hold for c's paths; it only prunes.
func (s *PairScratch) PairCSR(c *CSR, src, dst NodeID, b PathBound) float64 {
	s.reset(c.n)
	if src == dst {
		return 0
	}
	s.rev, s.bound, s.src, s.dst = c.Reverse(), b, int32(src), int32(dst)
	s.mu, s.radius, s.backward = Inf, 0, true
	s.fparent[src], s.bdist[dst] = -1, 0
	s.touched = append(s.touched, int32(src), int32(dst))
	s.bh.items = append(s.bh.items[:0], heapItem{node: int32(dst)})
	s.settled += s.settleCSR(c, src, s.fdist, s.fparent, s)
	if s.fdist[dst] == Inf && s.mu < Inf {
		// A closed path exists but the forward loop never popped dst:
		// the pruning argument above does not hold on this input.
		s.rerun = true
		for _, v := range s.touched {
			s.fdist[v] = Inf
		}
		s.settled += s.settleCSR(c, src, s.fdist, s.fparent, nil)
		for v, d := range s.fdist {
			if d < Inf {
				s.touched = append(s.touched, int32(v))
			}
		}
	}
	return s.fdist[dst]
}

// backStep advances the backward side by one settle before each forward
// pop, or stops it once the radii sum past mu (fh is the forward heap).
// It reports false when src provably cannot reach dst.
func (s *PairScratch) backStep(fh *dheap) bool {
	if !s.backward {
		return true
	}
	bh, bd, fd := &s.bh, s.bdist, s.fdist
	switch {
	case len(bh.items) == 0:
		// Every node that reaches dst is settled.
		s.backward, s.radius = false, Inf
	case fh.items[0].key+bh.items[0].key > s.mu*(1+pairEps):
		s.backward, s.radius = false, bh.items[0].key
	default:
		it := bh.popMin(additiveKeys)
		v := it.node
		if it.key != bd[v] {
			break
		}
		s.settled++
		s.radius = it.key
		for x := s.rev.off[v]; x < s.rev.off[v+1]; x++ {
			u := s.rev.to[x]
			nb := it.key + s.rev.w[x]
			if !(nb < bd[u]) {
				continue
			}
			if m := fd[u] + nb; m < s.mu {
				s.mu = m
			}
			if s.bound != nil && s.bound.PathAtLeast(int(s.src), int(u), s.mu*(1+pairEps)-nb) {
				continue
			}
			if bd[u] == Inf && fd[u] == Inf {
				s.touched = append(s.touched, u)
			}
			bd[u] = nb
			bh.push(heapItem{node: u, key: nb})
		}
	}
	return s.backward || s.mu < Inf
}

// admit records the path a forward relaxation of v to nd closes and
// reports whether v is worth labelling.
func (s *PairScratch) admit(v int32, nd float64) bool {
	bd := s.bdist[v]
	if m := nd + bd; m < s.mu {
		s.mu = m
	}
	if s.cut(v, nd) {
		return false
	}
	if s.fdist[v] == Inf && bd == Inf {
		s.touched = append(s.touched, v)
	}
	return true
}

// cut reports that no path through a forward label of v at d comes
// within pairEps of mu, by the backward side's bound on v→dst or b's.
func (s *PairScratch) cut(v int32, d float64) bool {
	lim := s.mu * (1 + pairEps)
	return d+min(s.bdist[v], s.radius) > lim || s.bound != nil && s.bound.PathAtLeast(int(v), int(s.dst), lim-d)
}
