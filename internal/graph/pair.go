package graph

// Exact point-to-point search on a CSR: the answer DijkstraCSR's row
// would hold at one destination, for a fraction of the row's work.
//
// A backward Dijkstra from dst over the in-arcs alternates with the
// ordinary forward loop from src. Every arc one side relaxes into a
// node the other side has labelled closes a real src→dst path, and mu
// is the shortest one seen — an upper bound on the answer. Once the two
// frontiers' radii sum past mu no shorter meeting exists and the
// backward side stops; the forward side then runs on to the pop of
// dst, skipping every node v whose label plus a lower bound on v→dst
// exceeds mu. That bound is min(bdist[v], radius): exact for nodes the
// backward side settled, its radius for all the rest.
//
// Why the result is DijkstraCSR's, bit for bit. The distance returned
// is the forward search's own label of dst — the same left-to-right
// float sums over the same arcs in the same order — so it can differ
// from the row's only if a node on dst's chain of tight predecessors
// was skipped. Each node on that chain has label + (rest of the chain)
// equal to the answer up to re-association of one float sum, which
// moves a 10⁵-hop path by less than 2e-11 relative; the skip test
// leaves pairEps = 1e-9 of slack, so none of them is
// skipped, each is expanded with its final label, and dst's label is
// the row's. Parents depend on pop order only under ties, so PairCSR
// reports exact=false — the caller then reads a full row instead —
// whenever an expanded relaxation reached a node at its current label
// from a second predecessor, or failed to raise the label at all (a
// zero-weight or absorbed arc: that is what lets an equal-label
// predecessor pop after dst here and before it in the row's search).
// With no such event every node on the path has exactly one tight
// predecessor, the one both searches record.

// pairEps is the relative slack of PairCSR's pruning tests.
const pairEps = 1e-9

// PairScratch holds the reusable state of PairCSR; after a call it
// also holds the path found (Parent). The embedded SPScratch is the
// forward heap, so one pooled PairScratch serves a caller that
// sometimes needs the whole row. One scratch serves one goroutine.
type PairScratch struct {
	SPScratch
	back    []heapItem
	fdist   []float64
	bdist   []float64
	fparent []int32
	touched []int32 // nodes labelled by either side since the last reset
	settled int
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
}

// Settled reports how many nodes the last PairCSR call expanded, both
// sides together — the unit DijkstraCSR spends c.N() of on a connected
// graph.
func (s *PairScratch) Settled() int { return s.settled }

// Parent returns the forward parent array of the last PairCSR call,
// valid along the path to its dst (walk it like DijkstraCSR's parent)
// when that call returned a finite distance and exact=true, until the
// next call.
func (s *PairScratch) Parent() []int32 { return s.fparent }

// PairCSR returns the shortest additive distance src→dst over c, +Inf
// when dst is unreachable. When exact is true, dist and the parent
// chain from dst back to src (Parent) are bit-identical to what
// DijkstraCSR(c, src) records; when it is false a tie made the parents
// order-dependent and the caller must take both from a full row.
func (s *PairScratch) PairCSR(c *CSR, src, dst NodeID) (dist float64, exact bool) {
	s.reset(c.n)
	if src == dst {
		return 0, true
	}
	r := c.Reverse()
	fd, bd, fp := s.fdist, s.bdist, s.fparent
	fh := dheap{items: s.items[:0]}
	bh := dheap{items: s.back[:0]}
	fd[src], fp[src], bd[dst] = 0, -1, 0
	s.touched = append(s.touched, int32(src), int32(dst))
	fh.pushMin(src, 0)
	bh.pushMin(dst, 0)

	mu := Inf     // shortest src→dst path closed so far
	radius := 0.0 // no node the backward side has not settled is closer to dst
	backward := true
	settled := 0
	dist, exact = Inf, true
	for len(fh.items) > 0 {
		if backward {
			switch {
			case len(bh.items) == 0:
				// Every node that reaches dst is settled.
				backward, radius = false, Inf
			case fh.items[0].key+bh.items[0].key > mu*(1+pairEps):
				backward, radius = false, bh.items[0].key
			default:
				it := bh.popMin()
				v := it.node
				if it.key != bd[v] {
					break
				}
				settled++
				radius = it.key
				for x := r.off[v]; x < r.off[v+1]; x++ {
					u := r.to[x]
					nb := it.key + r.w[x]
					if !(nb < bd[u]) {
						continue
					}
					if bd[u] == Inf && fd[u] == Inf {
						s.touched = append(s.touched, u)
					}
					bd[u] = nb
					bh.pushMin(int(u), nb)
					if m := fd[u] + nb; m < mu {
						mu = m
					}
				}
			}
			if mu == Inf && !backward {
				break // src cannot reach dst
			}
		}

		it := fh.popMin()
		u := it.node
		if it.key != fd[u] {
			continue
		}
		if u == dst {
			dist = it.key
			break
		}
		bound := mu * (1 + pairEps)
		if it.key+min(bd[u], radius) > bound {
			continue
		}
		settled++
		for x := c.off[u]; x < c.off[u+1]; x++ {
			v := c.to[x]
			nd := it.key + c.w[x]
			if !(nd < fd[v]) {
				if nd == fd[v] && fp[v] != int32(u) {
					exact = false
				}
				continue
			}
			if nd == it.key {
				exact = false
			}
			if m := nd + bd[v]; m < mu {
				mu = m
				bound = mu * (1 + pairEps)
			}
			if nd+min(bd[v], radius) > bound {
				continue
			}
			if fd[v] == Inf && bd[v] == Inf {
				s.touched = append(s.touched, v)
			}
			fd[v], fp[v] = nd, int32(u)
			fh.pushMin(int(v), nd)
		}
	}
	if dist == Inf && mu < Inf {
		// A closed path exists but the forward search never popped dst:
		// the pruning argument above does not hold on this input (sums
		// overflowing to +Inf, a path long enough for rounding to
		// outgrow pairEps). Send the caller to the row.
		exact = false
	}
	s.items, s.back = fh.items[:0], bh.items[:0]
	s.settled = settled
	return dist, exact
}
