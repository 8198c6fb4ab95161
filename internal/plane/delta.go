package plane

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"egoist/internal/graph"
)

// Digest hashes the snapshot's routing surface: the liveness mask and
// the compiled CSR (per-row arc lists with their weight bits). The
// epoch tag and the row-cache state are deliberately excluded — two
// snapshots with equal digests answer every OneHop, Route and
// RouteCost query identically, Route paths included: a route is the
// canonical shortest-path tree's (graph.DijkstraCSR), which the graph
// alone fixes, whether a pair search, a filled row or a carried row
// answers. This is the delta-publication correctness currency: a chain
// of Patch calls must stay digest-identical to a from-scratch Compile
// of the same wiring.
func (s *Snapshot) Digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	n := s.csr.N()
	put(uint64(n))
	put(uint64(s.nLive))
	for u := 0; u < n; u++ {
		if s.live[u] {
			put(uint64(u))
		}
	}
	for u := 0; u < n; u++ {
		to, w := s.csr.Out(u)
		put(uint64(len(to)))
		for i := range to {
			put(uint64(uint32(to[i])))
			put(math.Float64bits(w[i]))
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Patch derives the next snapshot from s without a full recompile: only
// the changed rows are re-priced through the delay oracle (every other
// CSR row is copied byte-for-byte), and the cached shortest-path rows
// survive unless a changed arc actually crossed them — the same
// subtree-crossing test the SPForest repair machinery uses, with an arc
// that ties a label counting as a crossing — so a carried row is
// bit-identical, distances and parents, to what a fresh Dijkstra over
// the patched graph would compute.
//
// changed must list, ascending, every node whose wiring row or
// membership differs from what s was compiled against. Under the
// engines' maintained invariant — wiring rows never reference departed
// nodes, because a leave rewrites (and thereby marks) every in-neighbor
// immediately — that set is exactly what a Publication carries; a
// caller without that invariant must additionally include every node
// whose row references a node whose membership flipped, since the
// compiled row drops arcs to non-members. Listing an unchanged node is
// harmless (its row re-prices to the same arcs and crosses nothing).
//
// wiring, active and the epoch have Compile's exact semantics; the
// patched snapshot is digest-identical to Compile(epoch, wiring,
// active, s's net, s's options) — pinned by the delta equivalence
// suites. s is not modified and stays fully servable: Patch is what the
// publisher calls while readers still hold the old snapshot.
func (s *Snapshot) Patch(epoch int64, changed []int, wiring [][]int, active []bool) *Snapshot {
	n := s.csr.N()
	if len(changed) == 0 {
		// Nothing moved: share everything, including the row cache (its
		// lazily computed rows answer from the same CSR either way).
		clone := *s
		clone.epoch = epoch
		return &clone
	}
	ns := newSnapshot(epoch, s.net, n)
	ns.nLive, ns.paths = s.nLive, s.paths
	copy(ns.live, s.live)
	isChanged := make(map[int]bool, len(changed))
	for _, u := range changed {
		if u < 0 || u >= n {
			panic(fmt.Errorf("plane: Patch changed node %d outside [0, %d)", u, n))
		}
		isChanged[u] = true
		was := ns.live[u]
		if active != nil {
			ns.live[u] = active[u]
		} else {
			ns.live[u] = u < len(wiring) && wiring[u] != nil
		}
		if ns.live[u] != was {
			if ns.live[u] {
				ns.nLive++
			} else {
				ns.nLive--
			}
		}
	}
	ns.csr = graph.PatchCSR(s.csr, changed, ns.arcsOf(wiring))
	ns.rows = newRowCache(ns, s.rows.cap)
	s.rows.carryInto(ns.rows, func(src int, dist []float64, parent []int32) bool {
		if isChanged[src] {
			return false
		}
		for _, u := range changed {
			oldTo, oldW := s.csr.Out(u)
			newTo, newW := ns.csr.Out(u)
			if graph.RowCrossed(dist, parent, u, oldTo, oldW, newTo, newW) {
				return false
			}
		}
		return true
	})
	return ns
}
