package graph

// Affected-row detection for incremental snapshot publication: given a
// settled single-source shortest-path row and a sparse set of out-row
// replacements, decide which rows the edits can actually change. It is
// the read-only counterpart of the repair kernel (rowScratch.repair): a
// row is crossed where the kernel would cut a tree arc or a new arc
// would reach a label, tested on parallel-slice CSR rows.
//
// The guarantee is exact, not approximate: if RowCrossed reports false
// for a DijkstraCSR row against every edit, a fresh DijkstraCSR over the
// edited graph computes the same dist bits and parents. No tree arc was
// cut or re-weighted and no new arc reaches a label at or below its
// cost, so every canonical label (settleCSR) is still the least
// extension over its in-arcs, and those labels are unique. For rows of
// other producers (SPForest) only the distances are pinned.

// RowCrossed reports whether replacing node u's out-arcs — (oldTo,
// oldW) became (newTo, newW) — can change the shortest-path row (dist,
// parent) of some source. The test is conservative only in the cheap
// direction: it may report true for an edit that happens to leave the
// row intact, but a false is a proof that the row is unchanged.
// The algebra is additive shortest paths (DijkstraCSR, the data
// plane's); widest-path rows need the inverted comparisons.
func RowCrossed(dist []float64, parent []int32, u int, oldTo []int32, oldW []float64, newTo []int32, newW []float64) bool {
	// A removed or re-weighted tree arc: u fed v's label through an arc
	// the new row no longer carries at the same weight.
	for x, v := range oldTo {
		if parent[v] == int32(u) && !rowHasArc(newTo, newW, v, oldW[x]) {
			return true
		}
	}
	// A new (or cheapened) arc that undercuts or ties a label: a tie may
	// win on hops or predecessor id. An unreachable u (dist +Inf) can
	// never reach anything: the sum stays +Inf.
	du := dist[u]
	for x, v := range newTo {
		if rowHasArc(oldTo, oldW, v, newW[x]) {
			continue
		}
		if nd := du + newW[x]; nd < Inf && nd <= dist[v] {
			return true
		}
	}
	return false
}

// rowHasArc reports whether the parallel-slice arc row contains an arc
// to v with exactly weight w (float bit semantics: == comparison).
func rowHasArc(to []int32, w []float64, v int32, wt float64) bool {
	for i, t := range to {
		if t == v && w[i] == wt {
			return true
		}
	}
	return false
}
