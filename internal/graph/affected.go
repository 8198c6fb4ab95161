package graph

// Affected-row detection for incremental snapshot publication: given a
// settled single-source shortest-path row and a sparse set of out-row
// replacements, decide which rows the edits can actually change. It is
// the read-only counterpart of SPForest's subtree repair — the same
// "did a tree arc get cut, did a new arc undercut a label" test that
// repairAfterRemove uses to skip untouched trees, applied to arbitrary
// row replacements instead of a single removal.
//
// The guarantee is exact, not approximate: if RowCrossed reports false
// for a row against every edit, a from-scratch Dijkstra over the edited
// graph produces bit-identical distances. Both directions of change are
// ruled out — the old tree survives arc-for-arc with identical weights
// (so no label can get worse), and no surviving label admits a strict
// relaxation through an edited row (so none can get better); additive
// path costs fold left-to-right identically in both computations.
// Parent arrays are NOT pinned: an equal-cost tie may resolve to a
// different predecessor in a fresh computation, so carried rows promise
// identical costs, not identical paths.

// RowCrossed reports whether replacing node u's out-arcs — (oldTo,
// oldW) became (newTo, newW) — can change the shortest-path row (dist,
// parent) of some source. The test is conservative only in the cheap
// direction: it may report true for an edit that happens to leave the
// row intact, but a false is a proof that every distance is unchanged.
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
	// A new (or cheapened) arc that strictly undercuts a settled label.
	// An unreachable u (dist +Inf) can never undercut anything: the sum
	// stays +Inf and the comparison below stays false.
	du := dist[u]
	for x, v := range newTo {
		if rowHasArc(oldTo, oldW, v, newW[x]) {
			continue
		}
		if du+newW[x] < dist[v] {
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
