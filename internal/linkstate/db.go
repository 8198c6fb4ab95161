package linkstate

import (
	"slices"
	"sync"
	"time"

	"egoist/internal/graph"
)

// DB is a node's link-state topology database: the freshest LSA seen from
// every origin, with sequence-number–based supersession and age-based
// expiry. From it a node derives the announced overlay graph (and hence
// the residual graph G−i) used by the wiring policies.
type DB struct {
	mu      sync.RWMutex
	n       int
	entries map[uint16]dbEntry
	maxAge  time.Duration
	now     func() time.Time
}

type dbEntry struct {
	lsa  *LSA
	seen time.Time
}

// NewDB creates a database for an n-node overlay whose entries expire
// after maxAge (0 disables expiry). now, when non-nil, overrides the clock
// for tests.
func NewDB(n int, maxAge time.Duration, now func() time.Time) *DB {
	if now == nil {
		now = time.Now
	}
	return &DB{n: n, entries: make(map[uint16]dbEntry), maxAge: maxAge, now: now}
}

// Apply folds an LSA into the database. It returns true when the LSA was
// fresh (new origin or higher sequence) and should therefore be flooded to
// neighbors.
func (db *DB) Apply(l *LSA) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur, ok := db.entries[l.Origin]
	if ok && cur.lsa.Seq >= l.Seq {
		return false
	}
	db.entries[l.Origin] = dbEntry{lsa: l, seen: db.now()}
	return true
}

// Forget drops an origin's entry, as when a node is observed to leave.
func (db *DB) Forget(origin uint16) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.entries, origin)
}

// Seq returns the freshest known sequence number for an origin.
func (db *DB) Seq(origin uint16) (uint64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.entries[origin]
	if !ok {
		return 0, false
	}
	return e.lsa.Seq, true
}

// Origins returns the ids of all unexpired origins.
func (db *DB) Origins() []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cutoff := db.cutoff()
	var out []int
	for o, e := range db.entries {
		if cutoff.IsZero() || e.seen.After(cutoff) {
			out = append(out, int(o))
		}
	}
	return out
}

// Graph materializes the announced overlay graph from all unexpired LSAs.
func (db *DB) Graph() *graph.Digraph {
	db.mu.RLock()
	defer db.mu.RUnlock()
	g := graph.New(db.n)
	db.eachArc(func(u int, nb Neighbor) { g.AddArc(u, int(nb.ID), nb.Cost) })
	return g
}

// InNeighbors returns, ascending, the nodes whose unexpired LSA
// announces an arc to v: v's in-neighbours in Graph, without building
// it.
func (db *DB) InNeighbors(v int) []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var in []int
	db.eachArc(func(u int, nb Neighbor) {
		if int(nb.ID) == v {
			in = append(in, u)
		}
	})
	slices.Sort(in)
	return slices.Compact(in)
}

// eachArc calls fn for every arc of the announced graph: the neighbours
// an unexpired LSA lists, both ends in [0, n), self-loops dropped. The
// caller holds mu.
func (db *DB) eachArc(fn func(u int, nb Neighbor)) {
	cutoff := db.cutoff()
	for _, e := range db.entries {
		if !cutoff.IsZero() && !e.seen.After(cutoff) {
			continue
		}
		u := int(e.lsa.Origin)
		if u >= db.n {
			continue
		}
		for _, nb := range e.lsa.Neighbors {
			if int(nb.ID) < db.n && int(nb.ID) != u {
				fn(u, nb)
			}
		}
	}
}

// Active returns the alive mask implied by the database: nodes with an
// unexpired LSA (self should be OR-ed in by the caller).
func (db *DB) Active() []bool {
	active := make([]bool, db.n)
	for _, o := range db.Origins() {
		active[o] = true
	}
	return active
}

// Expire drops entries older than maxAge and returns how many were removed.
func (db *DB) Expire() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	cutoff := db.cutoff()
	if cutoff.IsZero() {
		return 0
	}
	removed := 0
	for o, e := range db.entries {
		if !e.seen.After(cutoff) {
			delete(db.entries, o)
			removed++
		}
	}
	return removed
}

func (db *DB) cutoff() time.Time {
	if db.maxAge <= 0 {
		return time.Time{}
	}
	return db.now().Add(-db.maxAge)
}
