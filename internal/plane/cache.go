package plane

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"egoist/internal/graph"
	"egoist/internal/obs"
)

// rowCache answers a snapshot's shortest-path queries and decides,
// per source, what to pay for them. In order: a resident row answers
// (an LRU bounded at cap rows; a row in flight is waited for, so N
// concurrent fills of one source cost one Dijkstra); otherwise an exact
// pair search (graph.PairCSR) answers the one query at a fraction of a
// row's cost; once a source has spent a whole row's worth of settled
// nodes on pair searches its row is bought — computed and cached — if
// the cache has room or the source has been looked up more often than
// the row the purchase would evict (the LRU computed row). A refused
// source rents again from zero. That is the ski-rental rule — rent
// until the rent paid equals the purchase price — behind a frequency
// gate (TinyLFU's admission test): while a source is admitted it costs
// at most twice what the better of "always search" and "fill at once"
// would have; while it is refused it costs what "always search" does,
// because it is looked up no more often than a row the cache already
// holds. So a source seen once never pushes a hot row out, and neither
// does a lukewarm one. Rows are immutable once their ready channel
// closes; eviction only drops the cache's reference, so readers holding
// a row keep a consistent view for as long as they need it.
//
// A pair search is pruned by the rows already resident (graph.RowBound):
// each is an exact row of this snapshot's CSR — filled here, or carried
// by Patch, which keeps only rows RowCrossed leaves exact — so it bounds
// every path from below at no Dijkstra's cost. The searches read them
// through slots, without the lock; a row evicted while a search reads it
// stays exact, so the search stays sound.
type rowCache struct {
	snap *Snapshot
	cap  int
	// spent[src] is the number of nodes src's pair searches have settled
	// since its row was last absent; zeroed when the row is evicted or
	// admission refuses its fill.
	spent []atomic.Uint32
	// slots hold the done rows, at most cap of them; free lists the
	// empty ones. Both change only under mu.
	slots []atomic.Pointer[rowEntry]
	free  []int

	mu      sync.Mutex
	entries map[int]*rowEntry
	lru     list.List // the entries' rows, most recently used first
	ready   int       // computed entries (only these are evictable)
	stats   atomic.Pointer[cacheStats]
	counts  atomic.Pointer[lookupCounts]
}

// lookupCounts is the admission rule's memory: how often each source
// has been looked up without a row in the cache. A source's lookups
// while its row is in the cache are counted on the row (rowEntry.hits,
// under the cache's lock, so a hit pays no extra atomic) and added here
// when the row is evicted; a source's count is the sum of the two.
// Every count is halved once per halveEvery·n misses, so that the rule
// follows a hot set that moves. Like cacheStats the counts are owned by
// whoever serves the cache — the Server threads one set through every
// snapshot it publishes, so they survive publishes — and an unpublished
// snapshot counts into a private set made at its first miss.
type lookupCounts []atomic.Uint64

// halveEvery·n misses, n the node count, separate two halvings.
const halveEvery = 4

// halveLocked halves every count: lc's and those of c's rows. An
// increment racing with it may be lost, which only makes one count a
// little low.
func (c *rowCache) halveLocked(lc lookupCounts) {
	for i := range lc {
		lc[i].Store(lc[i].Load() >> 1)
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*rowEntry).hits >>= 1
	}
}

// searchScratch recycles search state across queries, caches and
// snapshots: a PairScratch re-sizes itself when the node count changes.
var searchScratch = sync.Pool{New: func() any { return new(graph.PairScratch) }}

// cacheStats are the route path's counters, owned by whoever serves
// the cache (the Server threads one instance through every snapshot it
// publishes, so the series survives publishes; an unpublished snapshot
// counts into a private one). Every lookup is exactly one of: a hit
// (found a computed row), a collapse (joined a row another goroutine
// was still computing — the miss-storm signal), or a miss (paid for its
// answer). A lookup is classified where that is decided: one that finds
// no row but whose source another lookup begins to fill before it pays
// joins that fill as a collapse (or a hit, once the row is done). What
// a miss paid is counted beside it, so misses = pair searches + fills:
// a pair search (with the nodes it settled) or a row fill; a fill the
// admission rule refused is counted too, and its miss is answered by a
// pair search.
// Rows carried over by Patch are not demand traffic and are not
// counted.
type cacheStats struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	collapses atomic.Int64
	fills     atomic.Int64
	refusals  atomic.Int64
	searches  atomic.Int64
	settled   atomic.Int64
	fallbacks atomic.Int64

	// The miss path's latency summaries, nil until the owning Server's
	// EnableMetrics. Every fill and every pair search is timed: two
	// clock readings beside a search of 100 µs or more.
	fillNs   atomic.Pointer[obs.Histogram]
	searchNs atomic.Pointer[obs.Histogram]
}

// clock reads the time a search timed into h begins at: zero, and no
// clock reading, while h is nil.
func clock(h *obs.Histogram) time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeSince records the time since t0 into h when h is non-nil.
func observeSince(h *obs.Histogram, t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Nanoseconds())
	}
}

// CacheStats is one consistent-enough read of the route-path counters.
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	Collapses    int64 `json:"collapses"`
	Fills        int64 `json:"fills"`
	Refusals     int64 `json:"refusals"`
	PairSearches int64 `json:"pair_searches"`
	PairSettled  int64 `json:"pair_settled"`
}

func (st *cacheStats) read() CacheStats {
	return CacheStats{
		Hits:         st.hits.Load(),
		Misses:       st.misses.Load(),
		Evictions:    st.evictions.Load(),
		Collapses:    st.collapses.Load(),
		Fills:        st.fills.Load(),
		Refusals:     st.refusals.Load(),
		PairSearches: st.searches.Load(),
		PairSettled:  st.settled.Load(),
	}
}

// setStats attaches the owner's counters.
func (c *rowCache) setStats(st *cacheStats) { c.stats.Store(st) }

// lookups returns the cache's lookup counts, making a private set
// if no owner has attached one.
func (c *rowCache) lookups() lookupCounts {
	if lc := c.counts.Load(); lc != nil {
		return *lc
	}
	lc := make(lookupCounts, c.snap.csr.N())
	c.counts.CompareAndSwap(nil, &lc)
	return *c.counts.Load()
}

// rowEntry is one source's distance/parent row plus its LRU element.
type rowEntry struct {
	src    int
	el     *list.Element // its place in the LRU
	done   chan struct{} // closed once dist/parent are final
	hits   uint64        // lookups of src while resident (under mu)
	slot   int           // its index in slots, -1 for none
	dist   []float64
	parent []int32
}

func newRowCache(s *Snapshot, capRows int) *rowCache {
	if capRows <= 0 {
		capRows = 256
	}
	c := &rowCache{
		snap:    s,
		cap:     capRows,
		spent:   make([]atomic.Uint32, s.csr.N()),
		slots:   make([]atomic.Pointer[rowEntry], capRows),
		entries: make(map[int]*rowEntry),
	}
	for i := range c.slots {
		c.free = append(c.free, i)
	}
	c.stats.Store(new(cacheStats))
	return c
}

// resolve answers src→dst (src != dst, both in range): the cost, +Inf
// when dst is unreachable, and when wantPath the nodes src..dst
// appended to buf. It is find, then the row find returned or the miss
// path; whichever way the answer is produced it is the one src's
// DijkstraCSR row holds, path included (graph.PairCSR says why).
func (c *rowCache) resolve(src, dst int, buf []int32, wantPath bool) ([]int32, float64) {
	st := c.stats.Load()
	if e := c.find(src, st); e != nil {
		return e.answer(src, dst, buf, wantPath)
	}
	return c.miss(src, dst, buf, wantPath, st)
}

// answer reads src→dst off the row, appending the path to buf when
// wantPath and dst is reachable.
func (e *rowEntry) answer(src, dst int, buf []int32, wantPath bool) ([]int32, float64) {
	cost := e.dist[dst]
	if wantPath && cost < graph.Inf {
		buf = appendPath(buf, e.parent, src, dst)
	}
	return buf, cost
}

// miss answers src→dst for a lookup find found no row for: the row's
// fill once src's searches have settled as many nodes as its row would
// and admission lets it in (rent, then buy), else an exact pair search.
// Safe to run concurrently for any sources, one source included.
func (c *rowCache) miss(src, dst int, buf []int32, wantPath bool, st *cacheStats) ([]int32, float64) {
	if c.buying(src) {
		if e := c.fill(src, st, true); e != nil {
			return e.answer(src, dst, buf, wantPath)
		}
	} else if c.missed(st) {
		c.mu.Lock()
		c.halveLocked(c.lookups())
		c.mu.Unlock()
	}
	ps := searchScratch.Get().(*graph.PairScratch)
	searchNs := st.searchNs.Load()
	t0 := clock(searchNs)
	ps.Rows.Reset(c.snap.paths)
	for i := range c.slots {
		if e := c.slots[i].Load(); e != nil {
			ps.Rows.Offer(e.dist, src, dst)
		}
	}
	cost := ps.PairCSR(c.snap.csr, src, dst, ps.Rows.Bound())
	observeSince(searchNs, t0)
	c.spent[src].Add(uint32(ps.Settled()))
	st.searches.Add(1)
	st.settled.Add(int64(ps.Settled()))
	if ps.FellBack() {
		st.fallbacks.Add(1)
	}
	if wantPath && cost < graph.Inf {
		buf = appendPath(buf, ps.Parent(), src, dst)
	}
	searchScratch.Put(ps)
	return buf, cost
}

// buying reports whether src's searches have settled as many nodes as
// its row would, so that its next miss fills the row if admitted.
func (c *rowCache) buying(src int) bool {
	return int(c.spent[src].Load()) >= c.snap.nLive
}

// admits reports whether a fill of src would be admitted now.
func (c *rowCache) admits(src int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitsLocked(src)
}

// admitsLocked is the admission rule for src, which has no row: a new
// row is admitted while the cache has room, or when src has been looked
// up more often than the source of the row evictLocked would drop for
// it (or nothing computed can be dropped).
func (c *rowCache) admitsLocked(src int) bool {
	if len(c.entries) < c.cap {
		return true
	}
	v := c.victimLocked()
	if v == nil {
		return true
	}
	lc := c.lookups()
	return lc[src].Load() > lc[v.src].Load()+v.hits
}

// appendPath appends the nodes src..dst to buf by walking parent from
// dst back to src and reversing the run in place.
func appendPath(buf, parent []int32, src, dst int) []int32 {
	start := len(buf)
	for v := int32(dst); ; v = parent[v] {
		buf = append(buf, v)
		if int(v) == src {
			break
		}
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// find returns src's row if one is resident or being computed (waiting
// for it in that case), else nil. It counts the lookup against src and,
// when it finds a row, classifies it (join); a lookup that finds none
// is classified by miss or fill.
func (c *rowCache) find(src int, st *cacheStats) *rowEntry {
	c.mu.Lock()
	e, ok := c.entries[src]
	if !ok {
		c.lookups()[src].Add(1)
		c.mu.Unlock()
		return nil
	}
	e.hits++
	c.lru.MoveToFront(e.el)
	c.mu.Unlock()
	return e.join(st)
}

// join waits for e's row and counts the lookup: a hit, or a collapse
// when the row was still in flight — the singleflight collapse the
// miss-storm diagnostics watch. It classifies before blocking.
func (e *rowEntry) join(st *cacheStats) *rowEntry {
	select {
	case <-e.done:
		st.hits.Add(1)
	default:
		st.collapses.Add(1)
	}
	<-e.done
	return e
}

// missed counts a miss and reports whether it is a halveEvery·n-th
// one, after which the caller halves the lookup counts.
func (c *rowCache) missed(st *cacheStats) bool {
	return st.misses.Add(1)%int64(halveEvery*len(c.spent)) == 0
}

// fill computes and caches src's row for a lookup find found no row
// for, counting the lookup as a miss — or, if another goroutine began
// to fill the row since that find, joins that fill instead. With admit
// set it first applies the admission rule and, if that refuses src,
// counts the refusal, restarts src's rent from zero and returns nil
// (the miss is then answered by a pair search).
func (c *rowCache) fill(src int, st *cacheStats, admit bool) *rowEntry {
	c.mu.Lock()
	if e, ok := c.entries[src]; ok {
		c.mu.Unlock()
		return e.join(st)
	}
	if c.missed(st) {
		c.halveLocked(c.lookups())
	}
	if admit && !c.admitsLocked(src) {
		c.mu.Unlock()
		c.spent[src].Store(0)
		st.refusals.Add(1)
		return nil
	}
	e := &rowEntry{src: src, done: make(chan struct{}), slot: -1}
	c.entries[src] = e
	e.el = c.lru.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	st.fills.Add(1)

	fillNs := st.fillNs.Load()
	t0 := clock(fillNs)
	e.dist, e.parent = c.snap.Tree(src)
	observeSince(fillNs, t0)

	c.mu.Lock()
	c.readyLocked(e)
	c.mu.Unlock()
	close(e.done)
	return e
}

// readyLocked counts e's row as computed and gives it a free slot.
func (c *rowCache) readyLocked(e *rowEntry) {
	c.ready++
	if k := len(c.free) - 1; k >= 0 {
		e.slot, c.free = c.free[k], c.free[:k]
		c.slots[e.slot].Store(e)
	}
}

// evictLocked drops least-recently-used *computed* rows until the
// computed population fits the cap, adding each one's hits to its
// source's lookup count. In-flight rows are never evicted —
// their waiters hold the entry — so the cache can transiently exceed
// cap by the number of concurrent distinct-source misses.
func (c *rowCache) evictLocked() {
	for len(c.entries) > c.cap {
		e := c.victimLocked()
		if e == nil {
			return
		}
		c.lru.Remove(e.el)
		delete(c.entries, e.src)
		c.ready--
		if e.slot >= 0 {
			c.slots[e.slot].Store(nil)
			c.free = append(c.free, e.slot)
		}
		c.spent[e.src].Store(0)
		if lc := c.counts.Load(); lc != nil {
			(*lc)[e.src].Add(e.hits)
		}
		c.stats.Load().evictions.Add(1)
	}
}

// victimLocked returns the least recently used computed row — the one
// evictLocked drops next — or nil if no row is computed.
func (c *rowCache) victimLocked() *rowEntry {
	for el := c.lru.Back(); el != nil && c.ready > 0; el = el.Prev() {
		e := el.Value.(*rowEntry)
		select {
		case <-e.done:
			return e
		default:
		}
	}
	return nil
}

// carriedDone is the shared already-closed ready channel of carried
// rows: a seeded entry is final from the moment it is inserted.
var carriedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// carryInto seeds dst with every computed row of c that keep approves —
// the delta publisher's carry-over path. Rows are shared, not copied
// (they are immutable once their ready channel closes), and LRU order
// is preserved: the iteration walks least-recent first so the
// most-recent row ends up in front. In-flight rows are skipped;
// whoever wants them from the new snapshot recomputes on demand.
func (c *rowCache) carryInto(dst *rowCache, keep func(src int, dist []float64, parent []int32) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*rowEntry)
		select {
		case <-e.done:
		default:
			continue
		}
		if keep(e.src, e.dist, e.parent) {
			dst.seed(e.src, e.dist, e.parent, e.hits)
		}
	}
}

// seed inserts an already-final row with shared storage, looked up hits
// times while resident so far.
func (c *rowCache) seed(src int, dist []float64, parent []int32, hits uint64) {
	c.mu.Lock()
	e := &rowEntry{src: src, done: carriedDone, dist: dist, parent: parent, hits: hits, slot: -1}
	c.entries[src] = e
	e.el = c.lru.PushFront(e)
	c.readyLocked(e)
	c.evictLocked()
	c.mu.Unlock()
}
