package obs

import (
	"math"
	"sync/atomic"
)

// The histogram bucket scheme, shared by every obs histogram: bucket i
// spans [base·g^i, base·g^(i+1)) nanoseconds with g = 1.25, covering
// ~45ns to ~80s in 96 buckets — ±12% quantile resolution.
const (
	NumBuckets   = 96
	BucketBase   = 45.0 // ns, lower bound of bucket 0's log range
	BucketGrowth = 1.25
)

var bucketLogG = math.Log(BucketGrowth)

// BucketIndex maps a nanosecond observation to its bucket.
func BucketIndex(ns int64) int {
	idx := 0
	if f := float64(ns); f > BucketBase {
		idx = int(math.Log(f/BucketBase) / bucketLogG)
		if idx >= NumBuckets {
			idx = NumBuckets - 1
		}
	}
	return idx
}

// BucketLower reports bucket i's lower bound in nanoseconds.
func BucketLower(i int) float64 {
	return BucketBase * math.Exp(float64(i)*bucketLogG)
}

// histCell is one shard's bucket array. count and sum trail the
// buckets; the pad keeps them (and the next cell's first buckets) off
// a shared line under concurrent writers.
type histCell struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	_       [48]byte
}

func (c *histCell) observe(ns int64) {
	c.buckets[BucketIndex(ns)].Add(1)
	c.count.Add(1)
	c.sum.Add(ns)
}

// Histogram is a fixed-bucket log-scale latency histogram with one
// padded cell per writer shard (one unless HistogramVec asked for
// more). Observe and ObserveShard are wait-free and allocation-free;
// Merged/Quantile fold the cells at read time.
type Histogram struct {
	name, help string
	cells      []histCell
}

// Histogram registers a single-cell histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.HistogramVec(name, help, 1)
}

// HistogramVec registers a histogram with shards padded cells; writers
// pinned to different shards never contend.
func (r *Registry) HistogramVec(name, help string, shards int) *Histogram {
	if shards < 1 {
		shards = 1
	}
	h := &Histogram{name: name, help: help, cells: make([]histCell, shards)}
	r.register(h)
	return h
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }

// Observe records a nanosecond latency into cell 0.
func (h *Histogram) Observe(ns int64) { h.cells[0].observe(ns) }

// ObserveShard records a nanosecond latency into the given shard's
// cell (mod the cell count).
func (h *Histogram) ObserveShard(shard int, ns int64) {
	h.cells[uint(shard)%uint(len(h.cells))].observe(ns)
}

// Count reports the total observation count across cells.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.cells {
		n += h.cells[i].count.Load()
	}
	return n
}

// Merged folds every cell into one bucket vector.
func (h *Histogram) Merged() [NumBuckets]int64 {
	var out [NumBuckets]int64
	for c := range h.cells {
		for i := range out {
			out[i] += h.cells[c].buckets[i].Load()
		}
	}
	return out
}

// Quantile returns the q-quantile in nanoseconds — the geometric mean
// of the containing bucket's bounds, so repeated calls on a stable
// histogram are exact and deterministic.
func (h *Histogram) Quantile(q float64) float64 {
	buckets := h.Merged()
	var count int64
	for _, c := range buckets {
		count += c
	}
	return bucketQuantile(&buckets, count, q)
}

// bucketQuantile locates the q-quantile in a merged bucket vector.
func bucketQuantile(buckets *[NumBuckets]int64, count int64, q float64) float64 {
	if count == 0 {
		return 0
	}
	target := int64(q * float64(count))
	var seen int64
	for i, c := range buckets {
		seen += c
		if seen > target {
			return BucketLower(i) * math.Sqrt(BucketGrowth)
		}
	}
	return BucketLower(NumBuckets)
}
