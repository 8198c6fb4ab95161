package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..1) of xs by the nearest-
// rank method on a sorted copy. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the 50th percentile with the even-count midpoint, the same
// value Python's statistics.median gives the driver.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quietLow and quietHigh pick, from one figure per window or per call,
// the one a quarter of the way in from the good end. Other tenants of a
// shared box only ever add time; the median over windows follows how
// many of them the neighbours hit (measured here: up to 20% between
// runs minutes apart), the quiet quartile follows the program. Low is
// for figures where lower is better, high for rates.
func quietLow(xs []float64) float64  { return percentile(xs, 0.25) }
func quietHigh(xs []float64) float64 { return percentile(xs, 0.75) }

// latencies collects per-operation durations in nanoseconds and
// reports percentiles in a caller-chosen unit.
type latencies struct{ ns []float64 }

func (l *latencies) add(ns int64) { l.ns = append(l.ns, float64(ns)) }

func (l *latencies) count() int { return len(l.ns) }

func (l *latencies) pct(p, perUnit float64) float64 {
	return percentile(l.ns, p) / perUnit
}

// steadyShare is the share of the intervals between answers that the
// rate of a serve-* window is taken over: the fastest nine in ten. A
// closed loop's rate is one over the MEAN interval, and on this box the
// mean belongs to the neighbours: one interval in a thousand is a 5 ms
// wait for the hypervisor to give a woken vCPU its core back, which is
// 15% of a 30 us mean. How many there are changes by the minute; the
// intervals under the 90th percentile do not (measured: 2.0–2.4 M
// pairs/s with 5% of the intervals stalled, 2.3–2.4 M with none, where
// the plain rate read 0.2–0.8 M and 1.9–2.0 M). The price: the rate is
// blind to whatever slows fewer than one request in ten, and reads
// above the plain rate by the weight of that tenth.
const steadyShare = 0.9

// trimmedMean is the mean of the smallest share of the samples.
func (l *latencies) trimmedMean(share float64) float64 {
	s := append([]float64(nil), l.ns...)
	sort.Float64s(s)
	s = s[:int(math.Ceil(share*float64(len(s))))]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// ratio divides, mapping a zero denominator to 0: a per-layer ratio
// whose layer did no work on this workload reads 0, not NaN (JSON has
// no NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
