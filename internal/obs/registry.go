// Package obs is the repository's unified observability layer: a
// dependency-free metrics registry (atomic counters, gauges, scrape-time
// counter and gauge callbacks, and fixed-bucket log-scale histograms), a
// Prometheus-text /metrics handler, opt-in net/http/pprof mounting,
// and a JSONL trace writer for engine phase events.
//
// Every instrument is pre-registered (registration allocates; use
// never does), so the serving hot paths stay zero-alloc with metrics
// enabled — gated by TestInstrumentsZeroAlloc here and by the plane
// package's TestServeHotPathsZeroAlloc end-to-end.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Registry owns a set of named instruments and renders them in
// Prometheus text exposition format. Registration order is exposition
// order (deterministic output for a deterministic input — the golden
// test relies on it). Registering a duplicate or invalid name panics:
// instrument wiring is program structure, not runtime input.
type Registry struct {
	mu    sync.Mutex
	names map[string]bool
	insts []instrument
}

// instrument is one registered metric family.
type instrument interface {
	metricName() string
	metricHelp() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register validates and records one instrument.
func (r *Registry) register(inst instrument) {
	name := inst.metricName()
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.names[name] = true
	r.insts = append(r.insts, inst)
}

// validMetricName enforces the Prometheus name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing count.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Counter registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value (stored as float64 bits).
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Gauge registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// gaugeFunc is a gauge whose value is read at scrape time — the shape
// for values another subsystem already maintains (a snapshot epoch, a
// peer-book size) where double-counting into a second atomic would be
// waste.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a scrape-time gauge callback. fn must be safe to
// call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{name: name, help: help, fn: fn})
}

func (g *gaugeFunc) metricName() string { return g.name }
func (g *gaugeFunc) metricHelp() string { return g.help }

// counterFunc is a counter whose value is read at scrape time from
// state another subsystem maintains (the plane's query and row-cache
// atomics; re-counting them into an obs Counter would double every
// hot-path atomic add).
type counterFunc struct {
	name, help string
	fn         func() int64
}

// CounterFunc registers a scrape-time counter callback. fn must be safe
// to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(&counterFunc{name: name, help: help, fn: fn})
}

func (c *counterFunc) metricName() string { return c.name }
func (c *counterFunc) metricHelp() string { return c.help }
