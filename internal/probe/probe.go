// Package probe provides the measurement tools an EGOIST node uses to
// estimate link costs (Sect. 4.1): an active pinger (RTT/2 with noise,
// EWMA-smoothed), a pathChirp-like available-bandwidth estimator, and a
// local load monitor. Every probe is charged to an overhead Accountant so
// the harness can reproduce the protocol-overhead numbers of Sect. 4.3.
package probe

import (
	"math/rand"
	"sync"
)

// Accountant tallies measurement traffic injected into the network, in
// bits, so experiments can report bps overheads like Sect. 4.3.
type Accountant struct {
	mu   sync.Mutex
	bits map[string]float64
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{bits: make(map[string]float64)}
}

// Charge adds bits of traffic under a category ("ping", "coord", "chirp",
// "lsa", "heartbeat").
func (a *Accountant) Charge(category string, bits float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.bits[category] += bits
	a.mu.Unlock()
}

// Total returns the bits charged to a category.
func (a *Accountant) Total(category string) float64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bits[category]
}

// Categories returns the set of charged categories.
func (a *Accountant) Categories() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.bits))
	for c := range a.bits {
		out = append(out, c)
	}
	return out
}

// PingBits is the size of one ICMP ECHO request/reply exchange per the
// paper: 320 bits.
const PingBits = 320

// CoordQueryBits returns the size of one coordinate-system query for an
// n-node overlay per the paper: ≈ 320 + 32·n bits.
func CoordQueryBits(n int) float64 { return 320 + 32*float64(n) }

// Pinger estimates one-way delays by active probing: each Measure samples
// the true RTT (2× one-way delay) with measurement noise, divides by two,
// and folds the sample into a per-pair EWMA, exactly like the ping-based
// estimator of Sect. 4.1.
type Pinger struct {
	mu      sync.Mutex
	rng     *rand.Rand
	noise   float64 // relative stddev of a single RTT sample
	alpha   float64 // EWMA weight of the newest sample
	ewma    map[[2]int]float64
	account *Accountant
}

// NewPinger creates a pinger with the given sample noise (e.g. 0.05 for
// 5 % RTT jitter) and EWMA weight alpha in (0,1].
func NewPinger(seed int64, noise, alpha float64, account *Accountant) *Pinger {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &Pinger{
		rng:     rand.New(rand.NewSource(seed)),
		noise:   noise,
		alpha:   alpha,
		ewma:    make(map[[2]int]float64),
		account: account,
	}
}

// Measure probes the pair (i,j) whose true one-way delay is trueDelayMS and
// returns the updated smoothed estimate.
func (p *Pinger) Measure(i, j int, trueDelayMS float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.account.Charge("ping", PingBits)
	rtt := 2 * trueDelayMS * (1 + p.rng.NormFloat64()*p.noise)
	if rtt < 0.01 {
		rtt = 0.01
	}
	sample := rtt / 2
	key := [2]int{i, j}
	if prev, ok := p.ewma[key]; ok {
		sample = p.alpha*sample + (1-p.alpha)*prev
	}
	p.ewma[key] = sample
	return sample
}

// Estimate returns the current smoothed estimate for (i,j) and whether any
// sample exists.
func (p *Pinger) Estimate(i, j int) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.ewma[[2]int{i, j}]
	return v, ok
}

// Forget drops the EWMA state for (i,j), as when a link is torn down.
func (p *Pinger) Forget(i, j int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.ewma, [2]int{i, j})
}

// BandwidthEstimator is the pathChirp stand-in: it reports the true
// available bandwidth of a pair with bounded relative error, and charges
// the accountant the paper's ≈2 % probing budget.
type BandwidthEstimator struct {
	mu      sync.Mutex
	rng     *rand.Rand
	relErr  float64
	account *Accountant
}

// NewBandwidthEstimator creates an estimator with the given relative error
// (e.g. 0.05).
func NewBandwidthEstimator(seed int64, relErr float64, account *Accountant) *BandwidthEstimator {
	return &BandwidthEstimator{
		rng:     rand.New(rand.NewSource(seed)),
		relErr:  relErr,
		account: account,
	}
}

// Measure estimates available bandwidth (Mbps) given the true value. The
// probing cost charged is 2 % of the measured bandwidth over a nominal
// 1-second chirp train, in bits.
func (b *BandwidthEstimator) Measure(trueMbps float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	est := trueMbps * (1 + b.rng.NormFloat64()*b.relErr)
	if est < 0.01 {
		est = 0.01
	}
	b.account.Charge("chirp", 0.02*trueMbps*1e6)
	return est
}

// LoadMonitor is the local load sensor: it applies the paper's
// exponentially-weighted moving average (computed over a 1-minute interval)
// to raw loadavg readings. Local measurement injects no network traffic.
type LoadMonitor struct {
	mu    sync.Mutex
	alpha float64
	ewma  float64
	init  bool
}

// NewLoadMonitor creates a monitor with EWMA weight alpha in (0,1].
func NewLoadMonitor(alpha float64) *LoadMonitor {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	return &LoadMonitor{alpha: alpha}
}

// Observe folds a raw load reading into the moving average and returns the
// smoothed value.
func (m *LoadMonitor) Observe(raw float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.init {
		m.ewma = raw
		m.init = true
	} else {
		m.ewma = m.alpha*raw + (1-m.alpha)*m.ewma
	}
	return m.ewma
}

// Value returns the current smoothed load (0 before any observation).
func (m *LoadMonitor) Value() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ewma
}
