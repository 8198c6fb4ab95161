package probe

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestPingerConvergesToTruth(t *testing.T) {
	acc := NewAccountant()
	p := NewPinger(1, 0.05, 0.3, acc)
	var last float64
	for i := 0; i < 200; i++ {
		last = p.Measure(0, 1, 40)
	}
	if RelativeError(last, 40) > 0.1 {
		t.Fatalf("estimate %v after 200 samples, want within 10%% of 40", last)
	}
}

func TestPingerChargesAccountant(t *testing.T) {
	acc := NewAccountant()
	p := NewPinger(1, 0.05, 0.3, acc)
	for i := 0; i < 10; i++ {
		p.Measure(0, 1, 10)
	}
	if got := acc.Total("ping"); got != 10*PingBits {
		t.Fatalf("charged %v bits, want %v", got, 10*PingBits)
	}
}

func TestPingerEstimateLifecycle(t *testing.T) {
	p := NewPinger(1, 0, 1, nil)
	if _, ok := p.Estimate(0, 1); ok {
		t.Fatal("estimate exists before measurement")
	}
	p.Measure(0, 1, 25)
	if v, ok := p.Estimate(0, 1); !ok || math.Abs(v-25) > 1e-9 {
		t.Fatalf("estimate = %v,%v, want 25,true (zero noise, alpha=1)", v, ok)
	}
	p.Forget(0, 1)
	if _, ok := p.Estimate(0, 1); ok {
		t.Fatal("estimate survives Forget")
	}
}

func TestPingerDirectionalKeys(t *testing.T) {
	p := NewPinger(1, 0, 1, nil)
	p.Measure(0, 1, 10)
	if _, ok := p.Estimate(1, 0); ok {
		t.Fatal("reverse direction should have no estimate")
	}
}

func TestPingerNeverNegative(t *testing.T) {
	f := func(seed int64, d float64) bool {
		d = math.Abs(d)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		p := NewPinger(seed, 0.5, 0.5, nil)
		for i := 0; i < 20; i++ {
			if p.Measure(0, 1, d) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthEstimatorAccuracy(t *testing.T) {
	acc := NewAccountant()
	b := NewBandwidthEstimator(2, 0.05, acc)
	sum := 0.0
	const rounds = 500
	for i := 0; i < rounds; i++ {
		sum += b.Measure(100)
	}
	if avg := sum / rounds; RelativeError(avg, 100) > 0.05 {
		t.Fatalf("mean estimate %v, want within 5%% of 100", avg)
	}
	if acc.Total("chirp") <= 0 {
		t.Fatal("chirp probing not charged")
	}
}

func TestBandwidthEstimatorPositive(t *testing.T) {
	b := NewBandwidthEstimator(3, 2.0, nil) // absurd noise
	for i := 0; i < 100; i++ {
		if b.Measure(1) <= 0 {
			t.Fatal("bandwidth estimate must stay positive")
		}
	}
}

func TestLoadMonitorEWMA(t *testing.T) {
	m := NewLoadMonitor(0.5)
	if m.Value() != 0 {
		t.Fatal("initial value should be 0")
	}
	m.Observe(4)
	if m.Value() != 4 {
		t.Fatalf("first observation should seed EWMA, got %v", m.Value())
	}
	m.Observe(0)
	if m.Value() != 2 {
		t.Fatalf("EWMA after 4,0 with alpha .5 = %v, want 2", m.Value())
	}
}

func TestLoadMonitorBadAlphaDefaults(t *testing.T) {
	m := NewLoadMonitor(-3)
	m.Observe(10)
	m.Observe(0)
	if v := m.Value(); v <= 0 || v >= 10 {
		t.Fatalf("default alpha should smooth: got %v", v)
	}
}

func TestCoordQueryBits(t *testing.T) {
	if got := CoordQueryBits(50); got != 320+32*50 {
		t.Fatalf("CoordQueryBits(50) = %v", got)
	}
}

func TestAccountantConcurrent(t *testing.T) {
	acc := NewAccountant()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				acc.Charge("x", 1)
			}
		}()
	}
	wg.Wait()
	if got := acc.Total("x"); got != 8000 {
		t.Fatalf("Total = %v, want 8000", got)
	}
	if cats := acc.Categories(); len(cats) != 1 || cats[0] != "x" {
		t.Fatalf("Categories = %v", cats)
	}
}

func TestNilAccountantSafe(t *testing.T) {
	var acc *Accountant
	acc.Charge("x", 1) // must not panic
	if acc.Total("x") != 0 {
		t.Fatal("nil accountant total should be 0")
	}
}

// RelativeError returns |est-truth|/truth, a helper shared by tests.
func RelativeError(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}
