package sim

import (
	"math"
	"math/rand"
	"testing"

	"egoist/internal/core"
	"egoist/internal/topology"
)

func TestTraceNetworkValidation(t *testing.T) {
	bad := topology.NewMatrix(3) // zeros off-diagonal: invalid
	if _, err := NewTraceNetwork(bad, 0, 1); err == nil {
		t.Fatal("invalid matrix accepted")
	}
}

func TestTraceNetworkServesMatrix(t *testing.T) {
	m := topology.RingLattice(6, 10)
	net, err := NewTraceNetwork(m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 6 {
		t.Fatalf("N = %d", net.N())
	}
	if net.Delay(0, 1) != 10 || net.Delay(1, 1) != 0 {
		t.Fatalf("delays wrong: %v %v", net.Delay(0, 1), net.Delay(1, 1))
	}
	net.Step(1) // frozen trace: no change
	if net.Delay(0, 1) != 10 {
		t.Fatal("jitter-free trace changed on Step")
	}
	if net.Load(0) <= 0 || net.AvailBW(0, 1) <= 0 {
		t.Fatal("load/bandwidth must be positive placeholders")
	}
}

func TestTraceNetworkJitterStaysSane(t *testing.T) {
	m := topology.Waxman(10, 100, rand.New(rand.NewSource(2)))
	net, err := NewTraceNetwork(m, 0.08, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 30; s++ {
		net.Step(1)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i == j {
				continue
			}
			ratio := net.Delay(i, j) / m[i][j]
			if ratio < 0.2 || ratio > 3 || math.IsNaN(ratio) {
				t.Fatalf("delay(%d,%d) drifted by %v", i, j, ratio)
			}
		}
	}
}

func TestSimOverTraceNetwork(t *testing.T) {
	m := topology.Waxman(20, 150, rand.New(rand.NewSource(4)))
	net, err := NewTraceNetwork(m, 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		N: 20, K: 3, Seed: 6, Metric: DelayPing, Policy: core.BRPolicy{},
		WarmEpochs: 5, MeasureEpochs: 4, Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Mean <= 0 || res.Cost.Mean >= core.DisconnectedPenalty {
		t.Fatalf("trace-driven cost = %v", res.Cost.Mean)
	}
}

func TestSimNetworkSizeMismatch(t *testing.T) {
	m := topology.RingLattice(5, 1)
	net, err := NewTraceNetwork(m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{
		N: 10, K: 2, Seed: 1, Policy: core.BRPolicy{},
		MeasureEpochs: 1, Network: net,
	}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestBRBeatsHeuristicsOnTrace(t *testing.T) {
	m := topology.Waxman(24, 150, rand.New(rand.NewSource(7)))
	runOn := func(policy core.Policy) float64 {
		net, err := NewTraceNetwork(m, 0.05, 9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			N: 24, K: 3, Seed: 8, Metric: DelayPing, Policy: policy,
			WarmEpochs: 5, MeasureEpochs: 4, Network: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost.Mean
	}
	br := runOn(core.BRPolicy{})
	krand := runOn(core.KRandom{})
	if br >= krand {
		t.Fatalf("BR %v not better than k-Random %v on trace", br, krand)
	}
}
