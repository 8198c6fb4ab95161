package overlay

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"egoist/internal/core"
	"egoist/internal/linkstate"
	"egoist/internal/topology"
)

// TestClusterToleratesPacketLoss runs a live cluster over a bus dropping
// 30% of all packets: LSAs are re-announced every Announce period and echo
// probes repeat every epoch, so knowledge must still converge.
func TestClusterToleratesPacketLoss(t *testing.T) {
	const n, k = 6, 2
	bus := linkstate.NewBus(n)
	defer bus.Close()
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	bus.SetLoss(func(from, to int) bool {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64() < 0.3
	})
	m := topology.RingLattice(n, 5)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := Start(Config{
			ID: i, N: n, K: k,
			Policy:    core.BRPolicy{},
			Transport: bus.Endpoint(i),
			Epoch:     80 * time.Millisecond,
			Announce:  25 * time.Millisecond,
			Bootstrap: []int{(i + n - 1) % n},
			DelayOracle: func(from, to int) float64 {
				return m[from][to]
			},
			Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	defer stopAll(nodes)

	waitFor(t, 15*time.Second, func() bool {
		for _, node := range nodes {
			if len(node.KnownNodes()) < n-1 {
				return false
			}
		}
		return true
	}, "cluster never converged under 30% packet loss")
}

// TestClusterSurvivesAsymmetricPartition drops all packets toward one node
// for a while, then heals; the victim must re-learn the overlay.
func TestClusterSurvivesTransientBlackout(t *testing.T) {
	const n, k = 5, 2
	bus := linkstate.NewBus(n)
	defer bus.Close()
	var mu sync.Mutex
	blackout := true
	bus.SetLoss(func(from, to int) bool {
		mu.Lock()
		defer mu.Unlock()
		return blackout && to == 4
	})
	m := topology.RingLattice(n, 4)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := Start(Config{
			ID: i, N: n, K: k,
			Policy:    core.BRPolicy{},
			Transport: bus.Endpoint(i),
			Epoch:     70 * time.Millisecond,
			Announce:  20 * time.Millisecond,
			Bootstrap: []int{(i + n - 1) % n},
			DelayOracle: func(from, to int) float64 {
				return m[from][to]
			},
			Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	defer stopAll(nodes)

	// Let the healthy part converge.
	waitFor(t, 10*time.Second, func() bool {
		for _, node := range nodes[:4] {
			if len(node.KnownNodes()) < n-2 {
				return false
			}
		}
		return true
	}, "healthy nodes never converged during blackout")

	mu.Lock()
	blackout = false
	mu.Unlock()

	waitFor(t, 15*time.Second, func() bool {
		return len(nodes[4].KnownNodes()) >= n-1
	}, "blacked-out node never re-learned the overlay after healing")
}

// TestEpsilonSuppressesLiveRewiring checks BR(eps) on the live runtime:
// with a huge threshold a converged node should stop re-wiring.
func TestEpsilonSuppressesLiveRewiring(t *testing.T) {
	const n, k = 6, 2
	bus := linkstate.NewBus(n)
	defer bus.Close()
	m := topology.RingLattice(n, 5)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := Start(Config{
			ID: i, N: n, K: k,
			Policy:    core.BRPolicy{},
			Transport: bus.Endpoint(i),
			Epoch:     60 * time.Millisecond,
			Announce:  20 * time.Millisecond,
			Epsilon:   0.9, // nothing short of 10x improvement re-wires
			Bootstrap: []int{(i + n - 1) % n},
			DelayOracle: func(from, to int) float64 {
				return m[from][to]
			},
			Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	defer stopAll(nodes)

	waitFor(t, 10*time.Second, func() bool {
		for _, node := range nodes {
			if node.Epochs() < 3 {
				return false
			}
		}
		return true
	}, "epochs never ran")

	before := 0
	for _, node := range nodes {
		before += node.Rewires()
	}
	time.Sleep(500 * time.Millisecond)
	after := 0
	for _, node := range nodes {
		after += node.Rewires()
	}
	// First re-wiring away from the single bootstrap link is a >eps
	// improvement and allowed; after that the wiring should be frozen.
	if after > before+n {
		t.Fatalf("re-wiring continued under eps=0.9: %d -> %d", before, after)
	}
}

// TestHeartbeatForgetsEveryDeadNeighbour: when two neighbours stop
// acking in the same heartbeat (Immediate mode), both links go and both
// LSAs leave the link-state view.
func TestHeartbeatForgetsEveryDeadNeighbour(t *testing.T) {
	const n = 4
	bus := linkstate.NewBus(n)
	defer bus.Close()
	node := &Node{
		cfg:       Config{ID: 0, N: n, Mode: Immediate, Heartbeat: time.Second, Transport: bus.Endpoint(0)},
		db:        linkstate.NewDB(n, time.Minute, nil),
		est:       map[int]*ewma{},
		lastAck:   map[int]time.Time{},
		lastReply: map[int]time.Time{},
		changed:   make(chan struct{}, 1),
		neighbors: []int{1, 2, 3},
	}
	for u := 1; u < n; u++ {
		node.db.Apply(&linkstate.LSA{Origin: uint16(u), Seq: 1, Neighbors: []linkstate.Neighbor{{ID: 0, Cost: 1}}})
	}
	node.lastAck[1] = time.Now().Add(-time.Hour)
	node.lastAck[2] = time.Now().Add(-time.Hour)
	node.heartbeat()
	if got := node.Neighbors(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("neighbours after the heartbeat: %v, want [3]", got)
	}
	for _, dead := range []uint16{1, 2} {
		if _, ok := node.db.Seq(dead); ok {
			t.Fatalf("the LSA of dead neighbour %d is still in the view", dead)
		}
	}
}
