package overlay

import (
	"fmt"
	"testing"
	"time"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/linkstate"
	"egoist/internal/topology"
)

// startCluster launches n live nodes on an in-memory bus wired in a
// bootstrap chain (node i bootstraps from node i-1) with a synthetic delay
// oracle from a ring-lattice matrix.
func startCluster(t *testing.T, n, k int, policy core.Policy, mode RewireMode) ([]*Node, *linkstate.Bus, topology.DelayMatrix) {
	t.Helper()
	bus := linkstate.NewBus(n)
	m := topology.RingLattice(n, 5)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		var boot []int
		if i > 0 {
			boot = []int{i - 1}
		} else {
			boot = []int{n - 1}
		}
		node, err := Start(Config{
			ID:        i,
			N:         n,
			K:         k,
			Policy:    policy,
			Transport: bus.Endpoint(i),
			Epoch:     80 * time.Millisecond,
			Announce:  25 * time.Millisecond,
			Heartbeat: 10 * time.Millisecond,
			Mode:      mode,
			Bootstrap: boot,
			DelayOracle: func(from, to int) float64 {
				return m[from][to]
			},
			Seed: int64(i) + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes, bus, m
}

func stopAll(nodes []*Node) {
	for _, n := range nodes {
		if n != nil {
			n.Stop()
		}
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestClusterConvergesToFullKnowledge(t *testing.T) {
	const n, k = 8, 2
	nodes, bus, _ := startCluster(t, n, k, core.BRPolicy{}, Delayed)
	defer bus.Close()
	defer stopAll(nodes)

	waitFor(t, 8*time.Second, func() bool {
		for _, node := range nodes {
			if len(node.KnownNodes()) < n-1 {
				return false
			}
		}
		return true
	}, "nodes never learned the full membership via LSA flooding")
}

func TestClusterRewiresAndStaysConnected(t *testing.T) {
	const n, k = 8, 2
	nodes, bus, _ := startCluster(t, n, k, core.BRPolicy{}, Delayed)
	defer bus.Close()
	defer stopAll(nodes)

	waitFor(t, 10*time.Second, func() bool {
		total := 0
		for _, node := range nodes {
			total += node.Rewires()
			if node.Epochs() < 2 {
				return false
			}
		}
		return total > 0
	}, "no re-wiring happened across the cluster")

	// Build the union overlay from each node's own neighbor list and check
	// strong connectivity.
	g := graph.New(n)
	for _, node := range nodes {
		for _, nb := range node.Neighbors() {
			g.AddArc(node.ID(), nb, 1)
		}
	}
	if !graph.StronglyConnected(g, nil) {
		t.Fatalf("live overlay disconnected: %v", wirings(nodes))
	}
}

func TestEstimatesTrackOracle(t *testing.T) {
	const n, k = 6, 2
	nodes, bus, m := startCluster(t, n, k, core.BRPolicy{}, Delayed)
	defer bus.Close()
	defer stopAll(nodes)

	waitFor(t, 10*time.Second, func() bool {
		est, ok := nodes[0].Estimate(3)
		if !ok {
			return false
		}
		// Oracle adds m[0][3]; loopback RTT noise is tiny. Accept 50%.
		want := m[0][3]
		return est > want*0.5 && est < want*2
	}, "node 0 never produced a sane delay estimate toward node 3")
}

func TestImmediateModeDropsDeadNeighbor(t *testing.T) {
	const n, k = 5, 2
	nodes, bus, _ := startCluster(t, n, k, core.BRPolicy{}, Immediate)
	defer bus.Close()
	defer stopAll(nodes)

	waitFor(t, 8*time.Second, func() bool {
		for _, node := range nodes {
			if len(node.KnownNodes()) < n-1 {
				return false
			}
		}
		return true
	}, "cluster never converged")

	// Find a node that currently links to node 4, then kill node 4.
	victim := nodes[4]
	victim.Stop()
	nodes[4] = nil

	waitFor(t, 10*time.Second, func() bool {
		for _, node := range nodes[:4] {
			for _, nb := range node.Neighbors() {
				if nb == 4 {
					return false
				}
			}
		}
		return true
	}, "live nodes kept linking to the dead node in immediate mode")
}

func TestStartValidation(t *testing.T) {
	bus := linkstate.NewBus(2)
	defer bus.Close()
	cases := []Config{
		{ID: 0, N: 1, K: 1, Transport: bus.Endpoint(0)},
		{ID: 5, N: 2, K: 1, Transport: bus.Endpoint(0)},
		{ID: 0, N: 2, K: 0, Transport: bus.Endpoint(0)},
		{ID: 0, N: 2, K: 1},
	}
	for i, cfg := range cases {
		if _, err := Start(cfg); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
}

func TestUDPCluster(t *testing.T) {
	const n, k = 4, 2
	m := topology.RingLattice(n, 4)
	transports := make([]*linkstate.UDPTransport, n)
	for i := range transports {
		tr, err := linkstate.NewUDPTransport("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
	}
	for i, tr := range transports {
		for j, other := range transports {
			if i != j {
				tr.Register(j, other.LocalAddr())
			}
		}
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := Start(Config{
			ID:        i,
			N:         n,
			K:         k,
			Transport: transports[i],
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

	waitFor(t, 10*time.Second, func() bool {
		for _, node := range nodes {
			if len(node.KnownNodes()) < n-1 {
				return false
			}
		}
		return true
	}, "UDP cluster never converged to full membership")
}

func wirings(nodes []*Node) string {
	s := ""
	for _, n := range nodes {
		if n != nil {
			s += fmt.Sprintf("%d->%v ", n.ID(), n.Neighbors())
		}
	}
	return s
}

// TestKRandomClusterSettles pins the daemon to the adoption rule of the
// simulation engine: k-Random is static (Sect. 3.2), so once every node
// holds its K links no node re-wires again.
func TestKRandomClusterSettles(t *testing.T) {
	const n, k = 8, 2
	nodes, bus, _ := startCluster(t, n, k, core.KRandom{}, Delayed)
	defer bus.Close()
	defer stopAll(nodes)

	waitFor(t, 10*time.Second, func() bool {
		for _, node := range nodes {
			if node.Epochs() < 2 || len(node.Neighbors()) < k {
				return false
			}
		}
		return true
	}, "k-Random nodes never held K links")
	rewires := make([]int, n)
	epochs := make([]int, n)
	for i, node := range nodes {
		rewires[i] = node.Rewires()
		epochs[i] = node.Epochs()
	}
	before := wirings(nodes)
	waitFor(t, 10*time.Second, func() bool {
		for i, node := range nodes {
			if node.Epochs() < epochs[i]+4 {
				return false
			}
		}
		return true
	}, "nodes stopped running epochs")
	for i, node := range nodes {
		if got := node.Rewires(); got != rewires[i] {
			t.Errorf("node %d re-wired %d more links after holding K", i, got-rewires[i])
		}
	}
	if after := wirings(nodes); after != before {
		t.Errorf("wiring moved after every node held K links:\nbefore %s\nafter  %s", before, after)
	}
}
