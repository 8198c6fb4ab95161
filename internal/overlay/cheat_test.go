package overlay

import (
	"testing"
	"time"

	"egoist/internal/cheat"
	"egoist/internal/core"
	"egoist/internal/linkstate"
	"egoist/internal/topology"
)

// TestLiveCheaterAnnouncesInflatedCosts verifies the free-rider hook on
// the live runtime: a node with a cheat model installed floods LSAs whose
// link costs are inflated, and honest nodes' topology databases reflect
// the lie.
func TestLiveCheaterAnnouncesInflatedCosts(t *testing.T) {
	const n, k = 5, 2
	const cheater = 2
	bus := linkstate.NewBus(n)
	defer bus.Close()
	m := topology.RingLattice(n, 10)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{
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
		}
		if i == cheater {
			cfg.Cheat = cheat.Single(n, cheater, 4)
		}
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	defer stopAll(nodes)

	// Wait until an honest node has the cheater's LSA with a cost, then
	// compare against what the cheater actually measured.
	waitFor(t, 12*time.Second, func() bool {
		g := nodes[0].db.Graph()
		for _, nb := range nodes[cheater].Neighbors() {
			announced, ok := g.Weight(cheater, nb)
			if !ok {
				continue
			}
			actual, ok := nodes[cheater].Estimate(nb)
			if !ok || actual <= 0 {
				continue
			}
			// 4x inflation with EWMA noise: accept anything clearly >2x.
			if announced > actual*2 {
				return true
			}
		}
		return false
	}, "honest node never observed inflated announcements from the cheater")
}
