package egoist

import (
	"fmt"
	"time"

	"egoist/internal/linkstate"
	"egoist/internal/overlay"
	"egoist/internal/topology"
	"egoist/internal/transfer"
)

// LiveOptions configures an in-process live overlay: N goroutine-driven
// nodes speaking the real link-state protocol over an in-memory datagram
// bus, with a synthetic wide-area delay oracle layered on the echo probes.
type LiveOptions struct {
	// N nodes with K links each.
	N, K int
	// Epoch is the wiring epoch T (default 250ms for demos; the paper's
	// deployment used 60s).
	Epoch time.Duration
	// Policy defaults to BR; Donated configures HybridBR backbone links.
	Policy  PolicyKind
	Donated int
	// Epsilon is the BR(ε) threshold.
	Epsilon float64
	// Seed drives the synthetic delay geometry.
	Seed int64
}

// LiveOverlay is a running in-process overlay.
type LiveOverlay struct {
	nodes []*overlay.Node
	bus   *linkstate.Bus
	// Delays is the synthetic one-way delay matrix behind the probes.
	Delays topology.DelayMatrix
}

// StartLocalOverlay launches an in-process live overlay. Call Stop when
// done.
func StartLocalOverlay(opts LiveOptions) (*LiveOverlay, error) {
	if opts.N < 2 || opts.K < 1 {
		return nil, fmt.Errorf("egoist: bad live options N=%d K=%d", opts.N, opts.K)
	}
	if opts.Epoch <= 0 {
		opts.Epoch = 250 * time.Millisecond
	}
	policy, err := resolvePolicy(opts.Policy, opts.Donated)
	if err != nil {
		return nil, err
	}

	lo := &LiveOverlay{
		bus:    linkstate.NewBus(opts.N),
		Delays: topology.Waxman(opts.N, 120, newRand(opts.Seed)),
	}
	for i := 0; i < opts.N; i++ {
		boot := []int{(i + opts.N - 1) % opts.N}
		node, err := overlay.Start(overlay.Config{
			ID: i, N: opts.N, K: opts.K,
			Policy:    policy,
			Transport: lo.bus.Endpoint(i),
			Epoch:     opts.Epoch,
			Epsilon:   opts.Epsilon,
			Bootstrap: boot,
			DelayOracle: func(from, to int) float64 {
				return lo.Delays[from][to]
			},
			Seed: opts.Seed + int64(i),
		})
		if err != nil {
			lo.Stop()
			return nil, err
		}
		lo.nodes = append(lo.nodes, node)
	}
	return lo, nil
}

// Stop terminates every node and the bus.
func (lo *LiveOverlay) Stop() {
	for _, n := range lo.nodes {
		if n != nil {
			n.Stop()
		}
	}
	if lo.bus != nil {
		lo.bus.Close()
	}
}

// N returns the overlay size.
func (lo *LiveOverlay) N() int { return len(lo.nodes) }

// Neighbors returns node i's current neighbor set.
func (lo *LiveOverlay) Neighbors(i int) []int { return lo.nodes[i].Neighbors() }

// Known returns how many peers node i has discovered via LSA flooding.
func (lo *LiveOverlay) Known(i int) int { return len(lo.nodes[i].KnownNodes()) }

// Rewires returns node i's cumulative established links.
func (lo *LiveOverlay) Rewires(i int) int { return lo.nodes[i].Rewires() }

// Estimate returns node i's smoothed delay estimate toward j in ms.
func (lo *LiveOverlay) Estimate(i, j int) (float64, bool) { return lo.nodes[i].Estimate(j) }

// Wiring snapshots every node's neighbor set.
func (lo *LiveOverlay) Wiring() [][]int {
	out := make([][]int, len(lo.nodes))
	for i, n := range lo.nodes {
		out[i] = n.Neighbors()
	}
	return out
}

// Send routes a payload from node src to node dst over the overlay using
// hop-by-hop shortest-path forwarding — EGOIST's data plane.
func (lo *LiveOverlay) Send(src, dst int, payload []byte) error {
	return lo.nodes[src].Send(dst, payload)
}

// SendVia routes a payload from src to dst forcing the first overlay hop —
// the redirection primitive of the Sect. 6 applications.
func (lo *LiveOverlay) SendVia(src, dst, via int, payload []byte) error {
	return lo.nodes[src].SendVia(dst, via, payload)
}

// OnData installs node's delivery callback for overlay-routed payloads.
func (lo *LiveOverlay) OnData(node int, handler func(src int, payload []byte)) {
	lo.nodes[node].SetDataHandler(handler)
}

// DataStats returns (delivered, forwarded, dropped) counters for a node.
func (lo *LiveOverlay) DataStats(node int) (delivered, forwarded, dropped int) {
	return lo.nodes[node].DataStats()
}

// FileEndpoint attaches a multipath file-transfer manager (Sect. 6.1) to a
// node. It takes over the node's data handler, so use either FileEndpoint
// or OnData on a given node, not both.
func (lo *LiveOverlay) FileEndpoint(node int) *FileTransfer {
	return &FileTransfer{mgr: transfer.New(lo.nodes[node])}
}

// FileTransfer sends and receives chunked payloads over the overlay with
// parallel first-hop redirection and NACK-based loss repair.
type FileTransfer struct {
	mgr *transfer.Manager
}

// SendFile transfers data to dst; multipath spreads chunks over the
// sender's first-hop neighbors. It returns the transfer id.
func (ft *FileTransfer) SendFile(dst int, data []byte, multipath bool) (uint64, error) {
	return ft.mgr.Transfer(dst, data, 0, multipath)
}

// OnFile installs the completion callback for received transfers.
func (ft *FileTransfer) OnFile(f func(src int, id uint64, data []byte)) {
	ft.mgr.OnComplete(f)
}

// Repair triggers one NACK round for incomplete inbound transfers; call
// it periodically while receiving over a lossy path.
func (ft *FileTransfer) Repair() { ft.mgr.Tick() }
