package overlay

import (
	"fmt"
	"sync"

	"egoist/internal/graph"
	"egoist/internal/linkstate"
)

// DataHandler receives overlay-routed payloads delivered to this node.
// It is an alias so plain func literals satisfy interfaces that name the
// unnamed function type (e.g. transfer.DataPlane).
type DataHandler = func(src int, payload []byte)

// forwarding is the node's data plane: a next-hop table over the announced
// overlay, recomputed whenever the link-state view or the node's own
// wiring changes.
type forwarding struct {
	mu      sync.Mutex
	next    []int // next[dst] = next overlay hop, -1 if unreachable
	handler DataHandler
	seq     uint64

	// Delivery and drop counters, exported for tests and monitoring.
	delivered, forwarded, dropped int
}

// SetDataHandler installs the callback for payloads addressed to this
// node. It may be called at any time; a nil handler discards deliveries.
func (n *Node) SetDataHandler(h DataHandler) {
	n.fwd.mu.Lock()
	defer n.fwd.mu.Unlock()
	n.fwd.handler = h
}

// DataStats returns (delivered, forwarded, dropped) message counts.
func (n *Node) DataStats() (delivered, forwarded, dropped int) {
	n.fwd.mu.Lock()
	defer n.fwd.mu.Unlock()
	return n.fwd.delivered, n.fwd.forwarded, n.fwd.dropped
}

// Send routes a payload to dst over the overlay using shortest-path
// forwarding (the overlay routing of Sect. 3.1). It fails when no overlay
// route to dst is currently known.
func (n *Node) Send(dst int, payload []byte) error {
	return n.SendVia(dst, -1, payload)
}

// SendVia routes a payload to dst forcing the first overlay hop through
// via (one of this node's neighbors) — the redirection stepping-stone of
// Sect. 6. via < 0 means ordinary shortest-path forwarding.
func (n *Node) SendVia(dst, via int, payload []byte) error {
	if dst == n.cfg.ID {
		return fmt.Errorf("overlay: cannot send to self")
	}
	if dst < 0 || dst >= n.cfg.N {
		return fmt.Errorf("overlay: bad destination %d", dst)
	}
	first := via
	if first < 0 {
		first = n.nextHop(dst)
		if first < 0 {
			return fmt.Errorf("overlay: no route to %d", dst)
		}
	}
	n.fwd.mu.Lock()
	n.fwd.seq++
	seq := n.fwd.seq
	n.fwd.mu.Unlock()
	msg := &linkstate.Data{
		Src: uint16(n.cfg.ID), Dst: uint16(dst), Via: linkstate.NoVia,
		TTL: uint8(2*n.cfg.N + 4), Seq: seq, Payload: payload,
	}
	data, err := msg.Marshal()
	if err != nil {
		return err
	}
	n.send(first, data)
	return nil
}

// handleData delivers or forwards an overlay data message.
func (n *Node) handleData(pkt linkstate.Packet) {
	msg, err := linkstate.UnmarshalData(pkt.Data)
	if err != nil {
		return
	}
	if int(msg.Dst) == n.cfg.ID {
		n.fwd.mu.Lock()
		n.fwd.delivered++
		handler := n.fwd.handler
		n.fwd.mu.Unlock()
		if handler != nil {
			handler(int(msg.Src), msg.Payload)
		}
		return
	}
	if msg.TTL == 0 {
		n.fwd.mu.Lock()
		n.fwd.dropped++
		n.fwd.mu.Unlock()
		return
	}
	msg.TTL--
	hop := n.nextHop(int(msg.Dst))
	if hop < 0 || hop == pkt.From {
		// No route, or the route points straight back: drop rather than
		// loop. The link-state view will converge and a retry will go
		// through.
		n.fwd.mu.Lock()
		n.fwd.dropped++
		n.fwd.mu.Unlock()
		return
	}
	data, err := msg.Marshal()
	if err != nil {
		return
	}
	n.fwd.mu.Lock()
	n.fwd.forwarded++
	n.fwd.mu.Unlock()
	n.send(hop, data)
}

// nextHop returns the current next overlay hop toward dst (-1 when
// unreachable), computing the route table on demand.
func (n *Node) nextHop(dst int) int {
	n.fwd.mu.Lock()
	table := n.fwd.next
	n.fwd.mu.Unlock()
	if table == nil {
		table = n.recomputeRoutes()
	}
	if dst < 0 || dst >= len(table) {
		return -1
	}
	return table[dst]
}

// recomputeRoutes rebuilds the next-hop table from AnnouncedView, the
// graph the daemon's route snapshots are compiled from, taking every
// first hop from the canonical shortest-path row (graph.DijkstraCSR)
// those snapshots serve: under equal-cost ties a packet still leaves
// on the first hop of the route /route reports for it.
func (n *Node) recomputeRoutes() []int {
	g := n.AnnouncedView()
	dist, parent := make([]float64, g.N()), make([]int32, g.N())
	new(graph.SPScratch).DijkstraCSR(graph.NewCSR(g.N(), g.Out), n.cfg.ID, dist, parent)
	table := make([]int, n.cfg.N)
	for dst := range table {
		table[dst] = firstHop(parent, n.cfg.ID, dst)
	}
	n.fwd.mu.Lock()
	n.fwd.next = table
	n.fwd.mu.Unlock()
	return table
}

// invalidateRoutes clears the cached table after wiring or topology
// changes.
func (n *Node) invalidateRoutes() {
	n.fwd.mu.Lock()
	n.fwd.next = nil
	n.fwd.mu.Unlock()
}

// firstHop walks the Dijkstra parent tree from dst back to src and returns
// the first hop on the path, or -1 when unreachable.
func firstHop(parent []int32, src, dst int) int {
	if src == dst {
		return -1
	}
	hop := dst
	for parent[hop] != -1 && int(parent[hop]) != src {
		hop = int(parent[hop])
	}
	if int(parent[hop]) != src {
		return -1
	}
	return hop
}
