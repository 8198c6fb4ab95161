package overlay

import (
	"fmt"
	"sync/atomic"

	"egoist/internal/linkstate"
	"egoist/internal/plane"
)

// DataHandler receives overlay-routed payloads delivered to this node.
// It is an alias so plain func literals satisfy interfaces that name the
// unnamed function type (e.g. transfer.DataPlane).
type DataHandler = func(src int, payload []byte)

// forwarding is the node's data-plane bookkeeping; next hops come from
// the node's published route snapshot (nextHop).
type forwarding struct {
	tree    atomic.Pointer[tree] // of the snapshot last forwarded on
	handler atomic.Pointer[DataHandler]
	seq     atomic.Uint64

	// Delivery and drop counters, exported for tests and monitoring.
	delivered, forwarded, dropped atomic.Int64
}

// SetDataHandler installs the callback for payloads addressed to this
// node. It may be called at any time; a nil handler discards deliveries.
func (n *Node) SetDataHandler(h DataHandler) { n.fwd.handler.Store(&h) }

// DataStats returns (delivered, forwarded, dropped) message counts.
func (n *Node) DataStats() (delivered, forwarded, dropped int) {
	return int(n.fwd.delivered.Load()), int(n.fwd.forwarded.Load()), int(n.fwd.dropped.Load())
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
	msg := &linkstate.Data{
		Src: uint16(n.cfg.ID), Dst: uint16(dst), Via: linkstate.NoVia,
		TTL: uint8(2*n.cfg.N + 4), Seq: n.fwd.seq.Add(1), Payload: payload,
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
		n.fwd.delivered.Add(1)
		if h := n.fwd.handler.Load(); h != nil && *h != nil {
			(*h)(int(msg.Src), msg.Payload)
		}
		return
	}
	if msg.TTL == 0 {
		n.fwd.dropped.Add(1)
		return
	}
	msg.TTL--
	hop := n.nextHop(int(msg.Dst))
	if hop < 0 || hop == pkt.From {
		// No route, or the route points straight back: drop rather than
		// loop. The link-state view will converge and a retry will go
		// through.
		n.fwd.dropped.Add(1)
		return
	}
	data, err := msg.Marshal()
	if err != nil {
		return
	}
	n.fwd.forwarded.Add(1)
	n.send(hop, data)
}

// nextHop is the first hop of the route the published snapshot serves
// for dst (/route's, ties included), -1 when it serves none. The first
// packet after a publish builds the snapshot's tree from this node (one
// Dijkstra, Snapshot.Tree); the rest walk it. No cache counter sees it.
func (n *Node) nextHop(dst int) int {
	if dst < 0 || dst >= n.cfg.N {
		return -1
	}
	snap := n.routes.Current()
	t := n.fwd.tree.Load()
	if t == nil || t.snap != snap {
		t = &tree{snap: snap}
		_, t.parent = snap.Tree(n.cfg.ID)
		n.fwd.tree.Store(t)
	}
	v := int32(dst)
	for v >= 0 && t.parent[v] != int32(n.cfg.ID) {
		v = t.parent[v]
	}
	return int(v)
}

// tree is a published snapshot's shortest-path tree from this node.
type tree struct {
	snap   *plane.Snapshot
	parent []int32
}
