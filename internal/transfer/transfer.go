// Package transfer implements the multipath file-transfer application of
// Sect. 6.1 on the live overlay data plane: a payload is split into
// chunks, the chunks are spread over parallel first-hop redirections
// (escaping per-session rate caps at AS peering points), and a NACK-based
// repair loop retransmits whatever the lossy datagram substrate drops.
//
// The package speaks through the DataPlane interface, which *overlay.Node
// satisfies, so the same code runs over the in-memory bus and over UDP.
package transfer

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// DataPlane is the overlay routing service a transfer runs on.
type DataPlane interface {
	// ID returns the local node id.
	ID() int
	// Neighbors returns the current first-hop candidates.
	Neighbors() []int
	// Send routes a payload to dst over overlay shortest paths.
	Send(dst int, payload []byte) error
	// SendVia routes a payload forcing the first overlay hop.
	SendVia(dst, via int, payload []byte) error
	// SetDataHandler installs the delivery callback.
	SetDataHandler(h func(src int, payload []byte))
}

// Wire message kinds inside overlay data payloads.
const (
	kindChunk = 0x01
	kindNack  = 0x02
	kindDone  = 0x03
)

// chunkHeader is kind(1) + transferID(8) + index(4) + total(4).
const chunkHeader = 17

// MaxChunk bounds one chunk's data bytes.
const MaxChunk = 16 * 1024

// maxNackList bounds how many missing indices one NACK carries.
const maxNackList = 512

// Manager runs transfers over one data plane. Install exactly one Manager
// per node; it takes over the node's data handler.
type Manager struct {
	dp DataPlane

	mu         sync.Mutex
	nextID     uint64
	outgoing   map[uint64]*txState
	incoming   map[rxKey]*rxState
	onComplete func(src int, id uint64, data []byte)
}

type rxKey struct {
	src int
	id  uint64
}

type txState struct {
	dst       int
	chunks    [][]byte
	done      bool
	multipath bool
	rotor     int
}

type rxState struct {
	chunks [][]byte
	got    int
}

// New installs a Manager on the data plane.
func New(dp DataPlane) *Manager {
	m := &Manager{
		dp:       dp,
		outgoing: map[uint64]*txState{},
		incoming: map[rxKey]*rxState{},
	}
	dp.SetDataHandler(m.handle)
	return m
}

// OnComplete installs the receive-side completion callback.
func (m *Manager) OnComplete(f func(src int, id uint64, data []byte)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onComplete = f
}

// Transfer starts sending data to dst in chunks of chunkSize bytes.
// When multipath is set, chunks round-robin over the node's first-hop
// neighbors (the parallel sessions of Fig. 9/10); otherwise they follow
// the shortest path. It returns the transfer id. Lost chunks are repaired
// when the receiver NACKs; drive repair with Tick.
func (m *Manager) Transfer(dst int, data []byte, chunkSize int, multipath bool) (uint64, error) {
	if dst == m.dp.ID() {
		return 0, fmt.Errorf("transfer: cannot send to self")
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("transfer: empty payload")
	}
	if chunkSize <= 0 || chunkSize > MaxChunk {
		chunkSize = 4096
	}
	var chunks [][]byte
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		chunks = append(chunks, data[off:end])
	}
	m.mu.Lock()
	m.nextID++
	id := m.nextID
	tx := &txState{dst: dst, chunks: chunks, multipath: multipath}
	m.outgoing[id] = tx
	m.mu.Unlock()

	for idx := range chunks {
		m.sendChunk(id, tx, idx)
	}
	return id, nil
}

// sendChunk transmits one chunk, rotating over first hops when multipath.
func (m *Manager) sendChunk(id uint64, tx *txState, idx int) {
	buf := make([]byte, chunkHeader+len(tx.chunks[idx]))
	buf[0] = kindChunk
	binary.BigEndian.PutUint64(buf[1:], id)
	binary.BigEndian.PutUint32(buf[9:], uint32(idx))
	binary.BigEndian.PutUint32(buf[13:], uint32(len(tx.chunks)))
	copy(buf[chunkHeader:], tx.chunks[idx])

	if tx.multipath {
		if nbs := m.dp.Neighbors(); len(nbs) > 0 {
			m.mu.Lock()
			via := nbs[tx.rotor%len(nbs)]
			tx.rotor++
			m.mu.Unlock()
			if err := m.dp.SendVia(tx.dst, via, buf); err == nil {
				return
			}
		}
	}
	_ = m.dp.Send(tx.dst, buf)
}

// Tick drives the repair loop once: incomplete receivers NACK their
// missing chunks. Call it periodically (e.g. once per RTT estimate).
func (m *Manager) Tick() {
	m.mu.Lock()
	type nack struct {
		src     int
		id      uint64
		missing []uint32
	}
	var nacks []nack
	for key, rx := range m.incoming {
		if rx.got == len(rx.chunks) {
			continue
		}
		var missing []uint32
		for i, c := range rx.chunks {
			if c == nil {
				missing = append(missing, uint32(i))
				if len(missing) >= maxNackList {
					break
				}
			}
		}
		nacks = append(nacks, nack{src: key.src, id: key.id, missing: missing})
	}
	m.mu.Unlock()
	for _, nk := range nacks {
		buf := make([]byte, 13+4*len(nk.missing))
		buf[0] = kindNack
		binary.BigEndian.PutUint64(buf[1:], nk.id)
		binary.BigEndian.PutUint32(buf[9:], uint32(len(nk.missing)))
		for i, idx := range nk.missing {
			binary.BigEndian.PutUint32(buf[13+4*i:], idx)
		}
		_ = m.dp.Send(nk.src, buf)
	}
}

// handle dispatches inbound transfer messages.
func (m *Manager) handle(src int, payload []byte) {
	if len(payload) < 1 {
		return
	}
	switch payload[0] {
	case kindChunk:
		m.handleChunk(src, payload)
	case kindNack:
		m.handleNack(src, payload)
	case kindDone:
		m.handleDone(payload)
	}
}

func (m *Manager) handleChunk(src int, payload []byte) {
	if len(payload) < chunkHeader {
		return
	}
	id := binary.BigEndian.Uint64(payload[1:])
	idx := int(binary.BigEndian.Uint32(payload[9:]))
	total := int(binary.BigEndian.Uint32(payload[13:]))
	if total <= 0 || idx < 0 || idx >= total || total > 1<<20 {
		return
	}
	key := rxKey{src: src, id: id}
	var complete []byte
	var completeCB func(int, uint64, []byte)

	m.mu.Lock()
	rx, ok := m.incoming[key]
	if !ok {
		rx = &rxState{chunks: make([][]byte, total)}
		m.incoming[key] = rx
	}
	if len(rx.chunks) == total && rx.chunks[idx] == nil {
		rx.chunks[idx] = append([]byte(nil), payload[chunkHeader:]...)
		rx.got++
		if rx.got == total {
			for _, c := range rx.chunks {
				complete = append(complete, c...)
			}
			completeCB = m.onComplete
			delete(m.incoming, key)
		}
	}
	m.mu.Unlock()

	if complete != nil {
		// Acknowledge completion so the sender can drop its buffers.
		done := make([]byte, 9)
		done[0] = kindDone
		binary.BigEndian.PutUint64(done[1:], id)
		_ = m.dp.Send(src, done)
		if completeCB != nil {
			completeCB(src, id, complete)
		}
	}
}

func (m *Manager) handleNack(src int, payload []byte) {
	if len(payload) < 13 {
		return
	}
	id := binary.BigEndian.Uint64(payload[1:])
	count := int(binary.BigEndian.Uint32(payload[9:]))
	if count < 0 || count > maxNackList || len(payload) != 13+4*count {
		return
	}
	m.mu.Lock()
	tx, ok := m.outgoing[id]
	m.mu.Unlock()
	if !ok || tx.done || tx.dst != src {
		return
	}
	for i := 0; i < count; i++ {
		idx := int(binary.BigEndian.Uint32(payload[13+4*i:]))
		if idx >= 0 && idx < len(tx.chunks) {
			m.sendChunk(id, tx, idx)
		}
	}
}

func (m *Manager) handleDone(payload []byte) {
	if len(payload) != 9 {
		return
	}
	id := binary.BigEndian.Uint64(payload[1:])
	m.mu.Lock()
	if tx, ok := m.outgoing[id]; ok {
		tx.done = true
		tx.chunks = nil
	}
	m.mu.Unlock()
}
