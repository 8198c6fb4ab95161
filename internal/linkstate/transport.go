package linkstate

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Packet is a datagram received from a peer overlay node.
type Packet struct {
	From int // sender node id, -1 if unknown
	Data []byte
	// Addr is the datagram's source address when the transport has one
	// (UDP); nil on the in-memory bus. PEX-enabled nodes use it to learn
	// the addresses of senders the book does not know yet.
	Addr *net.UDPAddr
}

// Transport moves datagrams between overlay nodes addressed by node id.
// Implementations must be safe for concurrent use.
type Transport interface {
	// Send delivers a datagram to node `to` (best-effort, like UDP).
	Send(to int, data []byte) error
	// Recv returns the channel of inbound packets. The channel closes when
	// the transport is closed.
	Recv() <-chan Packet
	// Close releases resources and closes the Recv channel.
	Close() error
}

// Bus is an in-memory datagram network connecting n transports, used by
// tests and the in-process demo deployment. It can drop packets and delay
// delivery to model lossy links.
type Bus struct {
	mu     sync.Mutex
	eps    []*busEndpoint
	drop   func(from, to int) bool
	delay  func(from, to int) time.Duration
	closed bool
}

// NewBus creates an in-memory network with n endpoints.
func NewBus(n int) *Bus {
	b := &Bus{eps: make([]*busEndpoint, n)}
	for i := range b.eps {
		b.eps[i] = &busEndpoint{bus: b, id: i, ch: make(chan Packet, 1024)}
	}
	return b
}

// SetLoss installs a packet-drop predicate (nil disables loss).
func (b *Bus) SetLoss(drop func(from, to int) bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drop = drop
}

// Endpoint returns the transport for node id.
func (b *Bus) Endpoint(id int) Transport { return b.eps[id] }

// Close shuts down every endpoint.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, ep := range b.eps {
		ep.close()
	}
}

type busEndpoint struct {
	bus    *Bus
	id     int
	mu     sync.Mutex
	ch     chan Packet
	closed bool
}

func (e *busEndpoint) Send(to int, data []byte) error {
	b := e.bus
	b.mu.Lock()
	if b.closed || to < 0 || to >= len(b.eps) {
		b.mu.Unlock()
		return fmt.Errorf("linkstate: bad destination %d", to)
	}
	if b.drop != nil && b.drop(e.id, to) {
		b.mu.Unlock()
		return nil // silently dropped, like the real network
	}
	dst := b.eps[to]
	var d time.Duration
	if b.delay != nil {
		d = b.delay(e.id, to)
	}
	b.mu.Unlock()

	cp := append([]byte(nil), data...)
	deliver := func() {
		dst.mu.Lock()
		defer dst.mu.Unlock()
		if dst.closed {
			return
		}
		select {
		case dst.ch <- Packet{From: e.id, Data: cp}:
		default: // receiver queue full: drop, like UDP
		}
	}
	if d > 0 {
		time.AfterFunc(d, deliver)
	} else {
		deliver()
	}
	return nil
}

func (e *busEndpoint) Recv() <-chan Packet { return e.ch }

func (e *busEndpoint) Close() error {
	e.bus.mu.Lock()
	defer e.bus.mu.Unlock()
	e.close()
	return nil
}

func (e *busEndpoint) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.ch)
	}
}

// UDPTransport sends overlay datagrams over real UDP sockets. The address
// book maps node ids to UDP addresses; it can be updated as membership
// changes.
type UDPTransport struct {
	conn *net.UDPConn
	mu   sync.RWMutex
	book map[int]*net.UDPAddr
	rev  map[string]int
	drop func(peer int) bool
	ch   chan Packet
	done chan struct{}
	once sync.Once

	dropSend atomic.Int64 // datagrams discarded by the fault rule on send
	dropRecv atomic.Int64 // inbound datagrams discarded by the fault rule
}

// NewUDPTransport binds a UDP socket on addr (e.g. "127.0.0.1:0") and
// starts its receive loop.
func NewUDPTransport(addr string) (*UDPTransport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("linkstate: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("linkstate: listen %q: %w", addr, err)
	}
	t := &UDPTransport{
		conn: conn,
		book: make(map[int]*net.UDPAddr),
		rev:  make(map[string]int),
		ch:   make(chan Packet, 1024),
		done: make(chan struct{}),
	}
	go t.recvLoop()
	return t, nil
}

// LocalAddr returns the bound UDP address.
func (t *UDPTransport) LocalAddr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// Register maps a node id to its UDP address, superseding any previous
// address for the id (last write wins — the restart rule of the PEX
// protocol, see pex.go).
func (t *UDPTransport) Register(id int, addr *net.UDPAddr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.book[id]; ok {
		delete(t.rev, old.String())
	}
	t.book[id] = addr
	t.rev[addr.String()] = id
}

// Peers snapshots the address book as gossip entries (non-IPv4 entries
// are skipped: PEX does not carry them). Implements AddressBook.
func (t *UDPTransport) Peers() []PeerAddr {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]PeerAddr, 0, len(t.book))
	for id, addr := range t.book {
		if p, ok := PeerAddrOf(id, addr); ok {
			out = append(out, p)
		}
	}
	return out
}

// SetFault installs a drop predicate consulted on every datagram: a
// send to a matched peer id is silently discarded (like network loss)
// and an inbound datagram from a matched peer (-1 for unknown senders)
// never reaches Recv. This is the deployment harness's partition and
// outage injection point; nil clears all rules.
func (t *UDPTransport) SetFault(drop func(peer int) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.drop = drop
}

// FaultDrops reports how many datagrams the injected fault rule has
// discarded on each leg since the transport started. The counters keep
// counting across rule changes (they tally hits, not rules), so a lab
// scrape sees exactly how much traffic a partition actually suppressed.
func (t *UDPTransport) FaultDrops() (send, recv int64) {
	return t.dropSend.Load(), t.dropRecv.Load()
}

// Send implements Transport.
func (t *UDPTransport) Send(to int, data []byte) error {
	t.mu.RLock()
	addr, ok := t.book[to]
	drop := t.drop
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("linkstate: no address for node %d", to)
	}
	if drop != nil && drop(to) {
		t.dropSend.Add(1)
		return nil // dropped by an injected fault, like the real network
	}
	_, err := t.conn.WriteToUDP(data, addr)
	return err
}

// Recv implements Transport.
func (t *UDPTransport) Recv() <-chan Packet { return t.ch }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	var err error
	t.once.Do(func() {
		close(t.done)
		err = t.conn.Close()
	})
	return err
}

func (t *UDPTransport) recvLoop() {
	defer close(t.ch)
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				// Transient error on a live socket: keep reading.
				continue
			}
		}
		t.mu.RLock()
		from, ok := t.rev[raddr.String()]
		drop := t.drop
		t.mu.RUnlock()
		if !ok {
			from = -1
		}
		if drop != nil && drop(from) {
			t.dropRecv.Add(1)
			continue // inbound leg of an injected fault
		}
		pkt := Packet{From: from, Data: append([]byte(nil), buf[:n]...), Addr: raddr}
		select {
		case t.ch <- pkt:
		default: // receiver falling behind: drop
		}
	}
}
