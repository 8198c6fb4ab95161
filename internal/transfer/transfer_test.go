package transfer

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// fakePlane is an in-memory loopback data plane connecting n managers
// directly (no overlay in between), with optional loss.
type fakePlane struct {
	id    int
	net   *fakeNet
	mu    sync.Mutex
	hnd   func(src int, payload []byte)
	sends int
	vias  map[int]int
}

type fakeNet struct {
	mu     sync.Mutex
	planes []*fakePlane
	rng    *rand.Rand
	loss   float64
}

func newFakeNet(n int, loss float64, seed int64) *fakeNet {
	net := &fakeNet{rng: rand.New(rand.NewSource(seed)), loss: loss}
	for i := 0; i < n; i++ {
		net.planes = append(net.planes, &fakePlane{id: i, net: net, vias: map[int]int{}})
	}
	return net
}

func (p *fakePlane) ID() int { return p.id }

func (p *fakePlane) Neighbors() []int {
	var out []int
	for i := range p.net.planes {
		if i != p.id {
			out = append(out, i)
		}
	}
	return out
}

func (p *fakePlane) Send(dst int, payload []byte) error {
	return p.deliver(dst, payload)
}

func (p *fakePlane) SendVia(dst, via int, payload []byte) error {
	p.mu.Lock()
	p.vias[via]++
	p.mu.Unlock()
	return p.deliver(dst, payload)
}

func (p *fakePlane) deliver(dst int, payload []byte) error {
	p.mu.Lock()
	p.sends++
	p.mu.Unlock()
	net := p.net
	net.mu.Lock()
	drop := net.rng.Float64() < net.loss
	target := net.planes[dst]
	net.mu.Unlock()
	if drop {
		return nil
	}
	target.mu.Lock()
	h := target.hnd
	target.mu.Unlock()
	if h != nil {
		h(p.id, append([]byte(nil), payload...))
	}
	return nil
}

func (p *fakePlane) SetDataHandler(h func(src int, payload []byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hnd = h
}

func payload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func TestTransferLossless(t *testing.T) {
	net := newFakeNet(2, 0, 1)
	tx := New(net.planes[0])
	rx := New(net.planes[1])
	var mu sync.Mutex
	var got []byte
	rx.OnComplete(func(src int, id uint64, data []byte) {
		mu.Lock()
		got = data
		mu.Unlock()
	})
	data := payload(40000, 2)
	if _, err := tx.Transfer(1, data, 4096, false); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, data) {
		t.Fatalf("received %d bytes, want %d identical", len(got), len(data))
	}
	if tx.Pending() != 0 {
		t.Fatalf("transfer still pending after completion ack")
	}
}

func TestTransferRepairsLoss(t *testing.T) {
	net := newFakeNet(2, 0.3, 3)
	tx := New(net.planes[0])
	rx := New(net.planes[1])
	var mu sync.Mutex
	var got []byte
	rx.OnComplete(func(src int, id uint64, data []byte) {
		mu.Lock()
		got = data
		mu.Unlock()
	})
	data := payload(60000, 4)
	if _, err := tx.Transfer(1, data, 2048, false); err != nil {
		t.Fatal(err)
	}
	// Drive repair rounds until complete (bounded).
	for round := 0; round < 200; round++ {
		mu.Lock()
		done := got != nil
		mu.Unlock()
		if done {
			break
		}
		rx.Tick()
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer never completed under 30%% loss (got %d/%d bytes)", len(got), len(data))
	}
}

func TestTransferMultipathSpreadsFirstHops(t *testing.T) {
	net := newFakeNet(4, 0, 5)
	tx := New(net.planes[0])
	rx := New(net.planes[3])
	var mu sync.Mutex
	complete := false
	rx.OnComplete(func(src int, id uint64, data []byte) {
		mu.Lock()
		complete = true
		mu.Unlock()
	})
	data := payload(30000, 6)
	if _, err := tx.Transfer(3, data, 1024, true); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if !complete {
		mu.Unlock()
		t.Fatal("multipath transfer incomplete on lossless net")
	}
	mu.Unlock()
	p := net.planes[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.vias) < 2 {
		t.Fatalf("chunks used %d distinct first hops, want >= 2: %v", len(p.vias), p.vias)
	}
}

func TestTransferValidation(t *testing.T) {
	net := newFakeNet(2, 0, 7)
	m := New(net.planes[0])
	if _, err := m.Transfer(0, []byte("x"), 0, false); err == nil {
		t.Fatal("self transfer accepted")
	}
	if _, err := m.Transfer(1, nil, 0, false); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestMalformedMessagesIgnored(t *testing.T) {
	net := newFakeNet(2, 0, 8)
	New(net.planes[0])
	rxPlane := net.planes[1]
	New(rxPlane)
	// Inject garbage directly into node 1's handler.
	rxPlane.mu.Lock()
	h := rxPlane.hnd
	rxPlane.mu.Unlock()
	for _, garbage := range [][]byte{
		nil,
		{},
		{0xFF},
		{kindChunk, 1, 2},   // short chunk
		{kindNack, 0, 0, 0}, // short nack
		{kindDone},          // short done
	} {
		h(0, garbage) // must not panic
	}
	// Chunk with absurd total.
	buf := make([]byte, chunkHeader)
	buf[0] = kindChunk
	buf[13] = 0xFF
	buf[14] = 0xFF
	buf[15] = 0xFF
	buf[16] = 0xFF
	h(0, buf)
}

func TestConcurrentTransfers(t *testing.T) {
	net := newFakeNet(3, 0, 9)
	m0 := New(net.planes[0])
	m1 := New(net.planes[1])
	m2 := New(net.planes[2])
	var mu sync.Mutex
	results := map[int][]byte{}
	collect := func(dst int, mgr *Manager) {
		mgr.OnComplete(func(src int, id uint64, data []byte) {
			mu.Lock()
			results[dst] = data
			mu.Unlock()
		})
	}
	collect(1, m1)
	collect(2, m2)
	d1 := payload(9000, 10)
	d2 := payload(7000, 11)
	if _, err := m0.Transfer(1, d1, 1000, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m0.Transfer(2, d2, 1000, false); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(results[1], d1) || !bytes.Equal(results[2], d2) {
		t.Fatal("concurrent transfers corrupted")
	}
}

// Pending reports how many outgoing transfers are unacknowledged.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, tx := range m.outgoing {
		if !tx.done {
			n++
		}
	}
	return n
}
