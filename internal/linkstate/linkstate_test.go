package linkstate

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestLSARoundTrip(t *testing.T) {
	l := &LSA{
		Origin: 7,
		Seq:    42,
		Neighbors: []Neighbor{
			{ID: 1, Cost: 12.3},
			{ID: 9, Cost: 0},
			{ID: 300, Cost: 6553.5},
		},
	}
	got, err := UnmarshalLSA(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != 7 || got.Seq != 42 || len(got.Neighbors) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	for i, nb := range got.Neighbors {
		if nb.ID != l.Neighbors[i].ID {
			t.Fatalf("neighbor %d id %d, want %d", i, nb.ID, l.Neighbors[i].ID)
		}
		if math.Abs(nb.Cost-l.Neighbors[i].Cost) > costUnit/2 {
			t.Fatalf("neighbor %d cost %v, want ~%v", i, nb.Cost, l.Neighbors[i].Cost)
		}
	}
}

func TestLSASizeMatchesPaperAccounting(t *testing.T) {
	l := &LSA{Origin: 1, Seq: 1, Neighbors: make([]Neighbor, 5)}
	// Paper: 192 bits header + 32 bits per neighbor.
	if bits := 8 * l.Size(); bits != 192+32*5 {
		t.Fatalf("LSA size = %d bits, want %d", bits, 192+32*5)
	}
	if len(l.Marshal()) != l.Size() {
		t.Fatal("Marshal length disagrees with Size")
	}
}

func TestLSACostSaturates(t *testing.T) {
	l := &LSA{Origin: 1, Seq: 1, Neighbors: []Neighbor{{ID: 2, Cost: 1e12}}}
	got, err := UnmarshalLSA(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Neighbors[0].Cost != maxCost {
		t.Fatalf("cost = %v, want saturation at %v", got.Neighbors[0].Cost, maxCost)
	}
}

func TestUnmarshalLSARejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		make([]byte, HeaderBytes), // zero magic
	}
	for _, c := range cases {
		if _, err := UnmarshalLSA(c); err == nil {
			t.Fatalf("accepted garbage %v", c)
		}
	}
	// Truncated neighbor list.
	l := &LSA{Origin: 1, Seq: 1, Neighbors: []Neighbor{{ID: 2, Cost: 1}}}
	data := l.Marshal()
	if _, err := UnmarshalLSA(data[:len(data)-1]); err == nil {
		t.Fatal("accepted truncated LSA")
	}
	// Control message is not an LSA.
	c := (&Control{Type: TypeHello, From: 3, Token: 9}).Marshal()
	if _, err := UnmarshalLSA(c); err == nil {
		t.Fatal("accepted control message as LSA")
	}
}

func TestControlRoundTrip(t *testing.T) {
	for _, typ := range []byte{TypeHello, TypeHelloAck, TypeEcho, TypeEchoReply} {
		c := &Control{Type: typ, From: 12, Token: 987654321}
		got, err := UnmarshalControl(c.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if *got != *c {
			t.Fatalf("round trip %+v != %+v", got, c)
		}
	}
}

func TestMessageType(t *testing.T) {
	l := (&LSA{Origin: 1, Seq: 1}).Marshal()
	if typ, err := MessageType(l); err != nil || typ != TypeLSA {
		t.Fatalf("MessageType(LSA) = %v,%v", typ, err)
	}
	c := (&Control{Type: TypeEcho, From: 1}).Marshal()
	if typ, err := MessageType(c); err != nil || typ != TypeEcho {
		t.Fatalf("MessageType(Echo) = %v,%v", typ, err)
	}
	if _, err := MessageType([]byte{1, 2}); err == nil {
		t.Fatal("accepted short packet")
	}
}

// Property: any LSA with valid field ranges round-trips.
func TestLSARoundTripProperty(t *testing.T) {
	f := func(origin uint16, seq uint64, ids []uint16) bool {
		l := &LSA{Origin: origin, Seq: seq}
		for i, id := range ids {
			if i >= 100 {
				break
			}
			l.Neighbors = append(l.Neighbors, Neighbor{ID: id, Cost: float64(i) * 1.5})
		}
		got, err := UnmarshalLSA(l.Marshal())
		if err != nil {
			return false
		}
		if got.Origin != l.Origin || got.Seq != l.Seq || len(got.Neighbors) != len(l.Neighbors) {
			return false
		}
		for i := range got.Neighbors {
			if got.Neighbors[i].ID != l.Neighbors[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDBSupersession(t *testing.T) {
	db := NewDB(10, 0, nil)
	l1 := &LSA{Origin: 3, Seq: 1, Neighbors: []Neighbor{{ID: 4, Cost: 5}}}
	if !db.Apply(l1) {
		t.Fatal("fresh LSA rejected")
	}
	if db.Apply(l1) {
		t.Fatal("duplicate LSA accepted as fresh")
	}
	l0 := &LSA{Origin: 3, Seq: 0}
	if db.Apply(l0) {
		t.Fatal("stale LSA accepted")
	}
	l2 := &LSA{Origin: 3, Seq: 2, Neighbors: []Neighbor{{ID: 5, Cost: 7}}}
	if !db.Apply(l2) {
		t.Fatal("newer LSA rejected")
	}
	g := db.Graph()
	if g.HasArc(3, 4) {
		t.Fatal("superseded link survives")
	}
	if w, ok := g.Weight(3, 5); !ok || w != 7 {
		t.Fatalf("missing new link, got %v,%v", w, ok)
	}
}

func TestDBGraphIgnoresSelfLoopsAndOutOfRange(t *testing.T) {
	db := NewDB(4, 0, nil)
	db.Apply(&LSA{Origin: 1, Seq: 1, Neighbors: []Neighbor{{ID: 1, Cost: 1}, {ID: 200, Cost: 1}, {ID: 2, Cost: 3}}})
	g := db.Graph()
	if g.HasArc(1, 1) {
		t.Fatal("self loop in graph")
	}
	if g.NumArcs() != 1 {
		t.Fatalf("NumArcs = %d, want 1", g.NumArcs())
	}
}

func TestDBExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	db := NewDB(5, 10*time.Second, clock)
	db.Apply(&LSA{Origin: 1, Seq: 1, Neighbors: []Neighbor{{ID: 2, Cost: 1}}})
	now = now.Add(5 * time.Second)
	db.Apply(&LSA{Origin: 2, Seq: 1, Neighbors: []Neighbor{{ID: 1, Cost: 1}}})
	now = now.Add(6 * time.Second) // origin 1 now 11s old, origin 2 6s old
	if got := db.Expire(); got != 1 {
		t.Fatalf("Expire removed %d, want 1", got)
	}
	origins := db.Origins()
	if len(origins) != 1 || origins[0] != 2 {
		t.Fatalf("Origins = %v, want [2]", origins)
	}
	active := db.Active()
	if active[1] || !active[2] {
		t.Fatalf("Active = %v", active)
	}
}

func TestDBForget(t *testing.T) {
	db := NewDB(5, 0, nil)
	db.Apply(&LSA{Origin: 1, Seq: 5})
	db.Forget(1)
	if _, ok := db.Seq(1); ok {
		t.Fatal("entry survives Forget")
	}
	// After Forget, the same seq is fresh again (re-join case).
	if !db.Apply(&LSA{Origin: 1, Seq: 5}) {
		t.Fatal("re-join LSA rejected after Forget")
	}
}

// TestDBInNeighborsMatchesGraph: InNeighbors(v) is, for every v, the
// set of u with an arc u→v in Graph, across Apply (fresh and stale
// LSAs, self-loops, out-of-range ids and origins, repeated neighbours),
// Forget and expiry by age.
func TestDBInNeighborsMatchesGraph(t *testing.T) {
	const n = 12
	now := time.Unix(0, 0)
	db := NewDB(n, 10*time.Second, func() time.Time { return now })
	rng := rand.New(rand.NewSource(4))
	seq := map[uint16]uint64{}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 7:
			origin := uint16(rng.Intn(n + 2))
			seq[origin] += uint64(rng.Intn(3)) // 0: a stale repeat
			lsa := &LSA{Origin: origin, Seq: seq[origin]}
			for d := rng.Intn(5); d > 0; d-- {
				lsa.Neighbors = append(lsa.Neighbors, Neighbor{ID: uint16(rng.Intn(n + 2)), Cost: 1})
			}
			db.Apply(lsa)
		case op < 8:
			db.Forget(uint16(rng.Intn(n)))
		default:
			now = now.Add(time.Duration(rng.Intn(4)) * time.Second)
		}
		g := db.Graph()
		for v := 0; v < n; v++ {
			var want []int
			for u := 0; u < n; u++ {
				if u != v && g.HasArc(u, v) {
					want = append(want, u)
				}
			}
			if got := db.InNeighbors(v); !slices.Equal(got, want) {
				t.Fatalf("step %d: InNeighbors(%d) = %v, Graph has %v", step, v, got, want)
			}
		}
	}
}

func TestBusDelivery(t *testing.T) {
	b := NewBus(3)
	defer b.Close()
	if err := b.Endpoint(0).Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-b.Endpoint(2).Recv():
		if pkt.From != 0 || string(pkt.Data) != "hi" {
			t.Fatalf("got %+v", pkt)
		}
	case <-time.After(time.Second):
		t.Fatal("packet not delivered")
	}
}

func TestBusLoss(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	b.SetLoss(func(from, to int) bool { return true })
	if err := b.Endpoint(0).Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-b.Endpoint(1).Recv():
		t.Fatalf("lossy bus delivered %+v", pkt)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestBusDelay(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	b.SetDelay(func(from, to int) time.Duration { return 30 * time.Millisecond })
	start := time.Now()
	if err := b.Endpoint(0).Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Endpoint(1).Recv():
		if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
			t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
		}
	case <-time.After(time.Second):
		t.Fatal("delayed packet never arrived")
	}
}

func TestBusBadDestination(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	if err := b.Endpoint(0).Send(9, []byte("x")); err == nil {
		t.Fatal("send to unknown node accepted")
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	a, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bT, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bT.Close()
	a.Register(1, bT.LocalAddr())
	bT.Register(0, a.LocalAddr())

	msg := (&LSA{Origin: 0, Seq: 1, Neighbors: []Neighbor{{ID: 1, Cost: 2.5}}}).Marshal()
	if err := a.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-bT.Recv():
		if pkt.From != 0 {
			t.Fatalf("from = %d, want 0", pkt.From)
		}
		l, err := UnmarshalLSA(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if l.Origin != 0 || len(l.Neighbors) != 1 {
			t.Fatalf("LSA %+v", l)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("UDP packet not delivered")
	}
}

func TestUDPSendUnknownNode(t *testing.T) {
	a, err := NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(5, []byte("x")); err == nil {
		t.Fatal("send to unregistered node accepted")
	}
}

// SetDelay installs a per-pair delivery delay function (nil means
// immediate delivery).
func (b *Bus) SetDelay(delay func(from, to int) time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.delay = delay
}
