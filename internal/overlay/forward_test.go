package overlay

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"egoist/internal/core"
	"egoist/internal/linkstate"
	"egoist/internal/obs"
	"egoist/internal/plane"
)

func TestDataRoundTripMarshal(t *testing.T) {
	d := &linkstate.Data{Src: 1, Dst: 2, Via: linkstate.NoVia, TTL: 9, Seq: 42, Payload: []byte("hello")}
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := linkstate.UnmarshalData(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != 1 || got.Dst != 2 || got.TTL != 9 || got.Seq != 42 || string(got.Payload) != "hello" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestDataMarshalRejectsHugePayload(t *testing.T) {
	d := &linkstate.Data{Payload: make([]byte, linkstate.MaxPayload+1)}
	if _, err := d.Marshal(); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestUnmarshalDataRejectsGarbage(t *testing.T) {
	if _, err := linkstate.UnmarshalData([]byte("short")); err == nil {
		t.Fatal("short packet accepted")
	}
	d := &linkstate.Data{Src: 1, Dst: 2, Payload: []byte("x")}
	raw, _ := d.Marshal()
	if _, err := linkstate.UnmarshalData(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

// startDataCluster brings up a converged cluster and returns it.
func startDataCluster(t *testing.T, n, k int) ([]*Node, *linkstate.Bus) {
	t.Helper()
	nodes, bus, _ := startCluster(t, n, k, core.BRPolicy{}, Delayed)
	waitFor(t, 10*time.Second, func() bool {
		for _, node := range nodes {
			if len(node.KnownNodes()) < n-1 {
				return false
			}
		}
		return true
	}, "cluster never converged")
	return nodes, bus
}

func TestOverlayDataDelivery(t *testing.T) {
	const n, k = 8, 2
	nodes, bus := startDataCluster(t, n, k)
	defer bus.Close()
	defer stopAll(nodes)

	var mu sync.Mutex
	received := map[int][]byte{}
	for _, node := range nodes {
		node := node
		node.SetDataHandler(func(src int, payload []byte) {
			mu.Lock()
			received[node.ID()] = append([]byte(nil), payload...)
			mu.Unlock()
			_ = src
		})
	}

	// Node 0 sends to every other node; with k=2 most routes are
	// multi-hop.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		got := len(received)
		mu.Unlock()
		if got >= n-1 {
			return true
		}
		for dst := 1; dst < n; dst++ {
			_ = nodes[0].Send(dst, []byte("ping"))
		}
		return false
	}, "payloads never delivered to all destinations")

	mu.Lock()
	defer mu.Unlock()
	for dst := 1; dst < n; dst++ {
		if string(received[dst]) != "ping" {
			t.Fatalf("node %d received %q", dst, received[dst])
		}
	}
}

func TestOverlayDataForwardCounts(t *testing.T) {
	const n, k = 8, 1 // k=1: ring-ish, long paths guarantee forwarding
	nodes, bus := startDataCluster(t, n, k)
	defer bus.Close()
	defer stopAll(nodes)

	var delivered sync.WaitGroup
	delivered.Add(1)
	var once sync.Once
	nodes[4].SetDataHandler(func(src int, payload []byte) {
		once.Do(delivered.Done)
	})

	waitFor(t, 10*time.Second, func() bool {
		_ = nodes[0].Send(4, []byte("x"))
		done := make(chan struct{})
		go func() { delivered.Wait(); close(done) }()
		select {
		case <-done:
			return true
		case <-time.After(100 * time.Millisecond):
			return false
		}
	}, "multi-hop payload never delivered")

	forwardedTotal := 0
	for _, node := range nodes {
		_, fwd, _ := node.DataStats()
		forwardedTotal += fwd
	}
	if forwardedTotal == 0 {
		t.Fatal("no node forwarded anything; expected multi-hop routing")
	}
}

func TestSendValidation(t *testing.T) {
	nodes, bus := startDataCluster(t, 4, 2)
	defer bus.Close()
	defer stopAll(nodes)
	if err := nodes[0].Send(0, []byte("x")); err == nil {
		t.Fatal("send to self accepted")
	}
	if err := nodes[0].Send(99, []byte("x")); err == nil {
		t.Fatal("send out of range accepted")
	}
}

func TestSendViaForcesFirstHop(t *testing.T) {
	const n = 6
	nodes, bus := startDataCluster(t, n, 2)
	defer bus.Close()
	defer stopAll(nodes)

	var mu sync.Mutex
	got := false
	nodes[3].SetDataHandler(func(src int, payload []byte) {
		mu.Lock()
		got = true
		mu.Unlock()
	})
	// Redirect through whatever neighbor node 0 currently has.
	waitFor(t, 10*time.Second, func() bool {
		nbs := nodes[0].Neighbors()
		if len(nbs) == 0 {
			return false
		}
		_ = nodes[0].SendVia(3, nbs[0], []byte("via"))
		mu.Lock()
		defer mu.Unlock()
		return got
	}, "redirected payload never arrived")
}

// TestNextHopIsServedRouteFirstHop: forwarding and /route read the one
// snapshot the node publishes on every change to its view. The view is
// a unit-cost 4-cube, where equal-cost paths are the norm (rows
// announced in descending id order, the node's own links at the default
// estimate). It changes with no epoch deciding anything: the LSAs
// arrive and are renewed, an origin expires, and the heartbeat monitor
// drops a neighbour (Immediate mode). After each change the published
// snapshot becomes the node's view (at once for the node's own changes,
// through publishLoop for applied LSAs), a packet Send puts on the
// wire leaves on the first hop of the route the snapshot serves, for
// every destination, without being counted as a route lookup, and no
// route goes through the node the change removed.
func TestNextHopIsServedRouteFirstHop(t *testing.T) {
	const n, dim = 16, 4
	bus := linkstate.NewBus(n)
	defer bus.Close()
	start := time.Unix(0, 0)
	var clock atomic.Int64 // time since start; the publisher reads it too
	node := &Node{
		cfg:     Config{ID: 0, N: n, Mode: Immediate, Heartbeat: time.Second, Transport: bus.Endpoint(0)},
		db:      linkstate.NewDB(n, time.Minute, func() time.Time { return start.Add(time.Duration(clock.Load())) }),
		est:     map[int]*ewma{},
		lastAck: map[int]time.Time{},
		changed: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	node.done.Add(1)
	go node.publishLoop()
	defer func() { close(node.stop); node.done.Wait() }()
	for b := 0; b < dim; b++ {
		node.neighbors = append(node.neighbors, 1<<b)
	}
	node.announce() // the bootstrap publication Start makes
	announceAll := func(seq uint64, skip int) {
		for u := 1; u < n; u++ {
			if u == skip {
				continue
			}
			lsa := &linkstate.LSA{Origin: uint16(u), Seq: seq}
			for b := dim - 1; b >= 0; b-- {
				lsa.Neighbors = append(lsa.Neighbors, linkstate.Neighbor{ID: uint16(u ^ 1<<b), Cost: 1})
			}
			node.handleLSA(linkstate.Packet{From: u, Data: lsa.Marshal()})
		}
	}
	// sentTo is the node a Send to dst reached, -1 when Send found no
	// route.
	sentTo := func(dst int) int {
		for v := 1; v < n; v++ {
			for len(bus.Endpoint(v).Recv()) > 0 {
				<-bus.Endpoint(v).Recv()
			}
		}
		before := node.routes.CacheStats()
		err := node.Send(dst, nil)
		if after := node.routes.CacheStats(); after != before {
			t.Fatalf("Send to %d moved the route cache counters: %+v, then %+v", dst, before, after)
		}
		if err != nil {
			return -1
		}
		for v := 1; v < n; v++ {
			if len(bus.Endpoint(v).Recv()) > 0 {
				return v
			}
		}
		t.Fatalf("Send to %d reached nobody", dst)
		return -1
	}
	check := func(step string, gone int) {
		t.Helper()
		view := node.AnnouncedView()
		want := plane.CompileGraph(0, view, plane.GraphDelays(view), plane.Options{}).Digest()
		waitFor(t, 5*time.Second, func() bool { return node.routes.Current().Digest() == want },
			step+": the published snapshot never became the node's view")
		snap := node.routes.Current()
		for dst := 1; dst < n; dst++ {
			path, _, ok := snap.RouteInto(0, dst, nil)
			want := -1
			if ok {
				want = int(path[1])
			}
			if got := sentTo(dst); got != want {
				t.Fatalf("%s: dst %d: sent to %d, served route %v", step, dst, got, path)
			}
			if dst != gone && slices.Contains(path, int32(gone)) {
				t.Fatalf("%s: dst %d: served route %v goes through the removed node %d", step, dst, path, gone)
			}
		}
	}
	// firstHop is the first hop of the served route to the cube's far
	// corner, a neighbour each change below takes away.
	firstHop := func() int {
		r, ok := node.routes.Current().Route(0, n-1)
		if !ok {
			t.Fatal("no served route to the far corner")
		}
		return r.Path[1]
	}

	announceAll(1, -1)
	check("LSAs applied", -1)

	// Every origin but x announces again 50 s on; at 70 s x's LSA is
	// older than the database's one-minute limit. With nothing
	// measured, the epoch expires it and decides nothing.
	x := firstHop()
	clock.Store(int64(50 * time.Second))
	announceAll(2, x)
	check("LSAs renewed", -1)
	clock.Store(int64(70 * time.Second))
	node.runEpoch()
	check("origin expired", x)

	// Neighbour y stopped acking long ago: the heartbeat drops the link
	// and forgets y's LSA.
	y := firstHop()
	node.mu.Lock()
	node.lastAck[y] = time.Now().Add(-time.Hour)
	node.mu.Unlock()
	node.heartbeat()
	if slices.Contains(node.Neighbors(), y) {
		t.Fatalf("heartbeat kept the dead link to %d", y)
	}
	check("neighbour dropped", y)
	if node.Epochs() != 0 {
		t.Fatalf("%d epochs decided, want none", node.Epochs())
	}
}

// TestLSABurstSharesPublications: LSAs applied a millisecond apart reach
// the published snapshot in two publications (the first LSA's, then one
// for the rest T_announce/pubsPerAnnounce later; three if the burst
// outlasts that gap), not one per LSA.
func TestLSABurstSharesPublications(t *testing.T) {
	const n = 40
	bus := linkstate.NewBus(n)
	defer bus.Close()
	node := &Node{
		cfg:     Config{ID: 0, N: n, Announce: pubsPerAnnounce * 200 * time.Millisecond, Transport: bus.Endpoint(0)},
		db:      linkstate.NewDB(n, time.Minute, nil),
		changed: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	reg := obs.NewRegistry()
	node.EnableMetrics(reg)
	node.done.Add(1)
	go node.publishLoop()
	defer func() { close(node.stop); node.done.Wait() }()
	for u := 1; u < n; u++ {
		lsa := &linkstate.LSA{Origin: uint16(u), Seq: 1, Neighbors: []linkstate.Neighbor{{ID: uint16(u % (n - 1)), Cost: 1}}}
		node.handleLSA(linkstate.Packet{From: u, Data: lsa.Marshal()})
		time.Sleep(time.Millisecond) // long enough for a compile
	}
	view := node.AnnouncedView()
	want := plane.CompileGraph(0, view, plane.GraphDelays(view), plane.Options{}).Digest()
	waitFor(t, 5*time.Second, func() bool {
		s := node.routes.Current()
		return s != nil && s.Digest() == want
	}, "the burst never reached the published snapshot")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := obs.ParsePrometheus(buf.Bytes())["plane_publish_latency_ns_count"]; got < 1 || got > 3 {
		t.Fatalf("%d LSAs took %v publications, want at most 3", n-1, got)
	}
}
