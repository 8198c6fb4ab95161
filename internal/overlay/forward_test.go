package overlay

import (
	"sync"
	"testing"
	"time"

	"egoist/internal/core"
	"egoist/internal/linkstate"
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

// TestNextHopIsServedRouteFirstHop: on a unit-cost view where equal-cost
// paths are the norm (a 4-cube, rows announced in descending id order,
// the node's own links at the default estimate), the hop a packet leaves
// on is the first hop of the route the daemon's /route serves for it.
func TestNextHopIsServedRouteFirstHop(t *testing.T) {
	const n, dim = 16, 4
	node := &Node{cfg: Config{ID: 0, N: n}, db: linkstate.NewDB(n, time.Hour, nil), est: map[int]*ewma{}}
	for b := 0; b < dim; b++ {
		node.neighbors = append(node.neighbors, 1<<b)
	}
	for u := 1; u < n; u++ {
		lsa := &linkstate.LSA{Origin: uint16(u), Seq: 1}
		for b := dim - 1; b >= 0; b-- {
			lsa.Neighbors = append(lsa.Neighbors, linkstate.Neighbor{ID: uint16(u ^ 1<<b), Cost: 1})
		}
		node.db.Apply(lsa)
	}
	view := node.AnnouncedView()
	snap := plane.CompileGraph(0, view, plane.GraphDelays(view), plane.Options{})
	for dst := 1; dst < n; dst++ {
		r, ok := snap.Route(0, dst)
		if !ok {
			t.Fatalf("no served route to %d", dst)
		}
		if hop := node.nextHop(dst); hop != r.Path[1] {
			t.Fatalf("dst %d: next hop %d, served route %v", dst, hop, r.Path)
		}
	}
}
