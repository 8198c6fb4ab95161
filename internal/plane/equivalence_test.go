package plane

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"egoist/internal/churn"
	"egoist/internal/graph"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// This file pins the data plane onto the engines' determinism
// contract: snapshots published by a churn-heavy RunScale — and every
// one-hop and shortest-path decision served from them — must be
// byte-identical at any worker count, and must agree bit-for-bit with
// a direct internal/graph computation over the published wiring.

// epochDigest is one published epoch's fingerprint: an FNV hash over
// the CSR arrays plus a fixed panel of one-hop and route decisions.
type epochDigest struct {
	epoch int
	hash  uint64
}

// digestSnapshot fingerprints the topology and a deterministic query
// panel served from it.
func digestSnapshot(epoch int, snap *Snapshot) epochDigest {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	n := snap.N()
	w64(uint64(n))
	w64(uint64(snap.NumLive()))
	w64(uint64(snap.NumArcs()))
	for u := 0; u < n; u++ {
		if !snap.Live(u) {
			continue
		}
		r, _ := snap.Route(u, (u*7+1)%n)
		w64(math.Float64bits(r.Cost))
	}
	rng := rand.New(rand.NewSource(int64(epoch) + 42))
	for q := 0; q < 200; q++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		d := snap.OneHop(src, dst)
		w64(uint64(int64(d.Via)))
		w64(math.Float64bits(d.Cost))
		w64(math.Float64bits(snap.RouteCost(src, dst)))
	}
	return epochDigest{epoch: epoch, hash: h.Sum64()}
}

// churnScaleConfig is a small but churn-heavy scale run: a leave wave
// mid-epoch 1 and a join/rejoin wave in epoch 3. hook sees the
// epoch-final publications only: the bootstrap (epoch -1), then one per
// epoch.
func churnScaleConfig(workers int, hook func(epoch int, wiring [][]int, active []bool)) sim.ScaleConfig {
	const n = 150
	sched := &churn.Schedule{N: n, InitialOn: make([]bool, n)}
	for i := range sched.InitialOn {
		sched.InitialOn[i] = true
	}
	for v := 0; v < n; v += 8 {
		sched.Events = append(sched.Events, churn.Event{Time: 1 + float64(v)/float64(n), Node: v, On: false})
	}
	for v := 0; v < n; v += 16 {
		sched.Events = append(sched.Events, churn.Event{Time: 3 + float64(v)/float64(n), Node: v, On: true})
	}
	return sim.ScaleConfig{
		N: n, K: 3, Seed: 23, MaxEpochs: 5,
		Sample:  sampling.Spec{Strategy: sampling.Uniform, M: 20},
		Churn:   sched,
		Workers: workers,
		OnPublish: func(pub sim.Publication) {
			if pub.EpochFinal() {
				hook(pub.Epoch, pub.Wiring, pub.Active)
			}
		},
	}
}

// TestSnapshotsIdenticalAcrossWorkers runs the churn-heavy scale config
// at workers 1 and 4, publishing a snapshot per epoch through a Server,
// and requires identical epoch digests — the serving layer inherits the
// control plane's any-worker-count byte-identity.
func TestSnapshotsIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []epochDigest {
		net, err := underlay.NewLite(150, 23+1)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		var digests []epochDigest
		cfg := churnScaleConfig(workers, func(epoch int, wiring [][]int, active []bool) {
			srv.Publish(Compile(int64(epoch), wiring, active, net, Options{}))
			digests = append(digests, digestSnapshot(epoch, srv.Current()))
		})
		if _, err := sim.RunScale(cfg); err != nil {
			t.Fatal(err)
		}
		return digests
	}
	a := run(1)
	b := run(4)
	if len(a) != len(b) {
		t.Fatalf("published %d vs %d epochs", len(a), len(b))
	}
	if len(a) < 2 || a[0].epoch != -1 {
		t.Fatalf("expected a bootstrap publish then epochs, got %+v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d digests diverged: %x vs %x", a[i].epoch, a[i].hash, b[i].hash)
		}
	}
}

// TestSnapshotMatchesEngineWiring cross-checks a published snapshot
// against a direct internal/graph computation over the same wiring:
// identical one-hop decisions (reference loop) and bit-identical
// shortest-path costs (graph.Dijkstra), including under churned-away
// members.
func TestSnapshotMatchesEngineWiring(t *testing.T) {
	net, err := underlay.NewLite(150, 23+1)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	cfg := churnScaleConfig(2, func(epoch int, wiring [][]int, active []bool) {
		snap := Compile(int64(epoch), wiring, active, net, Options{})
		g := graph.New(net.N())
		for u, ws := range wiring {
			if !active[u] {
				continue
			}
			for _, v := range ws {
				if active[v] {
					g.AddArc(u, v, net.Delay(u, v))
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(epoch)))
		for q := 0; q < 40; q++ {
			src := rng.Intn(net.N())
			dist, _ := graph.Dijkstra(g, src)
			for dst := 0; dst < net.N(); dst += 13 {
				want := dist[dst]
				if !active[src] && src != dst {
					want = graph.Inf
				}
				if got := snap.RouteCost(src, dst); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("epoch %d route %d->%d: %v vs graph %v", epoch, src, dst, got, want)
					return
				}
				checked++
			}
		}
	})
	if _, err := sim.RunScale(cfg); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no cross-checks ran")
	}
}

// digestServed fingerprints decisions as served — through the server's
// methods, exercising its admission, counters and the served row
// cache — rather than through the snapshot API.
func digestServed(t *testing.T, epoch int, srv *Server) epochDigest {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	n := srv.Current().N()
	w64(uint64(n))
	rng := rand.New(rand.NewSource(int64(epoch) + 7))
	var path []int32
	for q := 0; q < 200; q++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		d, epoch1, err := srv.OneHop(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		w64(uint64(int64(d.Via)))
		w64(math.Float64bits(d.Cost))
		var cost float64
		var ok bool
		path, cost, ok, err = srv.AppendRoute(src, dst, path[:0])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			w64(math.Float64bits(cost))
			for _, v := range path {
				w64(uint64(v))
			}
		} else {
			w64(^uint64(0))
		}
		rc, epoch2, err := srv.RouteCost(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		w64(math.Float64bits(rc))
		if epoch1 != epoch2 {
			t.Fatalf("epochs diverged within one digest: %d vs %d", epoch1, epoch2)
		}
	}
	return epochDigest{epoch: epoch, hash: h.Sum64()}
}

// TestServedIdenticalAcrossWorkers is the ISSUE 9 acceptance gate:
// decisions served by the server are byte-identical across engine
// workers {1,4} (the route queries the digest issues grow the served
// row cache, which must never change an answer, only its cost).
func TestServedIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []epochDigest {
		net, err := underlay.NewLite(150, 23+1)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		var digests []epochDigest
		cfg := churnScaleConfig(workers, func(epoch int, wiring [][]int, active []bool) {
			srv.Publish(Compile(int64(epoch), wiring, active, net, Options{}))
			digests = append(digests, digestServed(t, epoch, srv))
		})
		if _, err := sim.RunScale(cfg); err != nil {
			t.Fatal(err)
		}
		return digests
	}
	ref, got := run(1), run(4)
	if len(ref) < 2 {
		t.Fatalf("published only %d epochs", len(ref))
	}
	if len(got) != len(ref) {
		t.Fatalf("workers=4: published %d vs %d epochs", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("workers=4 epoch %d: served digest %x, workers=1 %x", got[i].epoch, got[i].hash, ref[i].hash)
		}
	}
}
