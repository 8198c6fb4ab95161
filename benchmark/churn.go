package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"egoist"
	"egoist/internal/plane"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// readerGap is the pause between two lookups of the churn-publish
// reader: an application polling its route service, not a saturating
// load generator competing with the engine's workers for the cores.
const readerGap = 100 * time.Microsecond

// pubReader is the concurrent application of churn-publish: it asks
// the serving layer for route costs while the engine re-wires and
// publishes underneath, and notes when it first receives an answer
// carrying each publication's sequence number.
type pubReader struct {
	firstSeen []int64 // by sequence number: ns since the call began
	lat       latencies
	lookups   int64
	errors    int64
	backwards int64
}

func (r *pubReader) run(sh plane.Shard, n int, seed int64, t0 time.Time, stop *atomic.Bool) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	last := int64(-1)
	for !stop.Load() {
		src, dst := perm[zipf.Uint64()], rng.Intn(n)
		if src == dst {
			continue
		}
		t := time.Now()
		_, seq, err := sh.RouteCost(src, dst)
		done := time.Now()
		r.lookups++
		r.lat.add(done.Sub(t).Nanoseconds())
		if err != nil {
			r.errors++
		}
		if seq < last {
			r.backwards++
		}
		// A publication the reader slept through is first reflected by
		// the answer that carries a later one.
		for ; last < seq; last++ {
			r.firstSeen = append(r.firstSeen, done.Sub(t0).Nanoseconds())
		}
		time.Sleep(readerGap)
	}
}

// churnCall is one engine call of churn-publish with its publisher and
// reader attached.
type churnCall struct {
	stale    []float64 // ms, one per publication the reader observed
	patchUS  []float64
	pubUS    []float64
	rows     int
	deltas   int
	reader   *pubReader
	chainOK  bool
	finalSeq int64
}

// runChurnPublish: the scale engine under membership churn, publishing
// every stagger sub-round into a plane.Server a reader is querying.
func runChurnPublish(e *env) (*outcome, error) {
	p := e.prof
	o := newOutcome()
	var net *underlay.Lite
	cfg := func(epochs int) (sim.ScaleConfig, error) {
		c := e.scaleConfig(p.churnN, p.churnM, epochs, net)
		sched, err := egoist.MakeChurn(p.churnN, float64(epochs), 60, 12, e.seed+101)
		c.Churn = sched
		return c, err
	}
	setup := func() (err error) {
		if net, err = underlay.NewLite(p.churnN, underlaySeed); err != nil {
			return err
		}
		c, err := cfg(1)
		if err != nil {
			return err
		}
		_, err = sim.RunScale(c)
		return err
	}
	var extra []churnCall
	r, err := runEngine(e, setup, func(traced bool, req int64, parent int32) (callStats, error) {
		c, err := cfg(p.churnEpochs)
		if err != nil {
			return callStats{}, err
		}
		var tr *tracer
		if traced {
			tr = e.tr
		}
		srv := plane.NewServer()
		cc := churnCall{reader: &pubReader{}}
		var (
			prev     *plane.Snapshot
			seq      int64
			hookDone []int64
			active   []bool
			stop     atomic.Bool
			wg       sync.WaitGroup
			t0       = time.Now()
		)
		hook := func(pub sim.Publication, hookSpans *[]int32) {
			if pub.Full {
				prev = plane.Compile(seq, pub.Wiring, pub.Active, net, plane.Options{})
				srv.Publish(prev)
				wg.Add(1)
				go func() {
					defer wg.Done()
					cc.reader.run(srv.Shard(0), p.churnN, e.seed+int64(req), t0, &stop)
				}()
			} else {
				var tp, tq time.Time
				if traced {
					tp = time.Now()
				}
				sp := tr.begin("plane.patch", -1, req)
				next := prev.Patch(seq, pub.Changed, pub.Wiring, pub.Active)
				tr.end(sp)
				if traced {
					tq = time.Now()
				}
				sq := tr.begin("plane.publish", -1, req)
				srv.Publish(next)
				tr.end(sq)
				if traced {
					cc.patchUS = append(cc.patchUS, float64(tq.Sub(tp).Nanoseconds())/1e3)
					cc.pubUS = append(cc.pubUS, float64(time.Since(tq).Nanoseconds())/1e3)
					*hookSpans = append(*hookSpans, sp, sq)
				}
				prev = next
				cc.rows += len(pub.Changed)
				cc.deltas++
			}
			active = append(active[:0], pub.Active...)
			hookDone = append(hookDone, time.Since(t0).Nanoseconds())
			seq++
		}
		cs, err := scaleCall(e, c, traced, req, parent, hook)
		stop.Store(true)
		wg.Wait()
		if err != nil {
			return cs, err
		}
		// Publication s was adoptable no earlier than the moment the
		// previous hook returned; it is served once the reader holds an
		// answer stamped s or later.
		for s := 1; s < len(cc.reader.firstSeen) && s < len(hookDone); s++ {
			cc.stale = append(cc.stale, float64(cc.reader.firstSeen[s]-hookDone[s-1])/1e6)
		}
		cc.finalSeq = seq - 1
		fresh := plane.Compile(cc.finalSeq, cs.wiring, active, net, plane.Options{})
		cc.chainOK = prev.Digest() == fresh.Digest()
		extra = append(extra, cc)
		return cs, nil
	})
	if err != nil {
		return nil, err
	}
	calls := r.all()
	engineE2E(o, r)
	// The application's blocking operation here is not the engine call
	// but "a wiring changed; when is it served?".
	var p50s, p90s, patchUS, pubUS []float64
	var lookups, rows, deltas, observed int64
	var lat latencies
	for i := range extra {
		cc := &extra[i]
		p50s = append(p50s, percentile(cc.stale, 0.50))
		p90s = append(p90s, percentile(cc.stale, 0.90))
		observed += int64(len(cc.stale))
		patchUS = append(patchUS, cc.patchUS...)
		pubUS = append(pubUS, cc.pubUS...)
		lookups += cc.reader.lookups
		rows += int64(cc.rows)
		deltas += int64(cc.deltas)
		lat.ns = append(lat.ns, cc.reader.lat.ns...)
		o.attempted += cc.reader.lookups + cc.finalSeq + 1
		o.failed += cc.reader.errors + cc.reader.backwards
		if cc.reader.errors > 0 || cc.reader.backwards > 0 {
			o.fail("reader saw %d lookup errors and %d sequence numbers going backwards", cc.reader.errors, cc.reader.backwards)
		}
		if !cc.chainOK {
			o.fail("the patched snapshot chain's digest differs from a fresh compile of the final wiring")
		}
		if len(cc.stale) == 0 {
			o.fail("the reader observed no publication")
		}
	}
	o.e2e["op_ms"] = quietLow(p50s)
	o.e2e["op_ms_tail"] = quietLow(p90s)
	o.note("%d engine calls, %d publications observed by the reader: op_ms and op_ms_tail are the quiet-quartile call's p50 and p90 (%d beyond it per call); reader made %d lookups, p50 %.1f us",
		len(extra), observed, observed/int64(len(extra))/10, lookups, lat.pct(0.5, 1e3))
	checkRepeat(o, calls)
	checkWiring(o, calls[0].wiring, p.scaleK, false)
	if e.tr != nil {
		engineLayer(o, r)
		scaleLayer(o, r)
		o.layer["plane.patch_us_p50"] = percentile(patchUS, 0.5)
		o.layer["plane.publish_us_p50"] = percentile(pubUS, 0.5)
		o.layer["plane.patch_rows_mean"] = ratio(float64(rows), float64(deltas))
		probeScaleEngine(e, o, calls[0].wiring, net, p.churnM)
	}
	return o, nil
}
