package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"egoist/internal/obs"
	"egoist/internal/plane"
	"egoist/internal/underlay"
)

// serveKind is one of the two remote-client workloads. They share the
// fixture, the server flags and the closed loop — one connection, a
// fixed number of batches in flight, the next one sent only when the
// oldest answer is decoded, because an overlay application blocks on
// the answer before it forwards — and differ in the layer left in
// charge of the request.
type serveKind struct {
	mode  byte // plane.BinModeOneHop or plane.BinModeRoute
	batch int  // pairs per request
	depth int  // requests in flight on the one connection
	zipf  bool // sources Zipf(1.1) over a seeded permutation
}

// serve-onehop-bin keeps a window of requests in flight. With one in
// flight both ends sleep between frames, and a 45 us request is then
// ~30 us of the hypervisor waking an idle vCPU, twice: it read 41 to
// 62 us on the same code within an hour, and the driver's two sets of
// ten runs spread 15% and 29%. With the next frame already in the
// socket when the previous one is answered neither end parks, and the
// request is framing, syscalls and the O(k) decision — the layers this
// workload exists to watch. Four saturate the server: eight or sixteen
// give the same rate and a longer queue. serve-route-zipf spends 2.5 ms
// a request in the program; the wake-up is noise beside that.
var (
	serveOneHopBin = serveKind{mode: plane.BinModeOneHop, batch: 64, depth: 4}
	serveRouteZipf = serveKind{mode: plane.BinModeRoute, batch: 16, depth: 1, zipf: true}
)

// answer is one decoded result, kept for the sampled requests that are
// checked against the in-process snapshot.
type answer struct {
	ok   bool
	cost float64
	via  int // one-hop relay, -1 = direct
	path []int
}

// maxBinFrame bounds a response frame the client will read: far above
// any batch this benchmark sends, far below a length read from garbage.
const maxBinFrame = 1 << 24

// binClient is the one connection to the server under test. It speaks
// the length-prefixed binary protocol the way plane.BinClient does —
// same framing, plane's own encoder and decoder — but lets a frame be
// written before the previous one is answered, which BinClient.Do
// cannot. Requests are answered in the order sent.
type binClient struct {
	conn   net.Conn
	br     *bufio.Reader
	mode   byte
	req    []byte
	resp   []byte
	buf    []plane.BinResult
	trips  []int32 // wire.roundtrip spans of the frames in flight, oldest first
	npairs []int   // their pair counts
	bytes  int64
}

func dialBin(addr string, mode byte) (*binClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &binClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), mode: mode}, nil
}

// send encodes one batch (src,dst alternating) and writes it. Spans are
// recorded when tr is non-nil.
func (c *binClient) send(pairs []uint32, tr *tracer, parent int32, req int64) error {
	sp := tr.begin("wire.encode", parent, req)
	c.req = append(c.req[:0], 0, 0, 0, 0)
	c.req = plane.AppendBatchRequest(c.req, c.mode, pairs)
	binary.LittleEndian.PutUint32(c.req[:4], uint32(len(c.req)-4))
	tr.end(sp)
	c.trips = append(c.trips, tr.begin("wire.roundtrip", parent, req))
	c.npairs = append(c.npairs, len(pairs)/2)
	_, err := c.conn.Write(c.req)
	c.bytes += int64(len(c.req))
	return err
}

// recv reads and decodes the oldest unanswered batch. It returns how
// many of its pairs were answered OK and the sum of their costs. tr,
// parent and req are the ones its send was given.
func (c *binClient) recv(tr *tracer, parent int32, req int64) (int, float64, error) {
	if len(c.trips) == 0 {
		return 0, 0, fmt.Errorf("recv with no request in flight")
	}
	trip, want := c.trips[0], c.npairs[0]
	c.trips = c.trips[:copy(c.trips, c.trips[1:])]
	c.npairs = c.npairs[:copy(c.npairs, c.npairs[1:])]
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.br, lenBuf[:]); err != nil {
		return 0, 0, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n > maxBinFrame {
		return 0, 0, fmt.Errorf("%d-byte response frame", n)
	}
	if cap(c.resp) < n {
		c.resp = make([]byte, n)
	}
	c.resp = c.resp[:n]
	_, err := io.ReadFull(c.br, c.resp)
	tr.end(trip)
	if err != nil {
		return 0, 0, err
	}
	sp := tr.begin("wire.decode", parent, req)
	_, c.buf, err = plane.DecodeBatchResponse(c.resp, c.mode, c.buf)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	if len(c.buf) != want {
		return 0, 0, fmt.Errorf("a batch of %d pairs came back with %d answers", want, len(c.buf))
	}
	c.bytes += int64(4 + n)
	ok, cost := 0, 0.0
	for i := range c.buf {
		if c.buf[i].Status == plane.BinOK {
			ok++
			cost += c.buf[i].Cost
		}
	}
	return ok, cost, nil
}

// roundTrip is one request with nothing else in flight.
func (c *binClient) roundTrip(pairs []uint32) error {
	if err := c.send(pairs, nil, -1, 0); err != nil {
		return err
	}
	_, _, err := c.recv(nil, -1, 0)
	return err
}

// last copies out the answers of the previous recv.
func (c *binClient) last() []answer {
	out := make([]answer, len(c.buf))
	for i, r := range c.buf {
		out[i] = answer{ok: r.Status == plane.BinOK, cost: r.Cost, via: int(r.Via)}
		for _, v := range r.Path {
			out[i].path = append(out[i].path, int(v))
		}
	}
	return out
}

func (c *binClient) close() { c.conn.Close() }

// hotPermSeed fixes which nodes are hot in the Zipf workload. The
// workload seed drives which ranks are drawn and where they go; were it
// also to pick the hot nodes, cost_per_pair would follow whichever
// corner of the overlay the hottest sources happen to sit in (measured:
// 4% between seeds) instead of the routes served.
const hotPermSeed = 2008

// pairStream generates the query stream from the workload seed.
type pairStream struct {
	rng  *rand.Rand
	n    int
	zipf *rand.Zipf
	perm []int
}

func newPairStream(seed int64, n int, zipf bool) *pairStream {
	s := &pairStream{rng: rand.New(rand.NewSource(seed)), n: n}
	if zipf {
		s.perm = rand.New(rand.NewSource(hotPermSeed)).Perm(n)
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(n-1))
	}
	return s
}

func (s *pairStream) fill(pairs []uint32) {
	for i := 0; i < len(pairs); i += 2 {
		src := s.rng.Intn(s.n)
		if s.zipf != nil {
			src = s.perm[s.zipf.Uint64()]
		}
		dst := s.rng.Intn(s.n - 1)
		if dst >= src {
			dst++
		}
		pairs[i], pairs[i+1] = uint32(src), uint32(dst)
	}
}

// sampled is one request kept for the bit-for-bit check.
type sampled struct {
	pairs   []uint32
	answers []answer
}

// sampleEvery keeps one request in a hundred.
const sampleEvery = 100

// serveRig is a set-up serve workload: reference snapshot, running
// child, connected and warmed client.
type serveRig struct {
	kind   serveKind
	wf     *wiringFixture
	lite   *underlay.Lite
	ref    *plane.Snapshot
	child  *routeChild
	cl     *binClient
	stream *pairStream
}

// compile builds the fixture's snapshot the way the child does.
func (r *serveRig) compile() *plane.Snapshot {
	return plane.Compile(r.wf.Epoch, r.wf.Wiring, nil, r.lite, plane.Options{})
}

func (r *serveRig) teardown() {
	if r.cl != nil {
		r.cl.close()
		r.cl = nil
	}
	if r.child != nil {
		r.child.stop()
		r.child = nil
	}
}

// setup is everything before the timed section: build the server from
// source, load and compile the fixture in-process (the reference the
// answers are checked against), start the child and wait for it, and
// warm the connection and the server's caches.
func (r *serveRig) setup(e *env) error {
	bin, err := buildRoute(e.root, e.out)
	if err != nil {
		return err
	}
	if r.wf, err = loadFixture(e.prof.fixture); err != nil {
		return err
	}
	if r.lite, err = underlay.NewLite(r.wf.N, r.wf.Seed+1); err != nil {
		return err
	}
	r.ref = r.compile()
	if r.child, err = startRoute(bin, e.prof.fixture, e.prof.childDeadline); err != nil {
		return err
	}
	if r.cl, err = dialBin(r.child.binAddr, r.kind.mode); err != nil {
		return err
	}
	r.stream = newPairStream(e.seed, r.wf.N, r.kind.zipf)
	pairs := make([]uint32, 2*r.kind.batch)
	for t0 := time.Now(); time.Since(t0) < e.prof.warmup; {
		r.stream.fill(pairs)
		if err := r.cl.roundTrip(pairs); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}
	return nil
}

func runServe(e *env, kind serveKind) (*outcome, error) {
	o := newOutcome()
	// One server core and one client core is all a 2-vCPU box can give
	// without benchmarking the scheduler; on one core they share it.
	if runtime.NumCPU() < 2 {
		o.degraded = true
		o.note("nproc < 2: client and server share one core, figures are degraded")
	}
	rig := &serveRig{kind: kind}
	defer rig.teardown()
	root := e.tr.begin("workload", -1, 0)
	sp := e.tr.begin("setup", root, 0)
	setupS, err := e.timeSetup(func() error { return rig.setup(e) }, rig.teardown)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}

	var before map[string]float64
	if e.tr != nil {
		data, err := rig.child.scrape()
		if err != nil {
			return nil, err
		}
		before = obs.ParsePrometheus(data)
	}
	// The timed section is cut into windows, every figure is taken per
	// window, and the run reports the quiet-quartile window (see
	// quietLow): interference on a shared box then spoils some windows,
	// not the run. A window's rate is taken over its steady intervals
	// (see steadyShare).
	type windowStats struct{ p50, p90, rate, cpuPerK float64 }
	var (
		plain, spans []windowStats // untraced and traced windows
		samples      []sampled
		okPairs      int64
		reqs, beyond int64
		costSum      float64
		bytes0       = rig.cl.bytes
		windows      = int(e.seconds / e.prof.window.Seconds())
		timed        = e.tr.begin("timed", root, 0)
		tStart       = time.Now()
	)
	if windows < 2 {
		windows = 2
	}
	// The window of requests in flight: slot i%depth holds request i
	// from its send to its answer.
	type flight struct {
		pairs []uint32
		tr    *tracer
		span  int32
		req   int64
		sent  time.Time
	}
	ring := make([]flight, kind.depth)
	for i := range ring {
		ring[i].pairs = make([]uint32, 2*kind.batch)
	}
	var sent int64
	submit := func(tr *tracer) error {
		f := &ring[sent%int64(kind.depth)]
		sent++
		rig.stream.fill(f.pairs)
		f.tr, f.req = tr, sent
		f.span = tr.begin("request", timed, sent)
		f.sent = time.Now()
		return rig.cl.send(f.pairs, tr, f.span, sent)
	}
	for i := 1; i < kind.depth; i++ {
		if err := submit(nil); err != nil {
			return nil, fmt.Errorf("request %d: %w", sent, err)
		}
	}
	for w := 0; w < windows; w++ {
		// Traced run: even windows carry spans, odd windows do not.
		var tr *tracer
		if e.tr != nil && w%2 == 0 {
			tr = e.tr
		}
		cpu0, err := procCPU(rig.child.pid())
		if err != nil {
			return nil, err
		}
		var lat, gaps latencies
		wStart, done := time.Now(), 0
		answered := wStart
		for time.Since(wStart) < e.prof.window {
			// One closed-loop connection: a transport or batch-level
			// error leaves nothing to measure.
			if err := submit(tr); err != nil {
				return nil, fmt.Errorf("request %d: %w", sent, err)
			}
			f := &ring[reqs%int64(kind.depth)]
			reqs++
			ok, cost, err := rig.cl.recv(f.tr, f.span, f.req)
			now := time.Now()
			lat.add(now.Sub(f.sent).Nanoseconds())
			gaps.add(now.Sub(answered).Nanoseconds())
			answered = now
			f.tr.end(f.span)
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", reqs, err)
			}
			o.attempted += int64(kind.batch)
			o.failed += int64(kind.batch - ok)
			okPairs += int64(ok)
			costSum += cost
			done += kind.batch
			if reqs%sampleEvery == 0 {
				samples = append(samples, sampled{pairs: append([]uint32(nil), f.pairs...), answers: rig.cl.last()})
			}
		}
		cpu1, err := procCPU(rig.child.pid())
		if err != nil {
			return nil, err
		}
		ws := windowStats{
			p50: lat.pct(0.50, 1e6), p90: lat.pct(0.90, 1e6),
			rate:    float64(kind.batch) * 1e9 / gaps.trimmedMean(steadyShare),
			cpuPerK: float64((cpu1 - cpu0).Microseconds()) / (float64(done) / 1000),
		}
		beyond += int64(lat.count() / 10)
		if tr != nil {
			spans = append(spans, ws)
		} else {
			plain = append(plain, ws)
		}
	}
	// The requests still in flight are answered but not counted.
	for i := reqs; i < sent; i++ {
		f := &ring[i%int64(kind.depth)]
		_, _, err := rig.cl.recv(f.tr, f.span, f.req)
		f.tr.end(f.span)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i+1, err)
		}
	}
	elapsed := time.Since(tStart)
	e.tr.end(timed)
	e.tr.end(root)
	rss, err := peakRSSMB(rig.child.pid())
	if err != nil {
		return nil, err
	}
	if o.failed > 0 {
		o.fail("%d of %d pairs were not answered OK", o.failed, o.attempted)
	}
	verifySamples(o, rig.ref, kind, samples)
	over := func(ws []windowStats, f func(windowStats) float64) []float64 {
		vals := make([]float64, len(ws))
		for i, w := range ws {
			vals[i] = f(w)
		}
		return vals
	}
	p50 := quietLow(over(plain, func(w windowStats) float64 { return w.p50 }))
	rate := quietHigh(over(plain, func(w windowStats) float64 { return w.rate }))
	cpuPerK := quietLow(over(plain, func(w windowStats) float64 { return w.cpuPerK }))

	if e.tr == nil {
		o.e2e["setup_s"] = setupS
		o.e2e["op_ms"] = p50
		o.e2e["op_ms_tail"] = quietLow(over(plain, func(w windowStats) float64 { return w.p90 }))
		o.e2e["work_per_s"] = rate
		o.e2e["cpu_us_per_kwork"] = cpuPerK
		o.e2e["peak_rss_mb"] = rss
		o.e2e["cost_per_pair"] = costSum / float64(okPairs)
		o.note("%d requests of %d pairs in %.1f s over %d windows; every figure is the quiet-quartile window's: op_ms its p50, op_ms_tail its p90 (%d requests beyond it per window); %d requests checked against the in-process snapshot",
			reqs, kind.batch, elapsed.Seconds(), windows, beyond/int64(windows), len(samples))
		return o, nil
	}

	data, err := rig.child.scrape()
	if err != nil {
		return nil, err
	}
	after := obs.ParsePrometheus(data)
	delta := func(series string) float64 { return after[series] - before[series] }
	hits, misses := delta("plane_cache_hits_total"), delta("plane_cache_misses_total")
	o.layer["plane.cache_lookups"] = hits + misses
	o.layer["plane.cache_hit_frac"] = ratio(hits, hits+misses)
	o.layer["plane.cache_evictions"] = delta("plane_cache_evictions_total")
	o.layer["plane.queries_failed"] = delta("plane_queries_failed_total")
	o.layer["plane.server_batch_us_p50"] = after[`plane_batch_latency_ns{quantile="0.5"}`] / 1e3
	o.layer["plane.server_cpu_us_per_req"] = cpuPerK * float64(kind.batch) / 1000
	o.layer["bench.trace_overhead_frac"] = ratio(rate, quietHigh(over(spans, func(w windowStats) float64 { return w.rate }))) - 1
	o.layer["wire.bin_bytes_per_pair"] = float64(rig.cl.bytes-bytes0) / float64(o.attempted)
	reqP50us := 1e3 * p50
	o.note("untraced windows: request p50 %.1f us, %.0f pairs/s", reqP50us, rate)
	probeServe(e, o, rig, reqP50us)
	return o, nil
}

// verifySamples checks the recorded requests bit-for-bit against the
// snapshot compiled in-process from the same fixture.
func verifySamples(o *outcome, ref *plane.Snapshot, kind serveKind, samples []sampled) {
	for _, s := range samples {
		if len(s.answers) != len(s.pairs)/2 {
			o.fail("a batch of %d pairs came back with %d answers", len(s.pairs)/2, len(s.answers))
			return
		}
		for i, a := range s.answers {
			src, dst := int(s.pairs[2*i]), int(s.pairs[2*i+1])
			if kind.mode == plane.BinModeOneHop {
				d := ref.OneHop(src, dst)
				if !a.ok || a.cost != d.Cost || a.via != d.Via {
					o.fail("one-hop (%d,%d): remote answered cost=%v via=%d, snapshot says cost=%v via=%d", src, dst, a.cost, a.via, d.Cost, d.Via)
					return
				}
				continue
			}
			r, ok := ref.Route(src, dst)
			if a.ok != ok || a.cost != r.Cost || !sameInts(a.path, r.Path) {
				o.fail("route (%d,%d): remote answered cost=%v path=%v, snapshot says cost=%v path=%v", src, dst, a.cost, a.path, r.Cost, r.Path)
				return
			}
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
