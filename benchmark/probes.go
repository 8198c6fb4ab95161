package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"egoist/internal/core"
	"egoist/internal/graph"
	"egoist/internal/obs"
	"egoist/internal/plane"
	"egoist/internal/sampling"
	"egoist/internal/underlay"
)

// The micro-probes of the traced run. Each times one public function of
// one layer from outside, on the workload's own objects — the wiring
// the engine just produced, the fixture snapshot the server is serving
// — so that a per-layer number and the end-to-end number it should
// move describe the same data.

// probe calls fn repeatedly for about budget (after one warm-up call),
// timing every call, and returns the median nanoseconds and the mean
// heap allocations per call. The median keeps one descheduled call on a
// shared box from owning the figure; an fn faster than a microsecond
// loops inside itself so the clock reads stay out of it.
func probe(budget time.Duration, fn func()) (ns, allocs float64) {
	fn()
	// Room for every sample up front (an fn takes a microsecond or more
	// and a budget is 100 ms), so the slice's growth is not billed to fn.
	each := make([]float64, 0, 1<<17)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for t0 := time.Now(); time.Since(t0) < budget && len(each) < cap(each); {
		t := time.Now()
		fn()
		each = append(each, float64(time.Since(t).Nanoseconds()))
	}
	runtime.ReadMemStats(&m1)
	return median(each), float64(m1.Mallocs-m0.Mallocs) / float64(len(each))
}

// overlayGraph builds the weighted overlay digraph of a wiring and the
// roster of its live nodes.
func overlayGraph(wiring [][]int, lite *underlay.Lite) (*graph.Digraph, []int) {
	g := graph.New(len(wiring))
	var ids []int
	for u, row := range wiring {
		if row == nil {
			continue
		}
		ids = append(ids, u)
		for _, v := range row {
			if wiring[v] != nil {
				g.AddArc(u, v, lite.Delay(u, v))
			}
		}
	}
	return g, ids
}

func probeDelay(e *env, o *outcome, lite *underlay.Lite) {
	n, sink := lite.N(), 0.0
	ns, _ := probe(e.prof.probe, func() {
		for i := 0; i < 1024; i++ {
			sink += lite.Delay(i%n, (i*7+1)%n)
		}
	})
	o.layer["underlay.delay_ns"] = ns / 1024
	runtime.KeepAlive(sink)
}

// sampledInstance rebuilds, for node self of a converged overlay, the
// kind of local instance the scale engine's proposal phase solves: a
// demand:m destination draw with the current neighbours forced in, 64
// candidate facilities carrying exact distance rows, the remaining
// sampled destinations as objective columns.
type sampledInstance struct {
	inst *core.Instance
	ds   *sampling.DestSample
	cur  []int
}

func buildSampledInstance(g *graph.Digraph, ids []int, wiring [][]int, lite *underlay.Lite, spec sampling.Spec, rng *rand.Rand, self int, sp *graph.SPScratch) (*sampledInstance, error) {
	const maxCands = 64
	n := g.N()
	ds, err := spec.DrawFrom(rng, self, ids, nil, nil)
	if err != nil {
		return nil, err
	}
	ds = ds.EnsureCertain(wiring[self])
	lid := make(map[int]int)
	var global []int
	add := func(v int) {
		if _, ok := lid[v]; !ok && v != self {
			lid[v] = len(global)
			global = append(global, v)
		}
	}
	for _, v := range wiring[self] {
		add(v)
	}
	near := append([]int(nil), ds.Dests...)
	sort.Slice(near, func(a, b int) bool { return lite.Delay(self, near[a]) < lite.Delay(self, near[b]) })
	for _, v := range near {
		if len(global) >= maxCands/2 {
			break
		}
		add(v)
	}
	for tries := 0; len(global) < maxCands && tries < 10*maxCands; tries++ {
		add(ids[rng.Intn(len(ids))])
	}
	nCands := len(global)
	for _, j := range ds.Dests {
		add(j)
	}
	L := len(global) + 1
	in := &core.Instance{
		Self: L - 1, Kind: core.Additive,
		Direct: make([]float64, L), Pref: make([]float64, L),
		Resid: make([][]float64, L), Candidates: make([]int, nCands),
	}
	row := make([]float64, n)
	for a := 0; a < nCands; a++ {
		sp.DijkstraDist(g, global[a], row)
		in.Resid[a] = make([]float64, L)
		for b, gb := range global {
			in.Resid[a][b] = row[gb]
		}
		in.Resid[a][L-1] = graph.Inf
		in.Candidates[a] = a
	}
	for b, gb := range global {
		in.Direct[b] = lite.Delay(self, gb)
		in.Pref[b] = 1
	}
	si := &sampledInstance{inst: in, ds: ds.Remap(func(j int) int { return lid[j] })}
	for _, v := range wiring[self] {
		si.cur = append(si.cur, lid[v])
	}
	return si, nil
}

// probeScaleEngine times the layers under the sampled scale engine on
// the wiring it converged to.
func probeScaleEngine(e *env, o *outcome, wiring [][]int, lite *underlay.Lite, m int) {
	g, ids := overlayGraph(wiring, lite)
	n, k := g.N(), e.prof.scaleK
	spec := sampling.Spec{Strategy: sampling.Demand, M: m}
	rng := rand.New(rand.NewSource(e.seed + 13))
	budget := e.prof.probe
	probeDelay(e, o, lite)

	at, drawn, draws := 0, 0, 0
	next := func() int { at++; return ids[at%len(ids)] }
	ns, allocs := probe(budget, func() {
		ds, err := spec.DrawFrom(rng, next(), ids, nil, nil)
		if err == nil {
			drawn += len(ds.Dests)
			draws++
		}
	})
	o.layer["sampling.draw_us"] = ns / 1e3
	o.layer["sampling.draw_allocs"] = allocs
	o.layer["sampling.mean_m"] = ratio(float64(drawn), float64(draws))

	var sp graph.SPScratch
	row := make([]float64, n)
	var seeds []graph.Arc
	ns, _ = probe(budget, func() {
		i := next()
		seeds = seeds[:0]
		for _, v := range wiring[i] {
			seeds = append(seeds, graph.Arc{To: v, W: lite.Delay(i, v)})
		}
		sp.DijkstraDistSeeded(g, i, seeds, row)
	})
	o.layer["graph.dijkstra_seeded_us"] = ns / 1e3

	var insts []*sampledInstance
	for len(insts) < 8 {
		si, err := buildSampledInstance(g, ids, wiring, lite, spec, rng, next(), &sp)
		if err != nil {
			o.note("core probes skipped: %v", err)
			break
		}
		insts = append(insts, si)
	}
	if len(insts) > 0 {
		var sc core.Scratch
		ns, allocs = probe(budget, func() {
			si := insts[at%len(insts)]
			at++
			_, _, _ = core.BestResponseSampled(si.inst, k, si.ds, core.BROptions{}, &sc)
		})
		o.layer["core.br_sampled_us"] = ns / 1e3
		o.layer["core.br_allocs"] = allocs
		ns, _ = probe(budget, func() {
			for _, si := range insts {
				core.EvalSampled(si.inst, si.cur, si.ds, &sc)
			}
		})
		o.layer["core.eval_sampled_ns"] = ns / float64(len(insts))
	}

	// The facility directory: a full rebuild of ~2m+256 source rows
	// (the engine's default pool), then the incremental repair after a
	// sub-round's worth of re-wirings, applied and reverted so that
	// every call repairs the same amount.
	pool := 2*m + 256
	if pool > len(ids) {
		pool = len(ids)
	}
	sources := append([]int(nil), ids[:pool]...)
	dyn := graph.NewDynamicRows()
	ns, _ = probe(budget, func() { dyn.Reset(g, sources, e.workers) })
	o.layer["graph.dynrows_reset_ms"] = ns / 1e6
	const editNodes = 9
	var forward, back []graph.RowEdit
	for x := 0; x < editNodes; x++ {
		u := next()
		old := append([]graph.Arc(nil), g.Out(u)...)
		moved := append([]graph.Arc(nil), old...)
		if len(moved) > 0 {
			v := ids[rng.Intn(len(ids))]
			if v != u && !g.HasArc(u, v) {
				moved[0] = graph.Arc{To: v, W: lite.Delay(u, v)}
			}
		}
		forward = append(forward, graph.RowEdit{Node: u, NewOut: moved})
		back = append(back, graph.RowEdit{Node: u, NewOut: old})
	}
	ns, _ = probe(budget, func() {
		dyn.Apply(forward)
		dyn.Apply(back)
	})
	o.layer["graph.dynrows_apply_us"] = ns / 2 / 1e3

	// The data plane's write side on the same wiring.
	ns, _ = probe(budget, func() { plane.Compile(0, wiring, nil, lite, plane.Options{}) })
	o.layer["plane.compile_ms"] = ns / 1e6
	adj := func(u int) []graph.Arc { return g.Out(u) }
	csr := graph.NewCSR(n, adj)
	changed := make([]int, 0, editNodes)
	for x := 0; x < editNodes && x < len(ids); x++ {
		changed = append(changed, ids[x*len(ids)/editNodes])
	}
	ns, _ = probe(budget, func() { graph.PatchCSR(csr, changed, adj) })
	o.layer["graph.patchcsr_us"] = ns / 1e3
}

// probeFullEngine times the layers under the exact full-roster engine
// on the wiring it produced.
func probeFullEngine(e *env, o *outcome, wiring [][]int, lite *underlay.Lite) {
	g, ids := overlayGraph(wiring, lite)
	n, budget := g.N(), e.prof.probe
	probeDelay(e, o, lite)

	var sp graph.SPScratch
	var dst [][]float64
	ns, _ := probe(budget, func() { dst = graph.APSPInto(g, dst, &sp) })
	o.layer["graph.apsp_ms"] = ns / 1e6

	// One node's exact best response as the engine computes it: the
	// residual all-pairs matrix without the node's own links, then the
	// solver over the full roster.
	var sc core.Scratch
	at := 0
	ns, _ = probe(budget, func() {
		self := ids[at%len(ids)]
		at++
		in := &core.Instance{Self: self, Kind: core.Additive, Direct: make([]float64, n)}
		for j := 0; j < n; j++ {
			if j != self {
				in.Direct[j] = lite.Delay(self, j)
			}
		}
		in.Resid = core.BuildResidScratch(g, self, core.Additive, nil, &sc)
		_, _, _ = core.BestResponseScratch(in, e.prof.fullK, core.BROptions{}, &sc)
	})
	o.layer["core.br_exact_us"] = ns / 1e3
}

// probeServe times the layers under the route service on the fixture
// the child is serving, and reconciles their sum with the remote
// request time. reqP50us is the untraced remote request median.
func probeServe(e *env, o *outcome, rig *serveRig, reqP50us float64) {
	budget, kind, n := e.prof.probe, rig.kind, rig.wf.N
	probeDelay(e, o, rig.lite)
	ns, _ := probe(budget, func() { rig.compile() })
	o.layer["plane.compile_ms"] = ns / 1e6

	// An in-process twin of the child: same fixture, one shard, metrics
	// on (the child's -http flag enables them).
	srv := plane.NewServer()
	srv.EnableMetrics(obs.NewRegistry())
	srv.Publish(rig.compile())
	sh := srv.Shard(0)
	stream := newPairStream(e.seed+17, n, false)
	pairs := make([]uint32, 2*64)
	stream.fill(pairs)

	onehop := func(h plane.Shard) float64 {
		ns, _ := probe(budget, func() {
			for i := 0; i < len(pairs); i += 2 {
				_, _, _ = h.OneHop(int(pairs[i]), int(pairs[i+1]))
			}
		})
		return ns / float64(len(pairs)/2)
	}
	withMetrics := onehop(sh)
	o.layer["plane.onehop_ns"] = withMetrics
	bare := plane.NewServer()
	bare.Publish(rig.compile())
	o.layer["obs.metrics_on_overhead_frac"] = ratio(withMetrics, onehop(bare.Shard(0))) - 1

	var path []int32
	_, _, _, _ = sh.AppendRoute(0, 1, path)
	at := 0
	ns, _ = probe(budget, func() {
		for i := 0; i < 64; i++ {
			at++
			path, _, _, _ = sh.AppendRoute(0, 1+at%(n-1), path[:0])
		}
	})
	o.layer["plane.route_warm_ns"] = ns / 64
	// Sources visited round-robin: with n well above the 256-row cache
	// every visit finds its row evicted and pays one Dijkstra. (The toy
	// profile's n fits the cache; its figure is a warm one.)
	ns, _ = probe(budget, func() {
		at++
		path, _, _, _ = sh.AppendRoute(at%n, (at+n/2)%n, path[:0])
	})
	o.layer["plane.route_miss_us"] = ns / 1e3

	g, _ := overlayGraph(rig.wf.Wiring, rig.lite)
	csr := graph.NewCSR(n, func(u int) []graph.Arc { return g.Out(u) })
	var sp graph.SPScratch
	dist, parent := make([]float64, n), make([]int32, n)
	ns, _ = probe(budget, func() {
		at++
		sp.DijkstraCSR(csr, at%n, dist, parent)
	})
	o.layer["graph.dijkstra_csr_us"] = ns / 1e3

	// The binary batch: encode, answer, decode, each on its own.
	batchPairs := make([]uint32, 2*kind.batch)
	stream.fill(batchPairs)
	var req, resp []byte
	ns, _ = probe(budget, func() {
		for i := 0; i < 64; i++ {
			req = plane.AppendBatchRequest(req[:0], kind.mode, batchPairs)
		}
	})
	encodeNS := ns / 64
	o.layer["wire.bin_encode_ns_per_pair"] = encodeNS / float64(kind.batch)
	var answerErr error
	ns, allocs := probe(budget, func() { resp, answerErr = sh.AnswerBinary(req, resp[:0]) })
	answerNS := ns
	o.layer["plane.answer_bin_ns_per_pair"] = ns / float64(kind.batch)
	o.layer["plane.answer_bin_allocs"] = allocs
	var results []plane.BinResult
	ns, _ = probe(budget, func() {
		for i := 0; i < 64; i++ {
			_, results, _ = plane.DecodeBatchResponse(resp, kind.mode, results)
		}
	})
	decodeNS := ns / 64
	o.layer["wire.bin_decode_ns_per_pair"] = decodeNS / float64(kind.batch)
	if answerErr != nil {
		o.note("plane.AnswerBinary probe: %v", answerErr)
	}

	// The JSON protocol's twin of the batch through the server's own
	// handler, no socket.
	mode := "onehop"
	if kind.mode == plane.BinModeRoute {
		mode = "route"
	}
	body, _ := json.Marshal(jsonBatch{Mode: mode, Pairs: pairPairs(batchPairs)})
	h := srv.Handler()
	var jsonResp int
	ns, _ = probe(budget, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/routes", bytes.NewReader(body)))
		jsonResp = rec.Body.Len()
	})
	o.layer["wire.json_handler_us_per_req"] = ns / 1e3
	o.layer["wire.json_bytes_per_pair"] = float64(len(body)+jsonResp) / float64(kind.batch)

	// The syscall and wake-up floor: frames of the request's and the
	// response's size against an echo process over loopback TCP.
	rttNS, err := loopbackRTT(budget, 4+len(req), 4+len(resp), kind.depth, time.Duration(answerNS))
	if err != nil {
		o.note("wire.loopback_rtt_us probe: %v", err)
	}
	o.layer["wire.loopback_rtt_us"] = rttNS / 1e3
	if kind == serveOneHopBin {
		// The parts must account for the whole. (Only here: the route
		// batch re-answered in a loop finds its rows cached, which the
		// remote stream does not.)
		// kind.depth requests are answered between this one's send and
		// its answer.
		parts := (float64(kind.depth)*answerNS + encodeNS + decodeNS + rttNS) / 1e3
		o.layer["wire.reconcile_frac"] = ratio(parts, reqP50us)
		if f := o.layer["wire.reconcile_frac"]; f < 0.8 || f > 1.2 {
			o.note("WARNING: %d x answer + encode + decode + loopback = %.1f us is %.2f of the remote request p50 %.1f us", kind.depth, parts, f, reqP50us)
		}
	}

	// obs itself.
	reg := obs.NewRegistry()
	ctr := reg.Counter("probe_total", "")
	hist := reg.HistogramVec("probe_ns", "", 1)
	ns, _ = probe(budget, func() {
		for i := 0; i < 1024; i++ {
			ctr.Inc()
		}
	})
	o.layer["obs.counter_inc_ns"] = ns / 1024
	ns, _ = probe(budget, func() {
		for i := 0; i < 1024; i++ {
			hist.ObserveShard(0, int64(50+i))
		}
	})
	o.layer["obs.hist_observe_ns"] = ns / 1024
	ns, _ = probe(budget, func() { _, _ = rig.child.scrape() })
	o.layer["obs.scrape_us"] = ns / 1e3
}

// jsonBatch is the body of POST /routes.
type jsonBatch struct {
	Mode  string   `json:"mode"`
	Pairs [][2]int `json:"pairs"`
}

func pairPairs(flat []uint32) [][2]int {
	out := make([][2]int, 0, len(flat)/2)
	for i := 0; i < len(flat); i += 2 {
		out = append(out, [2]int{int(flat[i]), int(flat[i+1])})
	}
	return out
}

// loopbackRTT times a frame of reqLen bytes answered, after the peer
// has spun for think, by respLen bytes from an echo process over
// loopback TCP — this binary re-executed with -echo — with depth frames
// in flight, as the workload keeps them. It returns the median round
// trip with the peer's think time (depth frames queue ahead of an
// answer, so depth times think) taken out. The floor it measures is the
// one a remote request pays: two socket writes, two reads, the kernel
// waking a process on another core wherever an end has gone to sleep,
// and the queue. Both details matter: an echo goroutine inside the
// harness is woken by the Go scheduler, not the kernel, and a peer that
// answers at once is answered while the client's thread is still
// spinning, so neither pays the park-and-wake a real request's wait
// costs.
func loopbackRTT(budget time.Duration, reqLen, respLen, depth int, think time.Duration) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-echo", fmt.Sprintf("%d,%d,%d", reqLen, respLen, think.Nanoseconds()))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	kill := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		kill.Stop()
	}()
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("echo child announced no address: %w", err)
	}
	conn, err := net.Dial("tcp", strings.TrimSpace(addr))
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	out, in := make([]byte, reqLen), make([]byte, respLen)
	sent := make([]time.Time, depth)
	var each []float64
	for i, t0 := 0, time.Now(); time.Since(t0) < budget || len(each) == 0; i++ {
		sent[i%depth] = time.Now()
		if _, err := conn.Write(out); err != nil {
			return 0, err
		}
		if i < depth-1 {
			continue
		}
		if _, err := io.ReadFull(conn, in); err != nil {
			return 0, err
		}
		if i >= 2*depth { // the window has filled and settled
			each = append(each, float64(time.Since(sent[(i+1)%depth]).Nanoseconds()))
		}
	}
	return median(each) - float64(depth)*float64(think.Nanoseconds()), nil
}

// runEcho is the -echo mode: accept one connection, answer every
// reqLen-byte frame with respLen bytes after spinning for thinkNS, exit
// when the peer hangs up.
func runEcho(sizes string) error {
	var reqLen, respLen int
	var thinkNS int64
	if _, err := fmt.Sscanf(sizes, "%d,%d,%d", &reqLen, &respLen, &thinkNS); err != nil || reqLen < 1 || respLen < 1 {
		return fmt.Errorf("-echo wants reqLen,respLen,thinkNS")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Println(ln.Addr())
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	in, out := make([]byte, reqLen), make([]byte, respLen)
	for {
		if _, err := io.ReadFull(conn, in); err != nil {
			return nil
		}
		for t0 := time.Now(); time.Since(t0).Nanoseconds() < thinkNS; {
		}
		if _, err := conn.Write(out); err != nil {
			return nil
		}
	}
}
