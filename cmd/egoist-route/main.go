// Command egoist-route is the data-plane face of the repository: it
// obtains a converged overlay wiring (by running the large-scale
// sampled engine, or by loading a wiring file saved earlier), compiles
// it into an immutable plane.Snapshot, and then serves route queries —
// over HTTP, or against an embedded load generator that measures
// lookup throughput and latency quantiles and writes the
// BENCH_serve.json artifact CI gates on.
//
// Examples:
//
//	egoist-route -n 10000 -sample demand:500 -workers 8 \
//	    -bench -bench-json BENCH_serve.json -baseline ci/serve_baseline.json
//	egoist-route -n 1000 -save-wiring wiring.json
//	egoist-route -wiring wiring.json -http 127.0.0.1:8080
//
// The load generator hits the in-process serving layer (the same
// Server the HTTP handlers call), so the reported numbers are the
// lookup paths themselves: the O(k) one-hop decision and the cached
// shortest-path route, not HTTP framing.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"egoist/internal/churn"
	"egoist/internal/experiments"
	"egoist/internal/obs"
	"egoist/internal/plane"
	"egoist/internal/sampling"
	"egoist/internal/sim"
	"egoist/internal/underlay"
)

// wiringFile is the JSON schema of -save-wiring / -wiring: everything
// needed to recompile the exact snapshot (the delay oracle is derived
// from n and seed, like the engine's default underlay).
type wiringFile struct {
	N      int     `json:"n"`
	K      int     `json:"k"`
	Seed   int64   `json:"seed"`
	Epoch  int64   `json:"epoch"`
	Wiring [][]int `json:"wiring"`
}

// ServeRecord is one load-generator or publish-bench measurement —
// the BENCH_serve.json schema, shared with cmd/benchjson via
// internal/experiments.
type ServeRecord = experiments.ServeRecord

func main() {
	var (
		n         = flag.Int("n", 10000, "overlay size for the convergence run")
		k         = flag.Int("k", 0, "degree budget (0 = 8, or 4 below 1000 nodes)")
		sample    = flag.String("sample", "", "sampling spec strategy:m (default demand:<n/20, capped 500>)")
		epochs    = flag.Int("epochs", 0, "epoch cap for the convergence run (0 = engine default)")
		seed      = flag.Int64("seed", 2008, "random seed")
		workers   = flag.Int("workers", 0, "convergence-run parallelism (0 = NumCPU; wiring is identical for any value)")
		wiringIn  = flag.String("wiring", "", "load this wiring file instead of running the engine")
		saveW     = flag.String("save-wiring", "", "save the converged wiring to this file")
		httpAddr  = flag.String("http", "", "serve route queries over HTTP on this address")
		bench     = flag.Bool("bench", false, "run the embedded load generator")
		benchDur  = flag.Duration("bench-duration", 3*time.Second, "load-generator duration per mode")
		clients   = flag.Int("clients", 1, "concurrent load-generator clients (1 = the single-core number)")
		modes     = flag.String("modes", "onehop,route", "comma-separated lookup paths to bench: onehop, route, batchjson, batchbin")
		cores     = flag.Int("cores", 1, "server shards (0 = NumCPU); above 1 the onehop/route benches add *_multicore records with one pinned client per shard")
		batchSz   = flag.Int("batch", 256, "pairs per request in the batchjson/batchbin bench modes")
		binAddr   = flag.String("binary", "", "serve the length-prefixed binary batch protocol on this TCP address")
		benchOut  = flag.String("bench-json", "", "write BENCH_serve.json records to this path")
		baseline  = flag.String("baseline", "", "gate against this serve-baseline file (fails below min_onehop_qps)")
		cacheRow  = flag.Int("cache-rows", 256, "shortest-path row cache size (rows)")
		pprofFlag = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the -http mux")
		pubBench  = flag.Int("publish-bench", 0, "run the publication-cost bench over this many churned epochs (0 = off): times every sub-round publication both as a delta Patch and as a full Compile and emits publish_delta/publish_full records")
	)
	flag.Parse()

	srv := plane.NewServerShards(*cores)
	var snap *plane.Snapshot
	var kUsed int
	seedUsed := *seed
	if *wiringIn != "" {
		wf, err := loadWiring(*wiringIn)
		if err != nil {
			fatal(err)
		}
		net, err := underlay.NewLite(wf.N, wf.Seed+1)
		if err != nil {
			fatal(err)
		}
		snap = plane.Compile(wf.Epoch, wf.Wiring, nil, net, plane.Options{RouteCacheRows: *cacheRow})
		kUsed = wf.K
		// The file's seed, not the flag's: the delay oracle is derived
		// from it, and a re-save must keep the pair consistent.
		seedUsed = wf.Seed
		fmt.Printf("loaded wiring: n=%d k=%d epoch=%d arcs=%d live=%d\n",
			wf.N, wf.K, wf.Epoch, snap.NumArcs(), snap.NumLive())
	} else {
		var err error
		snap, kUsed, err = converge(srv, *n, *k, *sample, *epochs, *seed, *workers, *cacheRow)
		if err != nil {
			fatal(err)
		}
	}
	srv.Publish(snap)

	if *saveW != "" {
		wf := wiringFile{N: snap.N(), K: kUsed, Seed: seedUsed, Epoch: snap.Epoch()}
		wf.Wiring = wiringOf(snap)
		if err := saveWiring(*saveW, &wf); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *saveW)
	}

	if *bench || *pubBench > 0 {
		var recs []ServeRecord
		if *bench {
			report := func(rec ServeRecord) {
				recs = append(recs, rec)
				fmt.Printf("bench %-22s clients=%-3d lookups=%-10d qps=%-11.0f p50=%.2fµs p90=%.2fµs p99=%.2fµs\n",
					rec.Name, rec.Clients, rec.Lookups, rec.QPS, rec.P50us, rec.P90us, rec.P99us)
			}
			for _, mode := range strings.Split(*modes, ",") {
				mode = strings.TrimSpace(mode)
				if mode == "" {
					continue
				}
				switch mode {
				case "onehop", "route":
					rec, err := runBench(srv, snap, kUsed, mode, *clients, *benchDur, seedUsed)
					if err != nil {
						fatal(err)
					}
					report(rec)
					if srv.Shards() > 1 {
						// The multi-core record: one pinned client per
						// shard, same lookup path.
						rec, err := runBench(srv, snap, kUsed, mode, srv.Shards(), *benchDur, seedUsed)
						if err != nil {
							fatal(err)
						}
						rec.Name += "_multicore"
						rec.Cores = srv.Shards()
						report(rec)
					}
				case "batchjson", "batchbin":
					rec, err := runBatchBench(srv, snap, kUsed, mode, *clients, *batchSz, *benchDur, seedUsed)
					if err != nil {
						fatal(err)
					}
					report(rec)
				default:
					fatal(fmt.Errorf("unknown bench mode %q (want onehop, route, batchjson, or batchbin)", mode))
				}
			}
		}
		if *pubBench > 0 {
			pubRecs, err := runPublishBench(*n, *k, *sample, seedUsed, *workers, *pubBench, *cacheRow)
			if err != nil {
				fatal(err)
			}
			recs = append(recs, pubRecs...)
		}
		if *benchOut != "" {
			if err := experiments.WriteServeJSON(*benchOut, recs); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%d records)\n", *benchOut, len(recs))
		}
		if *baseline != "" {
			if err := gate(recs, *baseline); err != nil {
				fmt.Fprintf(os.Stderr, "egoist-route: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *httpAddr != "" || *binAddr != "" {
		var hs *http.Server
		var binLn net.Listener
		if *httpAddr != "" {
			ln, err := net.Listen("tcp", *httpAddr)
			if err != nil {
				fatal(err)
			}
			reg := obs.NewRegistry()
			srv.EnableMetrics(reg)
			mux := http.NewServeMux()
			mux.Handle("/", srv.Handler())
			mux.Handle("/metrics", reg.Handler())
			if *pprofFlag {
				obs.MountPprof(mux)
			}
			fmt.Printf("serving /route /routes /routes.bin /snapshot /metrics on http://%s\n", ln.Addr())
			hs = &http.Server{Handler: mux}
			go func() { _ = hs.Serve(ln) }()
		}
		if *binAddr != "" {
			var err error
			binLn, err = net.Listen("tcp", *binAddr)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("serving binary batch protocol on tcp://%s\n", binLn.Addr())
			go func() { _ = srv.ServeBinary(binLn) }()
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		if hs != nil {
			_ = hs.Close()
		}
		if binLn != nil {
			_ = binLn.Close()
		}
	}
}

// converge runs the scale engine to a converged wiring, publishing
// every epoch to srv on the way (the serving layer swaps snapshots
// while the control plane still re-wires — exactly the production
// shape), and returns the final snapshot.
func converge(srv *plane.Server, n, k int, sampleSpec string, epochs int, seed int64, workers, cacheRows int) (*plane.Snapshot, int, error) {
	if k <= 0 {
		k = 8
		if n < 1000 {
			k = 4
		}
	}
	if sampleSpec == "" {
		m := n / 20
		if m < k+2 {
			m = k + 2
		}
		if m > 500 {
			m = 500
		}
		sampleSpec = fmt.Sprintf("demand:%d", m)
	}
	spec, err := sampling.ParseSpec(sampleSpec)
	if err != nil {
		return nil, 0, err
	}
	net, err := underlay.NewLite(n, seed+1)
	if err != nil {
		return nil, 0, err
	}
	var snap *plane.Snapshot
	cfg := sim.ScaleConfig{
		N: n, K: k, Seed: seed, Sample: spec,
		MaxEpochs: epochs, Workers: workers, Net: net,
		OnEpoch: func(epoch int, wiring [][]int, active []bool) {
			snap = plane.Compile(int64(epoch), wiring, active, net, plane.Options{RouteCacheRows: cacheRows})
			srv.Publish(snap)
		},
	}
	start := time.Now()
	fmt.Printf("converging: n=%d k=%d sample=%s workers=%d\n", n, k, sampleSpec, workers)
	res, err := sim.RunScale(cfg)
	if err != nil {
		return nil, 0, err
	}
	fmt.Printf("converged=%v epochs=%d arcs=%d (%v)\n",
		res.Converged, res.Epochs, snap.NumArcs(), time.Since(start).Round(time.Millisecond))
	return snap, k, nil
}

// wiringOf decodes a snapshot's adjacency back into wiring rows (only
// used by -save-wiring, which wants the compiled truth, not the
// engine's transient state).
func wiringOf(snap *plane.Snapshot) [][]int {
	w := make([][]int, snap.N())
	for u := 0; u < snap.N(); u++ {
		if snap.Live(u) {
			w[u] = snap.Neighbors(u)
		}
	}
	return w
}

func loadWiring(path string) (*wiringFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wf wiringFile
	if err := json.Unmarshal(data, &wf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if wf.N < 2 || len(wf.Wiring) != wf.N {
		return nil, fmt.Errorf("%s: wiring has %d rows for n=%d", path, len(wf.Wiring), wf.N)
	}
	for u, ws := range wf.Wiring {
		for _, v := range ws {
			if v < 0 || v >= wf.N {
				return nil, fmt.Errorf("%s: node %d wires out-of-range target %d", path, u, v)
			}
		}
	}
	return &wf, nil
}

func saveWiring(path string, wf *wiringFile) error {
	data, err := json.MarshalIndent(wf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bucketSlice flattens a histogram's merged bucket vector for the
// LatBuckets field of a ServeRecord. The bucket scheme (and the
// quantile math the record's p50/p90/p99 come from) lives in
// internal/obs — this binary's private histogram moved there verbatim,
// so the reported quantiles are bit-identical to the pre-move ones.
func bucketSlice(h *obs.Histogram) []int64 {
	m := h.Merged()
	return append([]int64(nil), m[:]...)
}

// runBench hammers one lookup path with the given number of client
// goroutines for the given duration, each pinned to its own server
// shard (with clients <= shards no two clients share a cache or a
// counter — the multi-core scaling shape). The route mode draws sources
// from a 64-node hot set so the row cache behaves as it does for a
// skewed production workload (sources repeat): each hot source earns
// its row within its first few queries and the run is served from
// rows. The measured loops are the zero-alloc paths (Shard.OneHop,
// Shard.AppendRoute with a recycled buffer).
func runBench(srv *plane.Server, snap *plane.Snapshot, k int, mode string, clients int, dur time.Duration, seed int64) (ServeRecord, error) {
	n := snap.N()
	if snap.NumLive() == 0 {
		return ServeRecord{}, fmt.Errorf("snapshot has no live nodes to bench against")
	}
	var hot []int
	switch mode {
	case "onehop":
	case "route":
		rng := rand.New(rand.NewSource(seed + 555))
		seen := map[int]bool{}
		for len(hot) < 64 && len(hot) < snap.NumLive() {
			v := rng.Intn(n)
			if snap.Live(v) && !seen[v] {
				seen[v] = true
				hot = append(hot, v)
			}
		}
		sort.Ints(hot)
	default:
		return ServeRecord{}, fmt.Errorf("unknown bench mode %q (want onehop or route)", mode)
	}

	// One padded histogram cell per client: no shared cache lines in the
	// measured loops, one merge at read time.
	hist := obs.NewHistogram(clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sh := srv.Shard(c)
			rng := rand.New(rand.NewSource(seed + int64(c)*7919))
			var buf []int32
			for b := 0; ; b++ {
				// Check the clock once per 64 lookups: a syscall-free
				// time source would be nicer, but this keeps the
				// per-lookup overhead at two monotonic reads.
				if b%64 == 0 && !time.Now().Before(deadline) {
					return
				}
				var src, dst int
				if mode == "route" {
					src = hot[rng.Intn(len(hot))]
					dst = rng.Intn(n)
				} else {
					src, dst = rng.Intn(n), rng.Intn(n)
				}
				t0 := time.Now()
				var err error
				if mode == "route" {
					var path []int32
					path, _, _, err = sh.AppendRoute(src, dst, buf)
					buf = path[:0]
				} else {
					_, _, err = sh.OneHop(src, dst)
				}
				if err != nil {
					panic(err) // ids are in range and a snapshot is published
				}
				hist.ObserveShard(c, time.Since(t0).Nanoseconds())
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	count := hist.Count()
	return ServeRecord{
		Name:         "serve_" + mode,
		N:            n,
		K:            k,
		Epoch:        snap.Epoch(),
		Clients:      clients,
		Seconds:      elapsed,
		Lookups:      count,
		QPS:          float64(count) / elapsed,
		P50us:        hist.QuantileUS(0.50),
		P90us:        hist.QuantileUS(0.90),
		P99us:        hist.QuantileUS(0.99),
		LatBuckets:   bucketSlice(hist),
		BucketScheme: obs.BucketScheme,
	}, nil
}

// batchWireRequest / batchWireResponse mirror the JSON wire shape of
// POST /routes (the server's types are internal to plane; the bench is
// a real external client and pays real encode/decode costs).
type batchWireRequest struct {
	Mode  string   `json:"mode"`
	Pairs [][2]int `json:"pairs"`
}

type batchWireResponse struct {
	Epoch   int64 `json:"epoch"`
	Results []struct {
		Cost float64 `json:"cost"`
		Ok   bool    `json:"ok"`
	} `json:"results"`
}

// runBatchBench measures batched one-hop lookups through a real
// loopback transport: mode batchjson drives POST /routes (JSON
// marshal/unmarshal per batch), batchbin drives the length-prefixed
// binary protocol over TCP with reused buffers. Identical pair
// streams, so the two records differ only in protocol cost — the
// binary-vs-JSON CI gate compares their QPS. Quantiles are per-batch
// round-trip latency; Lookups counts pairs.
func runBatchBench(srv *plane.Server, snap *plane.Snapshot, k int, mode string, clients, batch int, dur time.Duration, seed int64) (ServeRecord, error) {
	n := snap.N()
	if batch < 1 || batch > 10000 {
		return ServeRecord{}, fmt.Errorf("batch size %d outside [1,10000]", batch)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServeRecord{}, err
	}
	defer ln.Close()
	rec := ServeRecord{
		Name: "serve_" + mode, N: n, K: k, Epoch: snap.Epoch(),
		Clients: clients, Batch: batch,
	}
	if srv.Shards() > 1 {
		rec.Cores = srv.Shards()
	}
	switch mode {
	case "batchjson":
		rec.Protocol = "http-json"
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
	case "batchbin":
		rec.Protocol = "tcp-binary"
		go func() { _ = srv.ServeBinary(ln) }()
	default:
		return ServeRecord{}, fmt.Errorf("unknown batch mode %q", mode)
	}
	addr := ln.Addr().String()

	hist := obs.NewHistogram(clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)*104729))
			if mode == "batchbin" {
				client, err := plane.DialBinary(addr)
				if err != nil {
					errs[c] = err
					return
				}
				defer client.Close()
				pairs := make([]uint32, 2*batch)
				var results []plane.BinResult
				for !time.Now().After(deadline) {
					for i := range pairs {
						pairs[i] = uint32(rng.Intn(n))
					}
					t0 := time.Now()
					resp, err := client.Do(plane.BinModeOneHop, pairs)
					if err != nil {
						errs[c] = err
						return
					}
					_, rs, err := plane.DecodeBatchResponse(resp, plane.BinModeOneHop, results)
					if err != nil {
						errs[c] = err
						return
					}
					results = rs
					if len(rs) != batch {
						errs[c] = fmt.Errorf("binary batch answered %d of %d pairs", len(rs), batch)
						return
					}
					hist.ObserveShard(c, time.Since(t0).Nanoseconds())
				}
				return
			}
			httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			req := batchWireRequest{Mode: "onehop", Pairs: make([][2]int, batch)}
			url := "http://" + addr + "/routes"
			for !time.Now().After(deadline) {
				for i := range req.Pairs {
					req.Pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
				}
				t0 := time.Now()
				body, err := json.Marshal(req)
				if err != nil {
					errs[c] = err
					return
				}
				httpResp, err := httpc.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs[c] = err
					return
				}
				var resp batchWireResponse
				err = json.NewDecoder(httpResp.Body).Decode(&resp)
				httpResp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				if len(resp.Results) != batch {
					errs[c] = fmt.Errorf("JSON batch answered %d of %d pairs", len(resp.Results), batch)
					return
				}
				hist.ObserveShard(c, time.Since(t0).Nanoseconds())
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return ServeRecord{}, fmt.Errorf("%s client: %w", mode, err)
		}
	}
	count := hist.Count()
	if count == 0 {
		return ServeRecord{}, fmt.Errorf("%s bench completed no batches", mode)
	}
	rec.Seconds = elapsed
	rec.Lookups = count * int64(batch)
	rec.QPS = float64(rec.Lookups) / elapsed
	rec.P50us = hist.QuantileUS(0.50)
	rec.P90us = hist.QuantileUS(0.90)
	rec.P99us = hist.QuantileUS(0.99)
	rec.LatBuckets = bucketSlice(hist)
	rec.BucketScheme = obs.BucketScheme
	return rec, nil
}

// gate enforces the serve baseline: the one-hop record must meet the
// committed minimum throughput, and when the baseline carries the
// multi-core or binary-protocol gates, the records they need must be
// present and meet them — a missing record fails the gate rather than
// silently skipping it.
func gate(recs []ServeRecord, path string) error {
	bl, err := experiments.ReadServeBaseline(path)
	if err != nil {
		return err
	}
	if bl.MinOneHopQPS <= 0 {
		return fmt.Errorf("%s: no min_onehop_qps", path)
	}
	byName := map[string]ServeRecord{}
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	need := func(name string) (ServeRecord, error) {
		rec, ok := byName[name]
		if !ok {
			return ServeRecord{}, fmt.Errorf("no %s record to gate against %s", name, path)
		}
		return rec, nil
	}
	onehop, err := need("serve_onehop")
	if err != nil {
		return err
	}
	if onehop.QPS < bl.MinOneHopQPS {
		return fmt.Errorf("one-hop throughput %.0f lookups/sec below the %.0f floor in %s",
			onehop.QPS, bl.MinOneHopQPS, path)
	}
	fmt.Printf("serve gate: one-hop %.0f lookups/sec >= %.0f floor\n", onehop.QPS, bl.MinOneHopQPS)
	if bl.MinOneHopQPSMulticore > 0 || bl.MinMulticoreScaling > 0 {
		multi, err := need("serve_onehop_multicore")
		if err != nil {
			return err
		}
		if bl.MinOneHopQPSMulticore > 0 {
			if multi.QPS < bl.MinOneHopQPSMulticore {
				return fmt.Errorf("multi-core one-hop throughput %.0f lookups/sec (cores=%d) below the %.0f floor in %s",
					multi.QPS, multi.Cores, bl.MinOneHopQPSMulticore, path)
			}
			fmt.Printf("serve gate: multi-core one-hop %.0f lookups/sec (cores=%d) >= %.0f floor\n",
				multi.QPS, multi.Cores, bl.MinOneHopQPSMulticore)
		}
		if bl.MinMulticoreScaling > 0 {
			scaling := multi.QPS / onehop.QPS
			if scaling < bl.MinMulticoreScaling {
				return fmt.Errorf("multi-core one-hop scaling %.2fx (cores=%d) below the %.2fx floor in %s",
					scaling, multi.Cores, bl.MinMulticoreScaling, path)
			}
			fmt.Printf("serve gate: multi-core scaling %.2fx (cores=%d) >= %.2fx floor\n",
				scaling, multi.Cores, bl.MinMulticoreScaling)
		}
	}
	if bl.MinBinaryBatchSpeedup > 0 {
		jsonRec, err := need("serve_batchjson")
		if err != nil {
			return err
		}
		binRec, err := need("serve_batchbin")
		if err != nil {
			return err
		}
		speedup := binRec.QPS / jsonRec.QPS
		if speedup < bl.MinBinaryBatchSpeedup {
			return fmt.Errorf("binary batch protocol %.2fx the JSON throughput, below the %.2fx floor in %s",
				speedup, bl.MinBinaryBatchSpeedup, path)
		}
		fmt.Printf("serve gate: binary batch %.2fx JSON throughput >= %.2fx floor\n", speedup, bl.MinBinaryBatchSpeedup)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "egoist-route: %v\n", err)
	os.Exit(1)
}

// runPublishBench measures sub-epoch publication cost under churn: a
// fresh scale run (same n/k/sampling defaults as the serve run) plays
// the given number of epochs over an exponential background churn
// process, and every sub-round publication is executed both ways — a
// full from-scratch Compile and a delta Patch of the previous snapshot
// — so BENCH_serve.json carries the two cost columns measured on the
// identical publication stream. The delta Patch is timed inline (it IS
// the production publication path); the reference full Compile runs on
// a dedicated timing goroutine, fed copies of each publication's
// wiring, so its cost never lands inside the epochs being measured —
// the engine only pays a slice copy, not a Compile. One route row is
// kept warm so the Patch timing includes its real carry/invalidate
// work, not just the CSR splice.
func runPublishBench(n, k int, sampleSpec string, seed int64, workers, epochs, cacheRows int) ([]ServeRecord, error) {
	if k <= 0 {
		k = 8
		if n < 1000 {
			k = 4
		}
	}
	if sampleSpec == "" {
		m := n / 20
		if m < k+2 {
			m = k + 2
		}
		if m > 500 {
			m = 500
		}
		sampleSpec = fmt.Sprintf("demand:%d", m)
	}
	spec, err := sampling.ParseSpec(sampleSpec)
	if err != nil {
		return nil, err
	}
	oracle, err := underlay.NewLite(n, seed+1)
	if err != nil {
		return nil, err
	}
	sched, err := churn.GenerateSynthetic(churn.SyntheticConfig{
		N: n, Horizon: float64(epochs),
		On:   churn.Exponential{Mean: 60},
		Off:  churn.Exponential{Mean: 12},
		Seed: seed + 101, StartOn: 0.9,
	})
	if err != nil {
		return nil, err
	}
	var (
		prev            *plane.Snapshot
		seq             int64
		deltaNs, fullNs int64
		changedRows     int64
	)
	deltaHist := obs.NewHistogram(1)
	fullHist := obs.NewHistogram(1)
	opts := plane.Options{RouteCacheRows: cacheRows}
	// The timing goroutine owns fullHist/fullNs until fullWG is waited.
	type pubCopy struct {
		seq    int64
		wiring [][]int
		active []bool
	}
	fullCh := make(chan pubCopy, 32)
	var fullWG sync.WaitGroup
	fullWG.Add(1)
	go func() {
		defer fullWG.Done()
		for pc := range fullCh {
			t := time.Now()
			plane.Compile(pc.seq, pc.wiring, pc.active, oracle, opts)
			ns := time.Since(t).Nanoseconds()
			fullNs += ns
			fullHist.Observe(ns)
		}
	}()
	cfg := sim.ScaleConfig{
		N: n, K: k, Seed: seed, Sample: spec,
		MaxEpochs: epochs, Workers: workers, Net: oracle,
		Churn: sched, ConvergedFrac: -1,
		OnPublish: func(pub sim.Publication) {
			if pub.Full {
				prev = plane.Compile(seq, pub.Wiring, pub.Active, oracle, opts)
				seq++
				return
			}
			// The engine may keep mutating its wiring after the hook
			// returns, so the timing goroutine gets a copy — the only
			// cost the engine pays for the reference measurement.
			cp := pubCopy{seq: seq, wiring: make([][]int, len(pub.Wiring)), active: append([]bool(nil), pub.Active...)}
			for u, ws := range pub.Wiring {
				if ws != nil {
					cp.wiring[u] = append([]int(nil), ws...)
				}
			}
			fullCh <- cp
			t := time.Now()
			next := prev.Patch(seq, pub.Changed, pub.Wiring, pub.Active)
			deltaNs += time.Since(t).Nanoseconds()
			deltaHist.Observe(time.Since(t).Nanoseconds())
			prev = next
			seq++
			changedRows += int64(len(pub.Changed))
			prev.RouteCost(int(seq)%n, (int(seq)+1)%n)
		},
	}
	fmt.Printf("publish bench: n=%d k=%d sample=%s epochs=%d churn=exp(60,12)\n", n, k, sampleSpec, epochs)
	_, runErr := sim.RunScale(cfg)
	close(fullCh)
	fullWG.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if fullHist.Count() == 0 {
		return nil, fmt.Errorf("publish bench ran no publications")
	}
	mk := func(name string, h *obs.Histogram, totalNs int64) ServeRecord {
		secs := float64(totalNs) / 1e9
		return ServeRecord{
			Name: name, N: n, K: k, Epoch: int64(epochs), Clients: 1,
			Seconds: secs, Lookups: h.Count(), QPS: float64(h.Count()) / secs,
			P50us: h.QuantileUS(0.50), P90us: h.QuantileUS(0.90), P99us: h.QuantileUS(0.99),
			LatBuckets: bucketSlice(h), BucketScheme: obs.BucketScheme,
		}
	}
	recs := []ServeRecord{
		mk("publish_full", fullHist, fullNs),
		mk("publish_delta", deltaHist, deltaNs),
	}
	for _, rec := range recs {
		fmt.Printf("bench %-13s publications=%-6d p50=%.2fµs p90=%.2fµs p99=%.2fµs\n",
			rec.Name, rec.Lookups, rec.P50us, rec.P90us, rec.P99us)
	}
	fmt.Printf("publish bench: delta p50 is %.1f%% of full-recompile p50 (%.1f changed rows/publication)\n",
		100*recs[1].P50us/recs[0].P50us, float64(changedRows)/float64(fullHist.Count()))
	return recs, nil
}
