// Command egoist-route is the data-plane face of the repository: it
// obtains a converged overlay wiring (by running the large-scale
// sampled engine, or by loading a wiring file saved earlier), compiles
// it into an immutable plane.Snapshot, and serves route queries from it
// over HTTP and the binary batch protocol until it is signalled. On
// SIGINT or SIGTERM it stops accepting, finishes the batches and
// requests it is answering (for at most a second) and exits 0.
//
// Examples:
//
//	egoist-route -n 1000 -save-wiring wiring.json
//	egoist-route -wiring wiring.json -http 127.0.0.1:8080 -binary 127.0.0.1:8081
//
// It measures nothing itself: the repository's benchmark (benchmark/,
// BENCHMARK.json) starts this binary and drives it as a remote client.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

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
		cores     = flag.Int("cores", 1, "must be 1: the server has one serving state (the flag stays for benchmark/child.go)")
		binAddr   = flag.String("binary", "", "serve the length-prefixed binary batch protocol on this TCP address")
		cacheRow  = flag.Int("cache-rows", 256, "shortest-path row cache size (rows)")
		pprofFlag = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the -http mux")
	)
	flag.Parse()
	if *cores != 1 {
		fatal(fmt.Errorf("-cores %d: only -cores 1 is accepted (the server has one serving state)", *cores))
	}

	srv := plane.NewServer()
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

	if *httpAddr == "" && *binAddr == "" {
		return
	}
	// Before either listener exists: a supervisor that signals as soon
	// as it can connect must find the handler installed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	var hs *http.Server
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
		fmt.Printf("serving /route /routes /snapshot /metrics on http://%s\n", ln.Addr())
		hs = obs.NewHTTPServer(mux)
		go func() { _ = hs.Serve(ln) }()
	}
	if *binAddr != "" {
		ln, err := net.Listen("tcp", *binAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving binary batch protocol on tcp://%s\n", ln.Addr())
		go func() { _ = srv.ServeBinary(ln) }()
	}
	<-sig
	drain(srv, hs)
}

// drainTimeout bounds the drain on SIGINT/SIGTERM: well under the two
// seconds a supervisor such as benchmark/child.go waits before SIGKILL.
const drainTimeout = time.Second

// drain stops both listeners accepting, lets every binary frame and
// HTTP request being answered finish, and closes what is still open
// when drainTimeout runs out.
func drain(srv *plane.Server, hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.ShutdownBinary(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "egoist-route: binary drain: %v\n", err)
	}
	if hs == nil {
		return
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "egoist-route: http drain: %v\n", err)
		hs.Close()
	}
}

// converge runs the scale engine to a converged wiring, publishing
// every epoch to srv on the way (the serving layer swaps snapshots
// while the control plane still re-wires — exactly the production
// shape), and returns the final snapshot.
func converge(srv *plane.Server, n, k int, sampleSpec string, epochs int, seed int64, workers, cacheRows int) (*plane.Snapshot, int, error) {
	k, spec := sim.HeadlineRecipe(n, k)
	if sampleSpec != "" {
		var err error
		if spec, err = sampling.ParseSpec(sampleSpec); err != nil {
			return nil, 0, err
		}
	}
	net, err := underlay.NewLite(n, seed+1)
	if err != nil {
		return nil, 0, err
	}
	var snap *plane.Snapshot
	cfg := sim.ScaleConfig{
		N: n, K: k, Seed: seed, Sample: spec,
		MaxEpochs: epochs, Workers: workers, Net: net,
		OnPublish: func(pub sim.Publication) {
			if !pub.EpochFinal() {
				return
			}
			snap = plane.Compile(int64(pub.Epoch), pub.Wiring, pub.Active, net, plane.Options{RouteCacheRows: cacheRows})
			srv.Publish(snap)
		},
	}
	start := time.Now()
	fmt.Printf("converging: n=%d k=%d sample=%v workers=%d\n", n, k, spec, workers)
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
	// A row is a neighbour set: seenBy[v] == u+1 once u's row named v.
	seenBy := make([]int, wf.N)
	for u, ws := range wf.Wiring {
		for _, v := range ws {
			switch {
			case v < 0 || v >= wf.N:
				return nil, fmt.Errorf("%s: node %d wires out-of-range target %d", path, u, v)
			case v == u:
				return nil, fmt.Errorf("%s: node %d wires itself", path, u)
			case seenBy[v] == u+1:
				return nil, fmt.Errorf("%s: node %d wires target %d twice", path, u, v)
			}
			seenBy[v] = u + 1
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "egoist-route: %v\n", err)
	os.Exit(1)
}
