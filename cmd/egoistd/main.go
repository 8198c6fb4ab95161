// Command egoistd runs one live EGOIST overlay node speaking the
// link-state protocol over UDP. Membership comes from one of two modes:
//
// Roster mode (-roster): a file maps node ids to UDP addresses (one
// "id host:port" line each); every node in the roster runs its own
// egoistd and all addresses are known up front.
//
//	cat > roster.txt <<EOF
//	0 127.0.0.1:7000
//	1 127.0.0.1:7001
//	2 127.0.0.1:7002
//	EOF
//	egoistd -id 0 -roster roster.txt -k 2 -epoch 5s &
//	egoistd -id 1 -roster roster.txt -k 2 -epoch 5s &
//	egoistd -id 2 -roster roster.txt -k 2 -epoch 5s &
//
// PEX mode (-peers): the daemon binds -bind, learns membership by
// gossip (the peer-exchange protocol documented in
// internal/linkstate/pex.go), and needs only one or two rendezvous
// addresses — or none at all for the first node up:
//
//	egoistd -id 0 -n 50 -bind 127.0.0.1:0 -announce node0.json &
//	egoistd -id 1 -n 50 -bind 127.0.0.1:0 -peers 0@127.0.0.1:41234 &
//
// Each daemon periodically prints its neighbor set, its view of the
// overlay, and its delay estimates. With -http it serves /status,
// /topology.svg, the routing data plane (/route, /routes, /snapshot),
// and the fault-injection control endpoint /ctl/drop used by the lab
// harness (cmd/egoist-lab) to partition live processes. On SIGINT or
// SIGTERM the HTTP server drains for at most one second — requests
// being answered finish — and the daemon exits 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"egoist/internal/core"
	"egoist/internal/linkstate"
	"egoist/internal/obs"
	"egoist/internal/overlay"
	"egoist/internal/roster"
	"egoist/internal/underlay"
)

// announceInfo is the ready file written by -announce: the addresses a
// supervisor (the lab harness) needs to reach a daemon it spawned with
// ephemeral ports.
type announceInfo struct {
	ID   int    `json:"id"`
	UDP  string `json:"udp"`
	HTTP string `json:"http,omitempty"`
}

func main() {
	var (
		id        = flag.Int("id", -1, "this node's id")
		rosterPf  = flag.String("roster", "", "roster file: one 'id host:port' line per node (static membership)")
		peersStr  = flag.String("peers", "", "comma-separated rendezvous peers 'id@host:port' (PEX membership; may be empty for the first node)")
		bindAddr  = flag.String("bind", "", "UDP bind address in PEX mode (e.g. 127.0.0.1:0)")
		nFlag     = flag.Int("n", 0, "overlay id space in PEX mode (roster mode infers it)")
		k         = flag.Int("k", 3, "neighbor budget")
		epoch     = flag.Duration("epoch", 60*time.Second, "wiring epoch T")
		epsilon   = flag.Float64("epsilon", 0, "BR(eps) threshold")
		donated   = flag.Int("donated", 0, "HybridBR donated links (k2)")
		immediate = flag.Bool("immediate", false, "repair dropped links immediately instead of at the next epoch")
		httpAddr  = flag.String("http", "", "serve /status, the data plane, /metrics, and /ctl/drop on this address (e.g. 127.0.0.1:0)")
		pprofFlag = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the -http mux")
		seed      = flag.Int64("seed", 0, "RNG seed (0 derives one from the id)")
		oracleStr = flag.String("oracle", "", "synthetic delay oracle 'lite:<seed>': adds Lite-underlay one-way delays to echo probes, so loopback deployments reproduce wide-area geometry")
		runFor    = flag.Duration("run-for", 0, "exit cleanly after this long (0 runs until SIGINT/SIGTERM)")
		announce  = flag.String("announce", "", "write a JSON ready file with the bound UDP/HTTP addresses")
		verbose   = flag.Bool("v", false, "log protocol events")
	)
	flag.Parse()

	if *id < 0 {
		log.Fatalf("egoistd: -id is required")
	}

	var (
		transport *linkstate.UDPTransport
		book      linkstate.AddressBook
		boot      []int
		n         int
		err       error
	)
	switch {
	case *rosterPf != "":
		transport, n, boot, err = rosterMembership(*id, *rosterPf)
	default:
		transport, n, boot, err = pexMembership(*id, *nFlag, *bindAddr, *peersStr)
		book = transport
	}
	if err != nil {
		log.Fatalf("egoistd: %v", err)
	}

	var oracle func(from, to int) float64
	if *oracleStr != "" {
		oracle, err = parseOracle(*oracleStr, n)
		if err != nil {
			log.Fatalf("egoistd: %v", err)
		}
	}
	if *seed == 0 {
		*seed = int64(*id) + 1
	}
	mode := overlay.Delayed
	if *immediate {
		mode = overlay.Immediate
	}
	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}

	// The daemon's metrics registry. The probe instruments exist before
	// the node starts (OnProbe fires from the first echo reply); the
	// scrape-time callbacks over node and transport state register right
	// after Start.
	reg := obs.NewRegistry()
	probeNS := reg.Histogram("egoistd_probe_latency_ns", "accepted one-way probe delay samples (ns)")
	probes := reg.Counter("egoistd_probes_total", "echo measurements folded into the delay estimator")

	node, err := overlay.Start(overlay.Config{
		ID: *id, N: n, K: *k,
		Policy:      core.BRPolicy{Donated: *donated},
		Transport:   transport,
		Epoch:       *epoch,
		Epsilon:     *epsilon,
		Mode:        mode,
		Bootstrap:   boot,
		Book:        book,
		DelayOracle: oracle,
		// Clock-derived sequence base: a restarted daemon must outrun the
		// LSAs of its previous life or peers discard it as stale (see
		// Config.SeqBase).
		SeqBase: uint64(time.Now().UnixNano()),
		Seed:    *seed,
		OnProbe: func(peer int, oneWayMS float64) {
			probes.Inc()
			probeNS.Observe(int64(oneWayMS * 1e6))
		},
		Logf: logf,
	})
	if err != nil {
		log.Fatalf("egoistd: %v", err)
	}
	log.Printf("egoistd: node %d up on %s (k=%d, T=%v)", *id, transport.LocalAddr(), *k, *epoch)

	// Protocol state the node and transport already maintain, read at
	// scrape time.
	reg.GaugeFunc("egoistd_lsa_seq", "sequence number of this node's latest LSA", func() float64 {
		return float64(node.Seq())
	})
	reg.GaugeFunc("egoistd_pex_peers", "peers learned via bootstrap replies or PEX gossip", func() float64 {
		return float64(node.JoinedPeers())
	})
	reg.GaugeFunc("egoistd_neighbors", "current out-neighbor count", func() float64 {
		return float64(len(node.Neighbors()))
	})
	reg.CounterFunc("egoistd_rewires_total", "links established after bootstrap", func() int64 {
		return int64(node.Rewires())
	})
	reg.CounterFunc("egoistd_epochs_total", "wiring epochs run", func() int64 {
		return int64(node.Epochs())
	})
	reg.CounterFunc("egoistd_epoch_decision_us_total", "time wiring epochs spent deciding, from the link-state view to the adoption result", func() int64 {
		return node.DecisionTime().Microseconds()
	})
	reg.CounterFunc("egoistd_fault_drops_send_total", "datagrams discarded on send by injected fault rules", func() int64 {
		send, _ := transport.FaultDrops()
		return send
	})
	reg.CounterFunc("egoistd_fault_drops_recv_total", "inbound datagrams discarded by injected fault rules", func() int64 {
		_, recv := transport.FaultDrops()
		return recv
	})

	boundHTTP := ""
	if *httpAddr != "" {
		node.EnableMetrics(reg)
		bound, shutdown, err := node.ServeHTTP(*httpAddr, func(mux *http.ServeMux) {
			mux.Handle("/metrics", reg.Handler())
			mux.Handle("/ctl/drop", dropController(transport))
			if *pprofFlag {
				obs.MountPprof(mux)
			}
		})
		if err != nil {
			log.Fatalf("egoistd: http: %v", err)
		}
		defer func() {
			if err := shutdown(); err != nil {
				log.Printf("egoistd: http drain: %v", err)
			}
		}()
		boundHTTP = bound
		log.Printf("egoistd: status at http://%s/status, routes at http://%s/route, faults at http://%s/ctl/drop", bound, bound, bound)
	}
	if *announce != "" {
		info := announceInfo{ID: *id, UDP: transport.LocalAddr().String(), HTTP: boundHTTP}
		if err := writeAnnounce(*announce, info); err != nil {
			log.Fatalf("egoistd: announce: %v", err)
		}
	}

	status := time.NewTicker(*epoch)
	defer status.Stop()
	var expired <-chan time.Time
	if *runFor > 0 {
		expired = time.After(*runFor)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-status.C:
			known := node.KnownNodes()
			sort.Ints(known)
			log.Printf("node %d: neighbors=%v known=%v rewires=%d",
				*id, node.Neighbors(), known, node.Rewires())
			for _, peer := range node.Neighbors() {
				if est, ok := node.Estimate(peer); ok {
					log.Printf("node %d: est delay to %d: %.2f ms", *id, peer, est)
				}
			}
		case <-expired:
			log.Printf("egoistd: node %d run-for %v elapsed", *id, *runFor)
			node.Stop()
			return
		case s := <-sig:
			log.Printf("egoistd: node %d shutting down (%v)", *id, s)
			node.Stop()
			return
		}
	}
}

// rosterMembership binds at the roster's address for id and statically
// registers every other member. The overlay size is the roster's id
// space; bootstrap contacts are the first two other members.
func rosterMembership(id int, path string) (*linkstate.UDPTransport, int, []int, error) {
	members, err := roster.Load(path)
	if err != nil {
		return nil, 0, nil, err
	}
	self, ok := members[id]
	if !ok {
		return nil, 0, nil, fmt.Errorf("id %d not in roster %s", id, path)
	}
	for nid, addr := range members {
		if nid != id && addr == self {
			return nil, 0, nil, fmt.Errorf("roster %s: node %d shares this node's address %s — a node cannot peer with itself", path, nid, self)
		}
	}
	transport, err := linkstate.NewUDPTransport(self)
	if err != nil {
		return nil, 0, nil, err
	}
	var boot []int
	for _, nid := range members.IDs() {
		if nid == id {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", members[nid])
		if err != nil {
			transport.Close()
			return nil, 0, nil, fmt.Errorf("roster entry %d: %v", nid, err)
		}
		transport.Register(nid, ua)
		if len(boot) < 2 {
			boot = append(boot, nid)
		}
	}
	return transport, members.MaxID() + 1, boot, nil
}

// pexMembership binds the given address and seeds the transport's book
// with this node plus the rendezvous peers; everything else arrives by
// gossip. An empty peer list is legal — the first node of an overlay
// has nobody to call.
func pexMembership(id, n int, bind, peers string) (*linkstate.UDPTransport, int, []int, error) {
	if bind == "" {
		return nil, 0, nil, fmt.Errorf("-bind is required without -roster")
	}
	if n < 2 {
		return nil, 0, nil, fmt.Errorf("-n %d: PEX mode needs the overlay id space (-n >= 2)", n)
	}
	seeds := map[int]*net.UDPAddr{}
	var boot []int
	if peers != "" {
		for _, entry := range strings.Split(peers, ",") {
			pid, addr, err := parsePeer(strings.TrimSpace(entry))
			if err != nil {
				return nil, 0, nil, err
			}
			if pid == id {
				return nil, 0, nil, fmt.Errorf("-peers entry %q references this node itself", entry)
			}
			if _, dup := seeds[pid]; !dup {
				boot = append(boot, pid)
			}
			seeds[pid] = addr
		}
	}
	transport, err := linkstate.NewUDPTransport(bind)
	if err != nil {
		return nil, 0, nil, err
	}
	transport.Register(id, transport.LocalAddr()) // self entry, gossiped to others
	for pid, addr := range seeds {
		transport.Register(pid, addr)
	}
	sort.Ints(boot)
	return transport, n, boot, nil
}

// parsePeer splits one "id@host:port" rendezvous entry.
func parsePeer(entry string) (int, *net.UDPAddr, error) {
	at := strings.IndexByte(entry, '@')
	if at <= 0 {
		return 0, nil, fmt.Errorf("-peers entry %q: want id@host:port", entry)
	}
	pid, err := strconv.Atoi(entry[:at])
	if err != nil || pid < 0 {
		return 0, nil, fmt.Errorf("-peers entry %q: bad id", entry)
	}
	addr, err := net.ResolveUDPAddr("udp", entry[at+1:])
	if err != nil {
		return 0, nil, fmt.Errorf("-peers entry %q: %v", entry, err)
	}
	return pid, addr, nil
}

// parseOracle builds the synthetic delay function from its flag form.
// "lite:<seed>" is the Lite underlay the scale engine defaults to, so a
// lab deployment with -oracle lite:<spec.Seed+1> measures the same
// geometry as sim.RunScale on the same spec.
func parseOracle(s string, n int) (func(from, to int) float64, error) {
	rest, ok := strings.CutPrefix(s, "lite:")
	if !ok {
		return nil, fmt.Errorf("-oracle %q: only 'lite:<seed>' is supported", s)
	}
	oseed, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("-oracle %q: bad seed", s)
	}
	lite, err := underlay.NewLite(n, oseed)
	if err != nil {
		return nil, fmt.Errorf("-oracle %q: %v", s, err)
	}
	return func(from, to int) float64 {
		if from < 0 || to < 0 || from >= n || to >= n {
			return 0
		}
		return lite.Delay(from, to)
	}, nil
}

// writeAnnounce publishes the ready file atomically (temp + rename), so
// a poller never reads a half-written JSON object.
func writeAnnounce(path string, info announceInfo) error {
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// dropController is the lab harness's fault-injection endpoint:
//
//	POST /ctl/drop {"peers":[3,7]}  drop all traffic to/from nodes 3 and 7
//	POST /ctl/drop {"peers":[]}    heal (clear all rules)
//	GET  /ctl/drop                 current drop set
//
// Rules apply to both directions (the transport consults them on send
// and on receive), so dropping every other node isolates this one — the
// harness's partition and outage primitive.
func dropController(t *linkstate.UDPTransport) http.Handler {
	var (
		mu      sync.Mutex
		current []int
	)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			mu.Lock()
			peers := append([]int(nil), current...)
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string][]int{"peers": peers})
		case http.MethodPost:
			var req struct {
				Peers []int `json:"peers"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			set := make(map[int]bool, len(req.Peers))
			for _, p := range req.Peers {
				set[p] = true
			}
			mu.Lock()
			current = append([]int(nil), req.Peers...)
			if len(set) == 0 {
				t.SetFault(nil)
			} else {
				t.SetFault(func(peer int) bool { return set[peer] })
			}
			mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
		}
	})
}
