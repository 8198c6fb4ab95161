package overlay

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"

	"egoist/internal/graph"
	"egoist/internal/obs"
	"egoist/internal/vis"
)

// Status is the JSON snapshot served by the node's HTTP endpoint — the
// programmatic face of the live topology demonstration of Sect. 7.
type Status struct {
	ID        int             `json:"id"`
	Neighbors []int           `json:"neighbors"`
	Known     []int           `json:"known"`
	Rewires   int             `json:"rewires"`
	Epochs    int             `json:"epochs"`
	Estimates map[int]float64 `json:"estimates_ms"`
	Delivered int             `json:"data_delivered"`
	Forwarded int             `json:"data_forwarded"`
	Dropped   int             `json:"data_dropped"`
}

// CurrentStatus snapshots the node's state.
func (n *Node) CurrentStatus() Status {
	s := Status{
		ID:        n.cfg.ID,
		Neighbors: n.Neighbors(),
		Known:     n.KnownNodes(),
		Rewires:   n.Rewires(),
		Epochs:    n.Epochs(),
		Estimates: map[int]float64{},
	}
	s.Delivered, s.Forwarded, s.Dropped = n.DataStats()
	for _, peer := range s.Known {
		if est, ok := n.Estimate(peer); ok {
			s.Estimates[peer] = est
		}
	}
	return s
}

// ServeHTTP starts an HTTP status server on addr and returns the bound
// listener address. Endpoints:
//
//	GET /status        node state as JSON
//	GET /topology.svg  the node's current view of the overlay as SVG
//	GET /route, POST /routes, GET /snapshot  the node's route server
//	                   (plane.Server.Handler)
//
// mount, when non-nil, adds handlers to the same mux before the server
// starts (the daemon's metrics and fault-injection endpoints). The
// returned shutdown function stops accepting, lets every request being
// answered finish for up to drainTimeout, and then closes whatever is
// still open.
func (n *Node) ServeHTTP(addr string, mount func(mux *http.ServeMux)) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	if mount != nil {
		mount(mux)
	}
	routes := n.routes.Handler()
	for _, path := range []string{"/route", "/routes", "/snapshot"} {
		mux.Handle(path, routes)
	}
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(n.CurrentStatus()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/topology.svg", func(w http.ResponseWriter, r *http.Request) {
		g := n.AnnouncedView()
		w.Header().Set("Content-Type", "image/svg+xml")
		if err := vis.Topology(w, g, vis.CirclePositions(g.N()), n.cfg.ID); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := obs.NewHTTPServer(mux)
	go func() {
		_ = srv.Serve(ln)
	}()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
			return err
		}
		return nil
	}
	return ln.Addr().String(), shutdown, nil
}

// EnableMetrics registers the node's route server's plane_* series on
// reg (plane.Server.EnableMetrics). Call it once.
func (n *Node) EnableMetrics(reg *obs.Registry) { n.routes.EnableMetrics(reg) }

// drainTimeout bounds an HTTP drain: well under the two seconds a
// supervisor commonly waits after SIGTERM before SIGKILL.
const drainTimeout = time.Second

// AnnouncedView returns this node's current link-state view of the
// overlay as a fresh weighted graph, including the node's own links
// (which its LSA database omits) priced at their delay estimates. It
// is what the topology rendering shows and what publish compiles the
// node's route snapshots from.
func (n *Node) AnnouncedView() *graph.Digraph {
	g := n.db.Graph()
	n.mu.Lock()
	for _, nb := range n.neighbors {
		cost := 1.0
		if e, ok := n.est[nb]; ok {
			cost = e.v
		}
		g.AddArc(n.cfg.ID, nb, cost)
	}
	n.mu.Unlock()
	return g
}
