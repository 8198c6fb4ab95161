package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format (version 0.0.4), in registration order.
// Histograms are rendered as summaries
// (p50/p90/p99 plus _sum and _count, folded over the histogram's
// cells): the fixed bucket scheme makes scrape-side quantiles exact
// enough, and 96 cumulative le-lines per histogram would dominate every
// scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	insts := make([]instrument, len(r.insts))
	copy(insts, r.insts)
	r.mu.Unlock()

	var buf bytes.Buffer
	for _, inst := range insts {
		name := inst.metricName()
		if help := inst.metricHelp(); help != "" {
			fmt.Fprintf(&buf, "# HELP %s %s\n", name, help)
		}
		switch m := inst.(type) {
		case *Counter:
			fmt.Fprintf(&buf, "# TYPE %s counter\n", name)
			fmt.Fprintf(&buf, "%s %d\n", name, m.Value())
		case *counterFunc:
			fmt.Fprintf(&buf, "# TYPE %s counter\n", name)
			fmt.Fprintf(&buf, "%s %d\n", name, m.fn())
		case *Gauge:
			fmt.Fprintf(&buf, "# TYPE %s gauge\n", name)
			fmt.Fprintf(&buf, "%s %s\n", name, formatFloat(m.Value()))
		case *gaugeFunc:
			fmt.Fprintf(&buf, "# TYPE %s gauge\n", name)
			fmt.Fprintf(&buf, "%s %s\n", name, formatFloat(m.fn()))
		case *Histogram:
			fmt.Fprintf(&buf, "# TYPE %s summary\n", name)
			buckets := m.Merged()
			var count, sum int64
			for _, c := range buckets {
				count += c
			}
			for i := range m.cells {
				sum += m.cells[i].sum.Load()
			}
			for _, q := range [...]float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(&buf, "%s{quantile=\"%s\"} %s\n",
					name, formatFloat(q), formatFloat(bucketQuantile(&buckets, count, q)))
			}
			fmt.Fprintf(&buf, "%s_sum %d\n", name, sum)
			fmt.Fprintf(&buf, "%s_count %d\n", name, count)
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the GET /metrics face of the registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// MountPprof wires the net/http/pprof handlers under /debug/pprof/ on
// an explicit mux. Opt-in by design: the profiling surface (heap dumps,
// CPU profiles, symbol tables) stays off every daemon that did not ask
// for it, rather than riding along on http.DefaultServeMux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// The two deadlines every HTTP listener of the repository carries, so a
// peer that connects and then stalls cannot hold a connection (and its
// goroutine) for ever: the request line and headers must arrive within
// readHeaderTimeout, and a keep-alive connection may sit idle for
// idleTimeout. There is deliberately no write timeout — pprof's 30 s
// CPU profile streams over the same mux.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server the serving binaries listen
// with: h behind the header and idle deadlines above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
