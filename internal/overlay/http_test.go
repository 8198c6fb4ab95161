package overlay

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"egoist/internal/core"
	"egoist/internal/obs"
)

// TestHTTPStatusEndpoint also serves the node's own routes and the
// mounted metrics of its route server, enabled while the node's
// goroutines publish and forward.
func TestHTTPStatusEndpoint(t *testing.T) {
	nodes, bus, _ := startCluster(t, 5, 2, core.BRPolicy{}, Delayed)
	defer bus.Close()
	defer stopAll(nodes)

	reg := obs.NewRegistry()
	nodes[0].EnableMetrics(reg)
	addr, shutdown, err := nodes[0].ServeHTTP("127.0.0.1:0", func(mux *http.ServeMux) {
		mux.Handle("/metrics", reg.Handler())
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	waitFor(t, 10*time.Second, func() bool {
		return len(nodes[0].KnownNodes()) >= 4
	}, "node never converged")

	resp, err := http.Get(fmt.Sprintf("http://%s/status", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || len(st.Known) < 4 {
		t.Fatalf("status %+v", st)
	}

	for dst := 1; dst < 5; dst++ {
		_ = nodes[0].Send(dst, []byte("x"))
	}
	for _, path := range []string{"/route?src=0&dst=3&mode=route", "/snapshot", "/metrics"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		if path == "/metrics" && !strings.Contains(string(body), "plane_publish_latency_ns_count") {
			t.Fatalf("/metrics lacks the route server's series:\n%s", body)
		}
	}
}

func TestHTTPTopologySVG(t *testing.T) {
	nodes, bus, _ := startCluster(t, 5, 2, core.BRPolicy{}, Delayed)
	defer bus.Close()
	defer stopAll(nodes)

	addr, shutdown, err := nodes[1].ServeHTTP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	waitFor(t, 10*time.Second, func() bool {
		return len(nodes[1].KnownNodes()) >= 4
	}, "node never converged")

	resp, err := http.Get(fmt.Sprintf("http://%s/topology.svg", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.HasPrefix(string(body), "<svg") {
		t.Fatalf("not an svg: %.40s", body)
	}
}

func TestHTTPBadAddr(t *testing.T) {
	nodes, bus, _ := startCluster(t, 4, 2, core.BRPolicy{}, Delayed)
	defer bus.Close()
	defer stopAll(nodes)
	if _, _, err := nodes[0].ServeHTTP("256.256.256.256:99999", nil); err == nil {
		t.Fatal("bad address accepted")
	}
}
