package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"egoist/internal/clitest"
	"egoist/internal/obs"
	"egoist/internal/plane"
)

// TestMainInProcess drives converge → -save-wiring → -wiring load in
// process for coverage (subprocess binaries run uninstrumented). The
// re-save of the loaded file must reproduce it byte for byte: the file
// carries everything the snapshot is compiled from.
func TestMainInProcess(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "wiring.json"), filepath.Join(dir, "again.json")
	clitest.RunMain(t, main, "egoist-route", "-n", "120", "-workers", "2", "-save-wiring", first)
	clitest.RunMain(t, main, "egoist-route", "-wiring", first, "-save-wiring", second)
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("load + re-save changed the wiring file (%d vs %d bytes)", len(a), len(b))
	}
	wf, err := loadWiring(first)
	if err != nil {
		t.Fatal(err)
	}
	// n = 120 takes the below-1000 leg of the headline recipe.
	if wf.N != 120 || wf.K != 4 {
		t.Fatalf("saved n=%d k=%d, want 120 and the recipe's 4", wf.N, wf.K)
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// servedSeries are the /metrics series egoist-route advertises.
var servedSeries = []string{
	"plane_queries_onehop_total", "plane_queries_route_total",
	"plane_queries_failed_total", "plane_cache_hits_total", "plane_cache_misses_total",
	"plane_cache_fills_total", "plane_cache_refusals_total",
	"plane_pair_searches_total", "plane_pair_settled_total", "plane_pair_fallbacks_total",
	"plane_binary_writes_total",
	"plane_snapshot_epoch", "plane_snapshot_age_seconds",
	"plane_onehop_latency_ns_count", "plane_route_latency_ns_count",
	"plane_cache_fill_latency_ns_count", "plane_pair_search_latency_ns_count",
}

// scrape fetches /metrics and sums each advertised series over its
// label sets; a series that is absent stays out of the map.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for series, v := range obs.ParsePrometheus(body) {
		for _, name := range servedSeries {
			if series == name || strings.HasPrefix(series, name+"{") {
				sums[name] += v
			}
		}
	}
	return sums, nil
}

// waitPublished polls /snapshot until the server reports a published
// snapshot — the readiness check benchmark/child.go uses.
func waitPublished(base string) error {
	for start := time.Now(); time.Since(start) < 60*time.Second; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/snapshot")
		if err != nil {
			continue
		}
		var info struct {
			Published bool `json:"published"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err == nil && info.Published {
			return nil
		}
	}
	return fmt.Errorf("no published snapshot on %s/snapshot within 60 s", base)
}

// oneHopBatch answers one binary one-hop batch over addr and checks
// every pair came back.
func oneHopBatch(addr string, n int) error {
	client, err := plane.DialBinary(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	pairs := make([]uint32, 0, 16)
	for i := 0; i < 8; i++ {
		pairs = append(pairs, uint32(i%n), uint32((i*7+1)%n))
	}
	resp, err := client.Do(plane.BinModeOneHop, pairs)
	if err != nil {
		return err
	}
	_, results, err := plane.DecodeBatchResponse(resp, plane.BinModeOneHop, nil)
	if err != nil {
		return err
	}
	if len(results) != len(pairs)/2 {
		return fmt.Errorf("binary batch answered %d of %d pairs", len(results), len(pairs)/2)
	}
	for i, r := range results {
		if r.Status != plane.BinOK {
			return fmt.Errorf("pair %d: status %d", i, r.Status)
		}
	}
	return nil
}

// TestMainServe runs the binary's actual job in process: converge,
// listen on -http and -binary, answer until SIGTERM. While main serves,
// a client checks /metrics the way CI's shell smoke used to: every
// advertised series exists, a burst of 40 one-hop and 40 route queries
// advances each query counter by exactly 40, and the routes were paid
// for by row fills or pair searches.
func TestMainServe(t *testing.T) {
	const n = 120
	httpAddr, binAddr := freeAddr(t), freeAddr(t)
	base := "http://" + httpAddr
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		// main installs its handler before it listens, so once the
		// server has answered, the signal ends main and not the test.
		defer syscall.Kill(os.Getpid(), syscall.SIGTERM)
		if err := waitPublished(base); err != nil {
			t.Error(err)
			return
		}
		before, err := scrape(base)
		if err != nil {
			t.Error(err)
			return
		}
		for _, name := range servedSeries {
			if _, ok := before[name]; !ok {
				t.Errorf("/metrics is missing %s", name)
			}
		}
		for i := 1; i <= 40; i++ {
			for _, q := range []string{
				fmt.Sprintf("mode=onehop&src=%d&dst=%d", i%n, (i*7+1)%n),
				fmt.Sprintf("mode=route&src=%d&dst=%d", i%n, (i*13+3)%n),
			} {
				resp, err := http.Get(base + "/route?" + q)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/route?%s: %s", q, resp.Status)
				}
			}
		}
		after, err := scrape(base)
		if err != nil {
			t.Error(err)
			return
		}
		for _, name := range []string{"plane_queries_onehop_total", "plane_queries_route_total"} {
			if got := after[name] - before[name]; got != 40 {
				t.Errorf("%s advanced by %v over a burst of 40", name, got)
			}
		}
		paid := func(m map[string]float64) float64 {
			return m["plane_cache_fills_total"] + m["plane_pair_searches_total"]
		}
		if paid(after) <= paid(before) {
			t.Errorf("the route burst paid for no search and no row: fills + searches %v → %v", paid(before), paid(after))
		}
		if paid(after) != after["plane_cache_misses_total"] {
			t.Errorf("fills + searches = %v, want plane_cache_misses_total %v", paid(after), after["plane_cache_misses_total"])
		}
		if err := oneHopBatch(binAddr, n); err != nil {
			t.Errorf("binary listener: %v", err)
		}
		if last, err := scrape(base); err != nil {
			t.Error(err)
		} else if got := last["plane_binary_writes_total"] - after["plane_binary_writes_total"]; got != 1 {
			t.Errorf("plane_binary_writes_total advanced by %v over one binary batch, want 1", got)
		}
	}()
	clitest.RunMain(t, main, "egoist-route", "-n", "120", "-workers", "2",
		"-http", httpAddr, "-binary", binAddr, "-pprof")
	<-clientDone
	if _, err := http.Get(base + "/snapshot"); err == nil {
		t.Error("HTTP listener still answers after main returned")
	}
}

// TestLoadWiringValidation covers the loader in process: a saved file
// round-trips, and each malformed shape is rejected with an error.
func TestLoadWiringValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.json")
	wf := &wiringFile{N: 3, K: 1, Seed: 5, Epoch: 2, Wiring: [][]int{{1}, {2}, {0}}}
	if err := saveWiring(path, wf); err != nil {
		t.Fatal(err)
	}
	got, err := loadWiring(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || got.K != 1 || got.Seed != 5 || got.Epoch != 2 || len(got.Wiring) != 3 {
		t.Fatalf("round trip mangled the file: %+v", got)
	}
	if _, err := loadWiring(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	for name, bad := range badWirings {
		file := filepath.Join(dir, name+".json")
		if err := os.WriteFile(file, []byte(bad.body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := loadWiring(file)
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("%s: error %q does not say %q", name, err, bad.wantErr)
		}
	}
}

// badWirings are wiring files the loader must refuse, with what the
// error has to name.
var badWirings = map[string]struct{ body, wantErr string }{
	"not-json":     {"nope", "invalid character"},
	"short":        {`{"n": 5, "k": 2, "wiring": [[1],[2]]}`, "2 rows for n=5"},
	"out-of-range": {`{"n": 3, "k": 1, "wiring": [[1],[9],[0]]}`, "node 1 wires out-of-range target 9"},
	"self-link":    {`{"n": 3, "k": 1, "wiring": [[1],[2,1],[0]]}`, "node 1 wires itself"},
	"repeated":     {`{"n": 3, "k": 1, "wiring": [[1],[2,0,2],[0]]}`, "node 1 wires target 2 twice"},
}

// TestSmokeWiringRoundTrip saves a converged wiring with the built
// binary and loads it back — the serve-without-converging path.
func TestSmokeWiringRoundTrip(t *testing.T) {
	bin := clitest.Build(t, "egoist-route")
	dir := t.TempDir()
	wiring := filepath.Join(dir, "wiring.json")
	out, err := exec.Command(bin, "-n", "150", "-workers", "2", "-save-wiring", wiring).CombinedOutput()
	if err != nil {
		t.Fatalf("save: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "converged=") {
		t.Fatalf("no convergence line:\n%s", out)
	}
	out, err = exec.Command(bin, "-wiring", wiring).CombinedOutput()
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "loaded wiring: n=150") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestSmokeServeContract pins, in the root module, what the benchmark's
// child.go relies on: the flags it passes (-cores 1 included), the two
// stdout lines it takes the ephemeral addresses from, /snapshot's
// "published", a binary batch answered, and exit status 0 on SIGTERM.
func TestSmokeServeContract(t *testing.T) {
	cmd, httpAddr, binAddr, stderr := startServing(t)
	if err := waitPublished("http://" + httpAddr); err != nil {
		t.Fatal(err)
	}
	if err := oneHopBatch(binAddr, 4); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stderr:\n%s", err, stderr.String())
	}
}

// startServing starts the built binary the way child.go does, on a
// 4-node wiring, and returns it with the addresses it printed. Its
// stdout is drained in the background, so cmd.Wait may be called.
func startServing(t *testing.T) (cmd *exec.Cmd, httpAddr, binAddr string, stderr *bytes.Buffer) {
	t.Helper()
	bin := clitest.Build(t, "egoist-route")
	wiring := filepath.Join(t.TempDir(), "wiring.json")
	wf := &wiringFile{N: 4, K: 2, Seed: 9, Wiring: [][]int{{1, 2}, {2, 3}, {3, 0}, {0, 1}}}
	if err := saveWiring(wiring, wf); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(bin, "-wiring", wiring, "-cores", "1",
		"-http", "127.0.0.1:0", "-binary", "127.0.0.1:0")
	stderr = new(bytes.Buffer)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	watchdog := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	t.Cleanup(func() { watchdog.Stop() })

	// The same scan as child.go: the text after "http://" and "tcp://".
	sc := bufio.NewScanner(stdout)
	for binAddr == "" && sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 && httpAddr == "" {
			httpAddr = strings.TrimSpace(line[i+len("http://"):])
		}
		if i := strings.Index(line, "tcp://"); i >= 0 {
			binAddr = strings.TrimSpace(line[i+len("tcp://"):])
		}
	}
	if httpAddr == "" || binAddr == "" {
		t.Fatalf("no serving lines (http %q, tcp %q); stderr:\n%s", httpAddr, binAddr, stderr.String())
	}
	go func() { _, _ = io.Copy(io.Discard, stdout) }()
	return cmd, httpAddr, binAddr, stderr
}

// TestSmokeDrainOnSIGTERM: a route batch whose frame has begun to
// arrive when SIGTERM lands is still answered in full, and the process
// then exits 0 within its one-second drain, well before the two
// seconds after which child.go sends SIGKILL.
func TestSmokeDrainOnSIGTERM(t *testing.T) {
	cmd, httpAddr, binAddr, stderr := startServing(t)
	if err := waitPublished("http://" + httpAddr); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pairs := []uint32{0, 3, 1, 0, 2, 2, 3, 1}
	frame := plane.AppendBatchRequest([]byte{0, 0, 0, 0}, plane.BinModeRoute, pairs)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := conn.Write(frame[:9]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // the server reads the header
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	signalled := time.Now()
	time.Sleep(100 * time.Millisecond) // the drain is under way
	if _, err := conn.Write(frame[9:]); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatalf("the batch in flight at SIGTERM was not answered: %v; stderr:\n%s", err, stderr.String())
	}
	resp := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	_, results, err := plane.DecodeBatchResponse(resp, plane.BinModeRoute, nil)
	if err != nil || len(results) != len(pairs)/2 {
		t.Fatalf("the drained batch: %d results, %v", len(results), err)
	}
	for i, r := range results {
		if r.Status != plane.BinOK {
			t.Fatalf("pair %d: status %d", i, r.Status)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stderr:\n%s", err, stderr.String())
	}
	if took := time.Since(signalled); took > 2*time.Second {
		t.Fatalf("exited %v after SIGTERM, past child.go's 2 s SIGKILL", took)
	}
}

// TestSmokeCoresOnlyOne: the server has one serving state, so -cores
// accepts only the 1 benchmark/child.go passes. Any other value is a
// non-zero exit naming the flag, before the engine runs or a listener
// opens.
func TestSmokeCoresOnlyOne(t *testing.T) {
	bin := clitest.Build(t, "egoist-route")
	for _, cores := range []string{"2", "0"} {
		cmd := exec.Command(bin, "-cores", cores, "-n", "120", "-http", "127.0.0.1:0", "-binary", "127.0.0.1:0")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("-cores %s accepted:\n%s", cores, stdout.String())
			continue
		}
		if !strings.Contains(stderr.String(), "-cores") {
			t.Errorf("-cores %s: stderr does not name the flag:\n%s", cores, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-cores %s: ran before refusing:\n%s", cores, stdout.String())
		}
	}
}

// TestSmokeBadWiringRejected covers the loader's validation through
// the binary: every malformed file is a non-zero exit.
func TestSmokeBadWiringRejected(t *testing.T) {
	bin := clitest.Build(t, "egoist-route")
	dir := t.TempDir()
	for name, bad := range badWirings {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(bad.body), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-wiring", path).CombinedOutput()
		if err == nil {
			t.Errorf("%s accepted:\n%s", name, out)
		} else if !strings.Contains(string(out), bad.wantErr) {
			t.Errorf("%s: output does not say %q:\n%s", name, bad.wantErr, out)
		}
	}
}
