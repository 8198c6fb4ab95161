package main

import (
	"bufio"
	"encoding/json"
	"fmt"
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
)

// egoistd was the last CLI with zero test coverage — and the one that
// fronts every real deployment. These smoke tests drive both membership
// modes end to end (in process for coverage, as subprocesses for the
// failure exits) and pin the daemon's contract with the lab harness:
// the announce ready file, the /status and /snapshot endpoints, and a
// clean non-zero exit on every misconfiguration instead of a hang.

// freeUDPPort reserves an ephemeral port and releases it for the
// daemon to bind (a benign race, confined to loopback).
func freeUDPPort(t *testing.T) int {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	port := conn.LocalAddr().(*net.UDPAddr).Port
	conn.Close()
	return port
}

func readAnnounce(t *testing.T, path string, deadline time.Duration) announceInfo {
	t.Helper()
	var info announceInfo
	stop := time.Now().Add(deadline)
	for {
		data, err := os.ReadFile(path)
		if err == nil && json.Unmarshal(data, &info) == nil {
			return info
		}
		if time.Now().After(stop) {
			t.Fatalf("announce file %s never appeared: %v", path, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestMainInProcessRoster runs the roster mode happy path in process so
// main's own statements appear in the coverage profile. The peer
// addresses point at ports nobody listens on — UDP sends to the void
// are fine; the node runs alone for a few epochs and exits via
// -run-for.
func TestMainInProcessRoster(t *testing.T) {
	dir := t.TempDir()
	self := freeUDPPort(t)
	rosterPath := filepath.Join(dir, "roster.txt")
	roster := fmt.Sprintf("0 127.0.0.1:%d\n1 127.0.0.1:%d\n2 127.0.0.1:%d\n",
		self, freeUDPPort(t), freeUDPPort(t))
	if err := os.WriteFile(rosterPath, []byte(roster), 0o644); err != nil {
		t.Fatal(err)
	}
	clitest.RunMain(t, main, "egoistd",
		"-id", "0", "-roster", rosterPath, "-k", "2",
		"-epoch", "80ms", "-run-for", "300ms")
}

// TestMainInProcessPex runs the PEX rendezvous happy path in process:
// an overlay's first node with an empty peer list, the lite oracle, an
// HTTP endpoint, and an announce file whose addresses must round-trip.
func TestMainInProcessPex(t *testing.T) {
	ready := filepath.Join(t.TempDir(), "node0.json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		clitest.RunMain(t, main, "egoistd",
			"-id", "0", "-n", "4", "-bind", "127.0.0.1:0",
			"-http", "127.0.0.1:0", "-oracle", "lite:5",
			"-epoch", "80ms", "-run-for", "600ms",
			"-announce", ready, "-immediate", "-seed", "42")
	}()
	info := readAnnounce(t, ready, 5*time.Second)
	if info.ID != 0 || info.UDP == "" || info.HTTP == "" {
		t.Fatalf("announce file incomplete: %+v", info)
	}
	// The daemon is live: /status and the drop controller must answer
	// while the run-for clock ticks down.
	resp, err := http.Get("http://" + info.HTTP + "/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var st struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != 0 {
		t.Fatalf("status id %d, want 0", st.ID)
	}
	if _, err := http.Post("http://"+info.HTTP+"/ctl/drop", "application/json",
		strings.NewReader(`{"peers":[1]}`)); err != nil {
		t.Fatalf("drop: %v", err)
	}
	resp, err = http.Get("http://" + info.HTTP + "/ctl/drop")
	if err != nil {
		t.Fatal(err)
	}
	var drop struct {
		Peers []int `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&drop); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(drop.Peers) != 1 || drop.Peers[0] != 1 {
		t.Fatalf("drop set %v, want [1]", drop.Peers)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("-run-for never expired")
	}
}

// TestSmokePexConvergence is the 3-node distributed smoke: real
// processes on loopback, PEX bootstrap from one rendezvous address, and
// a /status + /snapshot round-trip proving the overlay wired itself.
func TestSmokePexConvergence(t *testing.T) {
	bin := clitest.Build(t, "egoistd")
	dir := t.TempDir()
	const n = 3
	procs := make([]*exec.Cmd, 0, n)
	defer func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}()
	launch := func(id int, peers string) announceInfo {
		t.Helper()
		ready := filepath.Join(dir, fmt.Sprintf("node%d.json", id))
		args := []string{
			"-id", fmt.Sprint(id), "-n", fmt.Sprint(n), "-k", "2",
			"-bind", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-epoch", "300ms", "-oracle", "lite:7",
			"-announce", ready,
		}
		if peers != "" {
			args = append(args, "-peers", peers)
		}
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		procs = append(procs, cmd)
		return readAnnounce(t, ready, 10*time.Second)
	}

	seed := launch(0, "")
	infos := []announceInfo{seed}
	for id := 1; id < n; id++ {
		infos = append(infos, launch(id, fmt.Sprintf("0@%s", seed.UDP)))
	}

	// Every node must discover full membership and wire its budget.
	deadline := time.Now().Add(30 * time.Second)
	for _, info := range infos {
		for {
			var st struct {
				ID        int   `json:"id"`
				Neighbors []int `json:"neighbors"`
				Known     []int `json:"known"`
			}
			resp, err := http.Get("http://" + info.HTTP + "/status")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
			}
			if err == nil && len(st.Known) == n-1 && len(st.Neighbors) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never converged: %+v (err %v)", info.ID, st, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// The data plane serves a published snapshot of the wired overlay.
	resp, err := http.Get("http://" + infos[1].HTTP + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Published bool `json:"published"`
		Nodes     int  `json:"nodes"`
		Arcs      int  `json:"arcs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !snap.Published || snap.Nodes != n || snap.Arcs == 0 {
		t.Fatalf("snapshot %+v, want published n=%d with arcs", snap, n)
	}
}

// TestSmokeDrainOnSIGTERM: a POST /routes whose body has begun to
// arrive when SIGTERM lands is still answered, and the daemon then
// exits 0 within its one-second drain.
func TestSmokeDrainOnSIGTERM(t *testing.T) {
	bin := clitest.Build(t, "egoistd")
	ready := filepath.Join(t.TempDir(), "node0.json")
	cmd := exec.Command(bin, "-id", "0", "-n", "3", "-k", "2",
		"-bind", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-epoch", "300ms", "-oracle", "lite:7", "-announce", ready)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	info := readAnnounce(t, ready, 10*time.Second)

	conn, err := net.Dial("tcp", info.HTTP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"mode":"route","pairs":[[0,0],[0,1]]}`
	head := fmt.Sprintf("POST /routes HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", info.HTTP, len(body))
	if _, err := conn.Write([]byte(head + body[:10])); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // the handler is reading the body
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	signalled := time.Now()
	time.Sleep(100 * time.Millisecond) // the drain is under way
	if _, err := conn.Write([]byte(body[10:])); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("the request in flight at SIGTERM was not answered: %v", err)
	}
	defer resp.Body.Close()
	var batch struct {
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("the drained request: %s, %v", resp.Status, err)
	}
	if len(batch.Results) != 2 || batch.Results[0].Error != "" {
		t.Fatalf("the drained request answered %+v, want two results", batch.Results)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	if took := time.Since(signalled); took > 2*time.Second {
		t.Fatalf("exited %v after SIGTERM, past a supervisor's 2 s SIGKILL", took)
	}
}

// TestSmokeBadInputsFail covers every misconfiguration exit: the daemon
// must die non-zero with a clear message, never hang or panic.
func TestSmokeBadInputsFail(t *testing.T) {
	bin := clitest.Build(t, "egoistd")
	dir := t.TempDir()
	selfPort := freeUDPPort(t)
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	selfRef := write("selfref.txt",
		fmt.Sprintf("0 127.0.0.1:%d\n1 127.0.0.1:%d\n", selfPort, selfPort))
	okRoster := write("ok.txt",
		fmt.Sprintf("0 127.0.0.1:%d\n1 127.0.0.1:%d\n", selfPort, freeUDPPort(t)))

	// A held socket makes the daemon's bind fail: it must exit, not hang.
	held, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	heldAddr := held.LocalAddr().String()
	heldRoster := write("held.txt",
		fmt.Sprintf("0 %s\n1 127.0.0.1:%d\n", heldAddr, freeUDPPort(t)))

	cases := []struct {
		name string
		args []string
	}{
		{"no id", []string{"-roster", okRoster}},
		{"id not in roster", []string{"-id", "9", "-roster", okRoster}},
		{"roster references itself", []string{"-id", "0", "-roster", selfRef}},
		{"missing roster file", []string{"-id", "0", "-roster", filepath.Join(dir, "nope.txt")}},
		{"bind in use (roster)", []string{"-id", "0", "-roster", heldRoster}},
		{"bind in use (pex)", []string{"-id", "0", "-n", "4", "-bind", heldAddr}},
		{"pex without bind", []string{"-id", "0", "-n", "4"}},
		{"pex without n", []string{"-id", "0", "-bind", "127.0.0.1:0"}},
		{"peers self-reference", []string{"-id", "0", "-n", "4", "-bind", "127.0.0.1:0", "-peers", "0@127.0.0.1:7000"}},
		{"peers bad syntax", []string{"-id", "0", "-n", "4", "-bind", "127.0.0.1:0", "-peers", "1=127.0.0.1:7000"}},
		{"bad oracle", []string{"-id", "0", "-n", "4", "-bind", "127.0.0.1:0", "-oracle", "heavy:3"}},
		{"bad oracle seed", []string{"-id", "0", "-n", "4", "-bind", "127.0.0.1:0", "-oracle", "lite:x"}},
	}
	for _, tc := range cases {
		cmd := exec.Command(bin, tc.args...)
		done := make(chan error, 1)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: exited zero, want failure", tc.name)
			}
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-done
			t.Errorf("%s: daemon hung instead of exiting", tc.name)
		}
	}
}
