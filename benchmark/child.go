package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildRoute compiles cmd/egoist-route from the checkout's own source
// into the out directory. The go tool skips the link when the binary
// is current, so repeating the call is cheap after the first.
func buildRoute(root, out string) (string, error) {
	bin := filepath.Join(out, "egoist-route")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/egoist-route")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/egoist-route: %v\n%s", err, msg)
	}
	return bin, nil
}

// routeChild is a running egoist-route serving the fixture on
// ephemeral loopback ports.
type routeChild struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	stderr   bytes.Buffer
	timer    *time.Timer
	once     sync.Once
	drained  chan struct{}
}

// startRoute launches the server in a process group of its own and
// waits until it answers /snapshot with a published snapshot. The
// group is killed when deadline passes, whatever the harness is doing
// by then.
func startRoute(bin, fixture string, deadline time.Duration) (*routeChild, error) {
	c := &routeChild{drained: make(chan struct{})}
	c.cmd = exec.Command(bin, "-wiring", fixture, "-cores", "1",
		"-http", "127.0.0.1:0", "-binary", "127.0.0.1:0")
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	c.timer = time.AfterFunc(deadline, c.kill)
	// The listen addresses are the two "serving ..." lines.
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(c.drained)
		var a [2]string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 && a[0] == "" {
				a[0] = strings.TrimSpace(line[i+len("http://"):])
			}
			if i := strings.Index(line, "tcp://"); i >= 0 && a[1] == "" {
				a[1] = strings.TrimSpace(line[i+len("tcp://"):])
				addrs <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addrs:
		c.httpAddr, c.binAddr = a[0], a[1]
	case <-c.drained:
		c.stop()
		return nil, fmt.Errorf("egoist-route exited before announcing its ports: %s", c.stderr.String())
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("egoist-route announced no ports within 30 s: %s", c.stderr.String())
	}
	if c.httpAddr == "" {
		c.stop()
		return nil, fmt.Errorf("egoist-route announced no HTTP address")
	}
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 30*time.Second {
			c.stop()
			return nil, fmt.Errorf("egoist-route not ready on /snapshot within 30 s")
		}
		resp, err := http.Get("http://" + c.httpAddr + "/snapshot")
		if err != nil {
			continue
		}
		var info struct {
			Published bool `json:"published"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err == nil && info.Published {
			return c, nil
		}
	}
}

func (c *routeChild) pid() int { return c.cmd.Process.Pid }

func (c *routeChild) kill() {
	// Negative pid: the whole process group.
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
}

// stop ends the child — SIGTERM, then SIGKILL after two seconds — and
// returns once it has been reaped. Safe to call more than once.
func (c *routeChild) stop() {
	c.once.Do(func() {
		c.timer.Stop()
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGTERM)
		hard := time.AfterFunc(2*time.Second, c.kill)
		<-c.drained
		_ = c.cmd.Wait() // killed or terminated by us: the status says nothing
		hard.Stop()
	})
}

// scrape fetches the child's /metrics exposition.
func (c *routeChild) scrape() ([]byte, error) {
	resp, err := http.Get("http://" + c.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}
