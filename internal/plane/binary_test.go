package plane

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"egoist/internal/graph"
	"egoist/internal/obs"
)

// binPairs builds the test batch: valid pairs, a src==dst pair, and an
// out-of-range pair (answered in-band, status 2).
func binPairs(n int) []uint32 {
	return []uint32{
		0, uint32(n - 1),
		5, 7,
		9, 9,
		3, 0,
		uint32(n + 100), 2, // invalid src
		4, uint32(n + 5), // invalid dst
	}
}

// TestBinaryMatchesSnapshotAnswers: every binary result must carry
// exactly what the direct Snapshot API answers — costs bit-identical,
// paths element-identical, invalid pairs in-band with status 2 and the
// JSON -1 cost sentinel.
func TestBinaryMatchesSnapshotAnswers(t *testing.T) {
	srv, snap := testServer(t, 60, 4)
	n := snap.N()
	pairs := binPairs(n)

	for _, mode := range []byte{BinModeOneHop, BinModeRoute} {
		resp, err := srv.AnswerBinary(AppendBatchRequest(nil, mode, pairs), nil)
		if err != nil {
			t.Fatal(err)
		}
		epoch, results, err := DecodeBatchResponse(resp, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != snap.Epoch() {
			t.Fatalf("mode %d: epoch %d, want %d", mode, epoch, snap.Epoch())
		}
		if len(results) != len(pairs)/2 {
			t.Fatalf("mode %d: %d results for %d pairs", mode, len(results), len(pairs)/2)
		}
		for i, res := range results {
			src, dst := int(pairs[2*i]), int(pairs[2*i+1])
			if src >= n || dst >= n {
				if res.Status != BinInvalidPair || res.Cost != -1 {
					t.Fatalf("mode %d pair %d: invalid pair answered status=%d cost=%v, want status 2 cost -1", mode, i, res.Status, res.Cost)
				}
				continue
			}
			switch mode {
			case BinModeOneHop:
				d := snap.OneHop(src, dst)
				if d.Cost < graph.Inf {
					if res.Status != BinOK || res.Cost != d.Cost || int(res.Via) != d.Via {
						t.Fatalf("onehop pair %d: got (%d, %v, via %d), snapshot says (%v, via %d)", i, res.Status, res.Cost, res.Via, d.Cost, d.Via)
					}
				} else if res.Status != BinUnreachable || res.Cost != -1 {
					t.Fatalf("onehop pair %d: unreachable answered status=%d cost=%v", i, res.Status, res.Cost)
				}
			case BinModeRoute:
				r, ok := snap.Route(src, dst)
				if !ok {
					if res.Status != BinUnreachable || res.Cost != -1 || len(res.Path) != 0 {
						t.Fatalf("route pair %d: unreachable answered status=%d cost=%v path=%v", i, res.Status, res.Cost, res.Path)
					}
					continue
				}
				if res.Status != BinOK || res.Cost != r.Cost {
					t.Fatalf("route pair %d: got (%d, %v), snapshot says %v", i, res.Status, res.Cost, r.Cost)
				}
				if len(res.Path) != len(r.Path) {
					t.Fatalf("route pair %d: path %v, snapshot says %v", i, res.Path, r.Path)
				}
				for p := range r.Path {
					if int(res.Path[p]) != r.Path[p] {
						t.Fatalf("route pair %d: path %v, snapshot says %v", i, res.Path, r.Path)
					}
				}
			}
		}
	}

	// Counter contract across both batches: onehop tallied only for the
	// 4 delivered one-hop results, routes for the 4 delivered route
	// results, failed for the 2 invalid pairs in each batch.
	onehop, routes, failed := srv.Stats()
	if onehop != 4 || routes != 4 || failed != 4 {
		t.Fatalf("Stats() = (%d, %d, %d), want (4, 4, 4)", onehop, routes, failed)
	}
}

// TestBinaryDecodeRecyclesBuffers: feeding the previous results slice
// back into DecodeBatchResponse must reuse its Path storage.
func TestBinaryDecodeRecyclesBuffers(t *testing.T) {
	srv, snap := testServer(t, 60, 4)
	req := AppendBatchRequest(nil, BinModeRoute, []uint32{0, uint32(snap.N() - 1)})
	resp, err := srv.AnswerBinary(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, results, err := DecodeBatchResponse(resp, BinModeRoute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Status != BinOK || len(results[0].Path) == 0 {
		t.Fatalf("unexpected first decode: %+v", results)
	}
	before := &results[0].Path[0]
	_, results2, err := DecodeBatchResponse(resp, BinModeRoute, results)
	if err != nil {
		t.Fatal(err)
	}
	if &results2[0].Path[0] != before {
		t.Fatal("second decode reallocated the Path storage instead of recycling it")
	}
}

// TestBinaryMalformedRequests: short frames, bad modes, and
// count/length mismatches are protocol violations (non-nil error, no
// bytes appended), never panics or silent misparses.
func TestBinaryMalformedRequests(t *testing.T) {
	srv, _ := testServer(t, 20, 3)
	bad := [][]byte{
		{},                 // empty
		{0, 1, 0},          // shorter than the header
		{9, 9},             // shorter than the header, unknown mode byte
		{9, 0, 0, 0, 0},    // unknown mode
		{0, 2, 0, 0, 0},    // count 2, no pairs
		{1, 1, 0, 0, 0, 1}, // truncated pair
		AppendBatchRequest(nil, 0, make([]uint32, 2*(maxBatchPairs+1))), // over cap
	}
	for i, req := range bad {
		out, err := srv.AnswerBinary(req, nil)
		if err == nil {
			t.Fatalf("malformed request %d was answered", i)
		}
		if len(out) != 0 {
			t.Fatalf("malformed request %d appended %d bytes alongside the error", i, len(out))
		}
	}
	// Before the first publish: in-band batch-level error, nil error.
	empty := NewServer()
	resp, err := empty.AnswerBinary(AppendBatchRequest(nil, BinModeOneHop, []uint32{0, 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, derr := DecodeBatchResponse(resp, BinModeOneHop, nil); derr == nil || derr.Error() != ErrNoSnapshot.Error() {
		t.Fatalf("no-snapshot batch decoded to %v, want in-band %q", derr, ErrNoSnapshot)
	}
}

// TestBinaryTCPRoundTrip: the length-prefixed TCP transport end to end
// — ServeBinary + DialBinary — answers identically to the in-process
// API, across multiple frames on one connection.
func TestBinaryTCPRoundTrip(t *testing.T) {
	srv, snap := testServer(t, 60, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.ServeBinary(ln)

	client, err := DialBinary(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	n := snap.N()
	pairs := binPairs(n)
	rng := rand.New(rand.NewSource(9))
	var results []BinResult
	for frame := 0; frame < 20; frame++ {
		mode := byte(frame % 2)
		resp, err := client.Do(mode, pairs)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		epoch, rs, err := DecodeBatchResponse(resp, mode, results)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		results = rs
		if epoch != snap.Epoch() || len(rs) != len(pairs)/2 {
			t.Fatalf("frame %d: epoch %d, %d results", frame, epoch, len(rs))
		}
		src, dst := int(pairs[0]), int(pairs[1])
		if mode == BinModeOneHop && rs[0].Status == BinOK {
			if want := snap.OneHop(src, dst); rs[0].Cost != want.Cost {
				t.Fatalf("frame %d: pair (%d,%d) cost %v, snapshot says %v", frame, src, dst, rs[0].Cost, want.Cost)
			}
		}
		pairs[0], pairs[1] = uint32(rng.Intn(n)), uint32(rng.Intn(n))
	}
}

// TestBinaryListenerDeadlines: a peer that connects and sends nothing,
// and one that sends a frame header plus half the body, are both dropped
// by the server once the (shortened) deadline passes, while a
// well-behaved client on a third connection keeps getting answers.
func TestBinaryListenerDeadlines(t *testing.T) {
	const deadline = 200 * time.Millisecond
	srv, snap := testServer(t, 60, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.serveBinary(ln, maxBinConns, deadline, deadline)

	pairs := binPairs(snap.N())
	frame := AppendBatchRequest([]byte{0, 0, 0, 0}, BinModeOneHop, pairs)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	// dropped reports how a stalled peer's connection ended: the server
	// must close it (EOF) well before the peer's own patience runs out.
	dropped := func(send []byte) <-chan error {
		done := make(chan error, 1)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer conn.Close()
			if _, err := conn.Write(send); err != nil {
				done <- err
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(20 * deadline))
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				done <- fmt.Errorf("read ended with %v, want EOF from a server-side close", err)
				return
			}
			done <- nil
		}()
		return done
	}
	silent := dropped(nil)
	halfFrame := dropped(frame[:4+(len(frame)-4)/2])

	client, err := DialBinary(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	answered := 0
	for silent != nil || halfFrame != nil {
		select {
		case err := <-silent:
			if err != nil {
				t.Errorf("silent peer: %v", err)
			}
			silent = nil
		case err := <-halfFrame:
			if err != nil {
				t.Errorf("half-frame peer: %v", err)
			}
			halfFrame = nil
		default:
		}
		resp, err := client.Do(BinModeOneHop, pairs)
		if err != nil {
			t.Fatalf("well-behaved client, frame %d: %v", answered, err)
		}
		if _, rs, err := DecodeBatchResponse(resp, BinModeOneHop, nil); err != nil || len(rs) != len(pairs)/2 {
			t.Fatalf("well-behaved client, frame %d: %d results, %v", answered, len(rs), err)
		}
		answered++
		time.Sleep(deadline / 20)
	}
}

// TestBinaryListenerConnCap: with the cap at 2, a third connection is
// closed at accept (EOF, counted in plane_binary_conns_refused_total)
// while the first two keep answering, and once one of them closes a new
// connection is admitted.
func TestBinaryListenerConnCap(t *testing.T) {
	srv, snap := testServer(t, 60, 4)
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.serveBinary(ln, 2, binIdleTimeout, binFrameTimeout)

	pairs := binPairs(snap.N())
	answer := func(c *BinClient) error {
		resp, err := c.Do(BinModeOneHop, pairs)
		if err != nil {
			return err
		}
		_, rs, err := DecodeBatchResponse(resp, BinModeOneHop, nil)
		if err == nil && len(rs) != len(pairs)/2 {
			err = fmt.Errorf("%d results for %d pairs", len(rs), len(pairs)/2)
		}
		return err
	}
	var clients [2]*BinClient
	for i := range clients {
		if clients[i], err = DialBinary(ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		if err := answer(clients[i]); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	third, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	_ = third.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := third.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection over the cap: read ended with %v, want EOF", err)
	}
	for i, c := range clients {
		if err := answer(c); err != nil {
			t.Fatalf("client %d after the refusal: %v", i, err)
		}
	}
	var exposition bytes.Buffer
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	if got := obs.ParsePrometheus(exposition.Bytes())["plane_binary_conns_refused_total"]; got != 1 {
		t.Fatalf("plane_binary_conns_refused_total = %v, want 1", got)
	}

	// Freeing a slot admits the next connection (the server notices the
	// close asynchronously, so a dial may still land on the full cap).
	clients[0].Close()
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		c, err := DialBinary(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		err = answer(c)
		c.Close()
		if err == nil {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("no connection admitted after a slot was freed: %v", err)
		}
	}
	if err := answer(clients[1]); err != nil {
		t.Fatalf("client 1 after a slot was reused: %v", err)
	}
}

// TestBinaryShutdownDrains: ShutdownBinary closes the listener and a
// connection idle between frames at once, lets a connection whose
// frame has begun to arrive finish it and read the whole answer, and
// returns only after that. A frame that never finishes holds it until
// ctx ends.
func TestBinaryShutdownDrains(t *testing.T) {
	srv, snap := testServer(t, 60, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeBinary(ln) }()

	idle, err := DialBinary(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Do(BinModeRoute, binPairs(snap.N())); err != nil {
		t.Fatal(err)
	}
	// The client reads its answer before the server marks the
	// connection idle again: wait for that, so the one connection
	// answering below is mid.
	waitAnswering(t, srv, 0)
	// Half a frame: the server is answering it from its header on.
	frame := AppendBatchRequest([]byte{0, 0, 0, 0}, BinModeRoute, binPairs(snap.N()))
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	mid, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Close()
	if _, err := mid.Write(frame[:9]); err != nil {
		t.Fatal(err)
	}
	waitAnswering(t, srv, 1)

	shut := make(chan error, 1)
	go func() { shut <- srv.ShutdownBinary(context.Background()) }()
	_ = idle.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := idle.conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection: read ended with %v, want EOF", err)
	}
	if err := <-served; err == nil {
		t.Fatal("ServeBinary returned nil after the shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("ShutdownBinary returned (%v) with a frame still arriving", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := mid.Write(frame[9:]); err != nil {
		t.Fatal(err)
	}
	_ = mid.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := io.ReadAll(mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < 4 || int(binary.LittleEndian.Uint32(resp)) != len(resp)-4 {
		t.Fatalf("the drained frame's answer is %d bytes, not one whole frame", len(resp))
	}
	if _, rs, err := DecodeBatchResponse(resp[4:], BinModeRoute, nil); err != nil || len(rs) != len(binPairs(snap.N()))/2 {
		t.Fatalf("the drained frame's answer: %d results, %v", len(rs), err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("ShutdownBinary: %v", err)
	}

	// A frame that stalls keeps the drain waiting until ctx ends.
	srv2, _ := testServer(t, 60, 4)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.ServeBinary(ln2)
	stall, err := net.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	if _, err := stall.Write(frame[:9]); err != nil {
		t.Fatal(err)
	}
	waitAnswering(t, srv2, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv2.ShutdownBinary(ctx); err != context.DeadlineExceeded {
		t.Fatalf("ShutdownBinary with a stalled frame: %v, want the deadline", err)
	}

	// A coalesced burst in flight holds the drain until its one write
	// returns: over a pipe the server's write blocks until the client
	// reads, so the connection stays answering while the drain starts.
	srv3, snap3 := testServer(t, 60, 4)
	client, server := net.Pipe()
	defer client.Close()
	srv3.bin.track(server)
	go srv3.serveBinaryConn(server, binIdleTimeout, binFrameTimeout)
	burst, want := binBurst(t, srv3, snap3.N(), 5)
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitAnswering(t, srv3, 1)
	go func() { shut <- srv3.ShutdownBinary(context.Background()) }()
	select {
	case err := <-shut:
		t.Fatalf("ShutdownBinary returned (%v) with a coalesced write unread", err)
	case <-time.After(50 * time.Millisecond):
	}
	readAnswers(t, client, want)
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the drained burst: read ended with %v, want EOF", err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("ShutdownBinary after the burst: %v", err)
	}
}

// binBurst builds count frames of alternating mode, random pairs and
// an invalid pair, back to back as a client pipelines them, and the
// answer each gets alone.
func binBurst(t *testing.T, srv *Server, n, count int) (burst []byte, answers [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(count)))
	for f := 0; f < count; f++ {
		pairs := []uint32{uint32(n), 0}
		for p := 0; p < 8; p++ {
			pairs = append(pairs, uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		at := len(burst)
		burst = AppendBatchRequest(append(burst, 0, 0, 0, 0), byte(f%2), pairs)
		binary.LittleEndian.PutUint32(burst[at:], uint32(len(burst)-at-4))
		resp, err := srv.AnswerBinary(burst[at+4:], nil)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, resp)
	}
	return burst, answers
}

// readAnswers reads one length-prefixed answer per want, in order, and
// requires each to carry want's bytes.
func readAnswers(t *testing.T, conn net.Conn, want [][]byte) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for f, w := range want {
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("answer %d: %v", f, err)
		}
		got := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatalf("answer %d: %v", f, err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("answer %d: %d bytes, not the %d its frame gets alone", f, len(got), len(w))
		}
	}
}

// TestBinaryCoalescedWrites: frames a client sends in one write are
// answered in request order in one response write, each answer the
// bytes the same frame gets in a lone round trip; a frame of which only
// part has arrived does not hold back the answers before it; and a
// malformed frame after two good ones gets the two answers, then the
// in-band error, then a close. The connection runs over a pipe, whose
// one write reaches the server's reader in one read.
func TestBinaryCoalescedWrites(t *testing.T) {
	srv, snap := testServer(t, 60, 4)
	serve := func() net.Conn {
		client, server := net.Pipe()
		t.Cleanup(func() { client.Close() })
		srv.bin.track(server)
		go srv.serveBinaryConn(server, binIdleTimeout, binFrameTimeout)
		return client
	}
	client := serve()
	burst, want := binBurst(t, srv, snap.N(), 6)
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, client, want)
	if got := srv.binWrites.Load(); got != 1 {
		t.Fatalf("6 pipelined frames took %d writes, want 1", got)
	}
	// The same frames one at a time: one write each, the same bytes.
	for at, f := 0, 0; at < len(burst); f++ {
		end := at + 4 + int(binary.LittleEndian.Uint32(burst[at:]))
		if _, err := client.Write(burst[at:end]); err != nil {
			t.Fatal(err)
		}
		readAnswers(t, client, want[f:f+1])
		at = end
	}
	if got := srv.binWrites.Load(); got != 7 {
		t.Fatalf("6 lone frames after the burst: %d writes in all, want 7", got)
	}

	// One whole frame and the first 9 bytes of the next: the first
	// answer comes without the rest, the second once it arrives.
	first := 4 + int(binary.LittleEndian.Uint32(burst))
	second := first + 4 + int(binary.LittleEndian.Uint32(burst[first:]))
	if _, err := client.Write(burst[:first+9]); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, client, want[:1])
	if _, err := client.Write(burst[first+9 : second]); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, client, want[1:2])

	// Two good frames, then one with an unknown mode, in one write.
	bad := AppendBatchRequest([]byte{0, 0, 0, 0}, 9, []uint32{1, 2})
	binary.LittleEndian.PutUint32(bad, uint32(len(bad)-4))
	client = serve()
	writes := srv.binWrites.Load()
	if _, err := client.Write(append(burst[:second:second], bad...)); err != nil {
		t.Fatal(err)
	}
	readAnswers(t, client, want[:2])
	var hdr [4]byte
	if _, err := io.ReadFull(client, hdr[:]); err != nil {
		t.Fatal(err)
	}
	errFrame := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(client, errFrame); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBatchResponse(errFrame, BinModeOneHop, nil); err == nil || !strings.Contains(err.Error(), "unknown binary mode") {
		t.Fatalf("the malformed frame's answer decodes to %v, want the in-band mode error", err)
	}
	if _, err := client.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the in-band error: read ended with %v, want EOF", err)
	}
	if got := srv.binWrites.Load() - writes; got != 1 {
		t.Fatalf("two answers and an error took %d writes, want 1", got)
	}
}

// waitAnswering waits until want of srv's binary connections are
// answering a frame.
func waitAnswering(t *testing.T, srv *Server, want int) {
	t.Helper()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		srv.bin.mu.Lock()
		got := 0
		for _, busy := range srv.bin.conns {
			if busy {
				got++
			}
		}
		srv.bin.mu.Unlock()
		if got == want {
			return
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("%d connections answering, want %d", got, want)
		}
	}
}
