package plane

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// The compact binary batch protocol — the production-rate alternative
// to the JSON endpoints, answered through the same batch pipeline
// (batch.go). One request/response exchange carries one batch,
// answered from one snapshot (one consistent epoch). It is served over
// raw TCP (Server.ServeBinary / DialBinary), every payload
// length-prefixed:
//
//	u32  payload length (little-endian, max 1 MiB requests)
//	...  payload
//
// Request payload:
//
//	u8   mode: 0 = onehop, 1 = route
//	u32  pair count (max 10000, the JSON batch's cap too)
//	pair count × (u32 src, u32 dst)
//
// Response payload:
//
//	u8   status: 0 = batch answered, 1 = batch-level error
//	status 1: u16 message length, message bytes — e.g. no snapshot
//	status 0: i64 epoch, u32 result count, then per result:
//	  u8  result status: 0 = ok, 1 = unreachable, 2 = invalid pair
//	  f64 cost (-1 unless ok — the JSON encoding's sentinel, kept
//	      so the two protocols answer bit-identically)
//	  mode onehop: i32 via (-1 = direct underlay path)
//	  mode route:  u32 path length (0 unless ok), then path × u32
//
// Invalid pairs are answered in-band (result status 2), exactly like
// the JSON batch endpoint: a tallied query is a delivered result.
const (
	BinModeOneHop byte = 0
	BinModeRoute  byte = 1

	// Per-result statuses.
	BinOK          byte = 0
	BinUnreachable byte = 1
	BinInvalidPair byte = 2

	// Batch-level response statuses.
	binRespOK  byte = 0
	binRespErr byte = 1

	// maxBinRespBytes bounds what DialBinary clients will buffer for
	// one response (route mode paths can legitimately dwarf the
	// request).
	maxBinRespBytes = 64 << 20
)

// AppendBatchRequest appends the binary request payload for one batch
// to dst and returns the extended slice. pairs holds src,dst
// alternating (so len(pairs) must be even); the caller may reuse both
// slices across calls.
func AppendBatchRequest(dst []byte, mode byte, pairs []uint32) []byte {
	dst = append(dst, mode)
	dst = appendU32(dst, uint32(len(pairs)/2))
	for _, v := range pairs {
		dst = appendU32(dst, v)
	}
	return dst
}

// BinResult is one decoded result of a binary batch response.
type BinResult struct {
	Status byte
	Cost   float64
	Via    int32    // onehop mode: chosen relay, -1 = direct
	Path   []uint32 // route mode: src..dst inclusive when Status == BinOK
}

// DecodeBatchResponse decodes a binary batch response payload. buf is
// recycled (its entries' Path storage included) so a client loop that
// feeds the previous call's results back in approaches zero
// allocations. A batch-level error payload is returned as a non-nil
// error carrying the server's message.
func DecodeBatchResponse(payload []byte, mode byte, buf []BinResult) (epoch int64, results []BinResult, err error) {
	if len(payload) < 1 {
		return 0, nil, errors.New("plane: empty binary response")
	}
	if payload[0] == binRespErr {
		if len(payload) < 3 {
			return 0, nil, errors.New("plane: truncated binary error response")
		}
		n := int(binary.LittleEndian.Uint16(payload[1:3]))
		if len(payload) < 3+n {
			return 0, nil, errors.New("plane: truncated binary error response")
		}
		return 0, nil, errors.New(string(payload[3 : 3+n]))
	}
	if payload[0] != binRespOK || len(payload) < 13 {
		return 0, nil, fmt.Errorf("plane: bad binary response header")
	}
	epoch = int64(binary.LittleEndian.Uint64(payload[1:9]))
	count := int(binary.LittleEndian.Uint32(payload[9:13]))
	results = buf[:0]
	off := 13
	for i := 0; i < count; i++ {
		if off+13 > len(payload) {
			return 0, nil, fmt.Errorf("plane: truncated result %d of %d", i, count)
		}
		var res BinResult
		if cap(buf) > i {
			res = buf[:cap(buf)][i] // recycle the old Path storage
		}
		res.Status = payload[off]
		res.Cost = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+1 : off+9]))
		word := binary.LittleEndian.Uint32(payload[off+9 : off+13]) // via, or path length
		off += 13
		switch mode {
		case BinModeOneHop:
			res.Via = int32(word)
		case BinModeRoute:
			plen := int(word)
			if off+4*plen > len(payload) {
				return 0, nil, fmt.Errorf("plane: truncated path in result %d", i)
			}
			res.Path = res.Path[:0]
			for p := 0; p < plen; p++ {
				res.Path = append(res.Path, binary.LittleEndian.Uint32(payload[off+4*p:]))
			}
			off += 4 * plen
		default:
			return 0, nil, fmt.Errorf("plane: unknown binary mode %d", mode)
		}
		results = append(results, res)
	}
	if off != len(payload) {
		return 0, nil, fmt.Errorf("plane: %d trailing bytes in binary response", len(payload)-off)
	}
	return epoch, results, nil
}

// AnswerBinary answers one binary batch request payload from the
// current snapshot, appending the response payload to dst (pass the
// previous call's response[:0] to reuse storage: the answer loop then
// allocates nothing). Before the first Publish the refusal is in-band
// (an error payload, nil error); a malformed request returns a non-nil
// error and appends nothing, a protocol violation to transports.
func (s *Server) AnswerBinary(req, dst []byte) ([]byte, error) {
	mode, count, bad := byte(0), 0, error(nil)
	if len(req) < 5 {
		bad = fmt.Errorf("plane: binary request of %d bytes is shorter than its header", len(req))
	} else if mode, count = req[0], int(binary.LittleEndian.Uint32(req[1:5])); len(req) != 5+8*count {
		bad = fmt.Errorf("plane: binary request length %d does not match %d pairs", len(req), count)
	}
	snap, _, err := s.admitBatch(mode, count, bad)
	if errors.Is(err, ErrNoSnapshot) {
		return appendBinError(dst, err.Error()), nil
	}
	if err != nil {
		return dst, err
	}
	b := s.newBatch(snap, mode, count)
	for i := range b.slots {
		b.pair(i, int(binary.LittleEndian.Uint32(req[5+8*i:])), int(binary.LittleEndian.Uint32(req[9+8*i:])))
	}
	b.answer()
	dst = b.appendBinary(dst)
	b.done()
	return dst, nil
}

// Bounds of the raw-TCP listener. The deadlines are the two the HTTP
// side uses (obs.NewHTTPServer), so a peer that connects and stalls,
// sends half a frame or never reads its response cannot hold a
// goroutine and two buffers for ever: a connection may sit idle between
// frames for binIdleTimeout, and once a frame's header has arrived its
// body must follow and its response be taken within binFrameTimeout.
// At most maxBinConns connections are served at once (each holds a
// goroutine and a 64 KiB reader); one accepted over the cap is closed
// at once and counted in plane_binary_conns_refused_total. The answers
// to frames a client pipelined go out together, in one write of at most
// maxBinWriteBytes plus the last frame's answer.
const (
	binIdleTimeout   = 2 * time.Minute
	binFrameTimeout  = 5 * time.Second
	maxBinConns      = 1024
	maxBinWriteBytes = 64 << 10
)

// ServeBinary serves the length-prefixed binary batch protocol on ln
// until Accept fails or ShutdownBinary closes ln; the error that
// stopped the accept loop is returned.
func (s *Server) ServeBinary(ln net.Listener) error {
	return s.serveBinary(ln, maxBinConns, binIdleTimeout, binFrameTimeout)
}

// serveBinary is ServeBinary's accept loop with its bounds as
// parameters, so the tests can lower them.
func (s *Server) serveBinary(ln net.Listener, maxConns int, idle, frame time.Duration) error {
	if !s.bin.listen(ln) {
		ln.Close()
		return net.ErrClosed
	}
	defer s.bin.unlisten(ln)
	slots := make(chan struct{}, maxConns)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		select {
		case slots <- struct{}{}:
		default:
			s.binRefused.Add(1)
			conn.Close()
			continue
		}
		if !s.bin.track(conn) {
			<-slots
			conn.Close()
			continue
		}
		go func() {
			defer func() { <-slots }()
			s.serveBinaryConn(conn, idle, frame)
		}()
	}
}

// serveBinaryConn answers frames on one connection until read error, a
// missed deadline, a protocol violation or ShutdownBinary. Once a
// frame's header has arrived it answers that frame and then every
// further frame already whole in the reader — never reading the socket
// to look for one, so half a frame cannot hold back answers computed
// before it — and sends the answers, in request order, in one write.
// Request and response buffers are reused across frames, so a
// steady-state connection allocates nothing per batch.
func (s *Server) serveBinaryConn(conn net.Conn, idle, frame time.Duration) {
	defer s.bin.untrack(conn)
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var req, resp []byte
	for {
		if conn.SetReadDeadline(time.Now().Add(idle)) != nil {
			return
		}
		if _, err := br.Peek(4); err != nil {
			return
		}
		if !s.bin.answering(conn, true) {
			return
		}
		if conn.SetDeadline(time.Now().Add(frame)) != nil {
			return
		}
		ok, more := true, true
		for resp = resp[:0]; ok && more; {
			req, resp, ok = s.answerFrame(br, req, resp)
			// Another frame goes in this write only if it is whole in br.
			hdr, _ := br.Peek(min(4, br.Buffered()))
			more = len(hdr) == 4 && 4+int(binary.LittleEndian.Uint32(hdr)) <= br.Buffered() && len(resp) < maxBinWriteBytes
		}
		if len(resp) > 0 {
			s.binWrites.Add(1)
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
		if !ok || !s.bin.answering(conn, false) {
			return
		}
	}
}

// answerFrame reads one frame from br and appends its length-prefixed
// answer to resp. ok is false when the connection must end: the read
// failed or the frame is over the size cap (nothing appended), or the
// request is malformed — a protocol violation, answered in-band, after
// which framing can no longer be trusted.
func (s *Server) answerFrame(br *bufio.Reader, req, resp []byte) (_, _ []byte, ok bool) {
	hdr, err := br.Peek(4)
	if err != nil {
		return req, resp, false
	}
	frameLen := int(binary.LittleEndian.Uint32(hdr))
	if frameLen > maxBatchBytes {
		// Refused whole and counted like any batch; its body is never
		// read, so the connection ends unanswered.
		_, _, _ = s.admitBatch(BinModeOneHop, 0, errors.New("plane: binary frame over the byte cap"))
		return req, resp, false
	}
	_, _ = br.Discard(4)
	if cap(req) < frameLen {
		req = make([]byte, frameLen)
	}
	req = req[:frameLen]
	if _, err := io.ReadFull(br, req); err != nil {
		return req, resp, false
	}
	at := len(resp)
	out, err := s.AnswerBinary(req, append(resp, 0, 0, 0, 0))
	if err != nil {
		out = appendBinError(out, err.Error())
	}
	binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
	return req, out, err == nil
}

// binTracker is the binary listeners' and connections' book for
// ShutdownBinary. A connection is idle while it waits for a frame's
// header and answering from the header on until its response is
// written.
type binTracker struct {
	mu      sync.Mutex
	closing bool
	lns     map[net.Listener]struct{}
	conns   map[net.Conn]bool // true while answering
	drained chan struct{}     // closed once closing and no connection is left
}

// listen records ln; false once shut down.
func (t *binTracker) listen(ln net.Listener) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		return false
	}
	if t.lns == nil {
		t.lns = make(map[net.Listener]struct{})
	}
	t.lns[ln] = struct{}{}
	return true
}

func (t *binTracker) unlisten(ln net.Listener) {
	t.mu.Lock()
	delete(t.lns, ln)
	t.mu.Unlock()
}

// track records a new, idle connection; false once shut down.
func (t *binTracker) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closing {
		return false
	}
	if t.conns == nil {
		t.conns = make(map[net.Conn]bool)
	}
	t.conns[conn] = false
	return true
}

// untrack forgets a connection that has ended.
func (t *binTracker) untrack(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	if t.closing && len(t.conns) == 0 {
		close(t.drained)
	}
	t.mu.Unlock()
}

// answering marks conn answering (a frame's header has arrived) or
// idle again (its response is written). It reports false once shut
// down: the connection then ends, after the frame it was answering.
func (t *binTracker) answering(conn net.Conn, yes bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.conns[conn] = yes
	return !t.closing
}

// ShutdownBinary drains the binary listeners: it closes every listener
// ServeBinary runs on and every connection waiting for its next frame,
// lets each connection answering a frame finish it and write the
// response, and returns once every connection has ended — or ctx's
// error when ctx ends first. Later ServeBinary calls and connections
// are refused.
func (s *Server) ShutdownBinary(ctx context.Context) error {
	t := &s.bin
	t.mu.Lock()
	if !t.closing {
		t.closing = true
		t.drained = make(chan struct{})
		for ln := range t.lns {
			ln.Close()
		}
		for conn, busy := range t.conns {
			if !busy {
				conn.Close()
			}
		}
		if len(t.conns) == 0 {
			close(t.drained)
		}
	}
	drained := t.drained
	t.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BinClient is a client connection to Server.ServeBinary: one
// request/response exchange per Do call, buffers reused throughout.
// Not safe for concurrent use — keep one client per worker.
type BinClient struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	resp []byte
}

// DialBinary connects to a Server.ServeBinary listener.
func DialBinary(addr string) (*BinClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &BinClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// Close closes the connection.
func (c *BinClient) Close() error { return c.conn.Close() }

// Do sends one batch (pairs holds src,dst alternating) and returns the
// response payload, valid until the next Do. Decode it with
// DecodeBatchResponse.
func (c *BinClient) Do(mode byte, pairs []uint32) ([]byte, error) {
	c.req = append(c.req[:0], 0, 0, 0, 0)
	c.req = AppendBatchRequest(c.req, mode, pairs)
	binary.LittleEndian.PutUint32(c.req[:4], uint32(len(c.req)-4))
	if _, err := c.conn.Write(c.req); err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.br, lenBuf[:]); err != nil {
		return nil, err
	}
	respLen := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if respLen > maxBinRespBytes {
		return nil, fmt.Errorf("plane: %d-byte binary response exceeds the %d cap", respLen, maxBinRespBytes)
	}
	if cap(c.resp) < respLen {
		c.resp = make([]byte, respLen)
	}
	c.resp = c.resp[:respLen]
	if _, err := io.ReadFull(c.br, c.resp); err != nil {
		return nil, err
	}
	return c.resp, nil
}

// appendBinError appends a batch-level error response payload.
func appendBinError(dst []byte, msg string) []byte {
	if len(msg) > 0xFFFF {
		msg = msg[:0xFFFF]
	}
	dst = append(dst, binRespErr)
	dst = append(dst, byte(len(msg)), byte(len(msg)>>8))
	return append(dst, msg...)
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}
