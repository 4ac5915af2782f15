package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/rpc"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/core"
)

// Binary data-plane protocol. The hot calls — client batch submission,
// hop-to-hop Forward, analyzer Ingest — all move one core.Batch plus a
// (stream, seq-or-epoch) dedup stamp and get back an accepted count or an
// error string. Each is one frame around the batch codec from
// internal/core:
//
//	request  frame: uvarint len | body
//	  body:  uvarint reqID | method byte | varint stream | varint pos |
//	         batch (kind byte, uvarint count, walwire items) | crc32 (LE)
//	reply    frame: uvarint len | body
//	  body:  uvarint reqID | status byte | varint accepted (status 0)
//	         or uvarint msglen + msg (status 1) | crc32 (LE)
//
// The CRC covers the body up to itself (IEEE, like the WAL records). A
// frame that fails the CRC, truncates, or exceeds maxWireFrame kills the
// connection — the sender's redial machinery treats that as the transient
// connection failure it is.
//
// Requests are pipelined: a connection carries any number of in-flight
// requests, correlated by reqID, and replies may arrive out of order (the
// server handles each frame in its own goroutine). Server errors travel as
// strings and surface as rpc.ServerError, so IsEpochFull and IsTransient
// treat them exactly like control-plane errors.
//
// One listener serves both planes: a data-plane client opens with a 4-byte
// magic whose first byte (0x00) is impossible as the opening byte of a gob
// stream, and the server peeks it — a match serves binary frames, anything
// else hands the connection (peeked bytes included) to net/rpc, which
// carries the control RPCs (Keys, Healthz, Stats, Drain, Attestation,
// Histogram). The server acks the magic; a dialer that gets no ack fails
// with an ordinary connection error.

// DefaultWireTimeout bounds one data-plane call end to end: a peer that
// accepted the connection but never answers (hung process, black-holed
// route) fails the call with a deadline error — transient, so the pusher
// redials — instead of blocking its flusher goroutine forever.
const DefaultWireTimeout = 2 * time.Minute

// wireIOTimeout bounds individual frame reads and writes once a frame has
// started (a mid-frame stall is a torn frame, not patience), while idle
// connections wait for the next frame without any deadline.
const wireIOTimeout = 30 * time.Second

// maxWireFrame caps a frame body; anything larger is corruption, not data.
const maxWireFrame = 1 << 30

// Data-plane method ids. The three shuffler methods share one handler (the
// batch kind, not the method, decides what a shuffler accepts); they stay
// distinct ids so the frame format is unchanged.
const (
	wireSubmitBatch   = 1 // client envelopes into a plain/SGX shuffler
	wireSubmitBlinded = 2 // client blinded envelopes into shuffler1
	wireForward       = 3 // an upstream hop's processed epoch
	wireIngest        = 4 // peeled payloads into an analyzer
)

// wireMagic opens a binary connection; wireMagicAck confirms it. The 0x00
// lead byte can never open a gob stream (gob's first byte is a nonzero
// message length), which is what lets one listener serve both planes.
var (
	wireMagic    = [4]byte{0x00, 'P', 'W', '1'}
	wireMagicAck = [4]byte{0x00, 'P', 'A', '1'}
)

// framePool recycles frame encode buffers so a steady-state push allocates
// nothing for its marshal: the arena grows to the fleet's epoch size and is
// reused across pushes and connections.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// appendFrame prefixes body (built at buf[frameHeaderMax:]) with its uvarint
// length so the whole frame is one contiguous write. It returns the frame
// slice within buf.
const frameHeaderMax = binary.MaxVarintLen64

func finishFrame(buf []byte) []byte {
	body := buf[frameHeaderMax:]
	var hdr [frameHeaderMax]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	copy(buf[frameHeaderMax-n:], hdr[:n])
	return buf[frameHeaderMax-n:]
}

// appendCRC seals a frame body with its checksum.
func appendCRC(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body[frameHeaderMax:])
	return binary.LittleEndian.AppendUint32(body, sum)
}

// checkCRC verifies and strips a received body's trailing checksum.
func checkCRC(body []byte) ([]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("transport: wire frame too short for checksum")
	}
	data, tail := body[:len(body)-4], body[len(body)-4:]
	if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("transport: wire frame checksum mismatch")
	}
	return data, nil
}

// frameReadChunk is the most body buffer readFrame allocates before any of
// the body has arrived. The declared length of a frame is only a claim until
// the bytes come in, so a larger frame's buffer then at most doubles per
// step as they do. The size covers a fleet's epoch pushes in one exact
// allocation.
const frameReadChunk = 1 << 20

// readFrame reads one length-prefixed frame body. The wait for the first
// length byte is unbounded (idle connections are normal); once a frame has
// begun, the remainder must arrive within wireIOTimeout or the read fails —
// a torn frame from a hung peer becomes an error instead of a stuck
// goroutine.
func readFrame(br *bufio.Reader, conn net.Conn) ([]byte, error) {
	if _, err := br.Peek(1); err != nil {
		return nil, err
	}
	if err := conn.SetReadDeadline(time.Now().Add(wireIOTimeout)); err != nil {
		return nil, err
	}
	defer conn.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("transport: wire frame length: %w", err)
	}
	if n > maxWireFrame {
		return nil, fmt.Errorf("transport: wire frame of %d bytes exceeds limit", n)
	}
	// A fresh buffer per frame: the decoded batch aliases it, so it is
	// handed over with the items rather than pooled and reused. It grows
	// only as body bytes arrive (at most frameReadChunk, or its own size,
	// ahead of them), so a header that merely claims a huge frame costs the
	// sender the bytes, not the server the allocation.
	// The growth is an explicit make and copy rather than slices.Grow,
	// whose append-of-make allocates twice when the compiler instruments
	// for the race detector.
	var body []byte
	for uint64(len(body)) < n {
		got := len(body)
		grown := make([]byte, min(n, uint64(got+max(got, frameReadChunk))))
		copy(grown, body)
		body = grown
		if _, err := io.ReadFull(br, body[got:]); err != nil {
			return nil, fmt.Errorf("transport: wire frame body: %w", err)
		}
	}
	return checkCRC(body)
}

// writeFrame writes one already-finished frame under a write deadline.
func writeFrame(conn net.Conn, frame []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(wireIOTimeout)); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	return err
}

// encodeRequest marshals one data-plane call into a pooled frame buffer.
func encodeRequest(buf []byte, reqID uint64, method uint8, stream, pos int64, b core.Batch) []byte {
	buf = buf[:frameHeaderMax]
	buf = binary.AppendUvarint(buf, reqID)
	buf = append(buf, method)
	buf = binary.AppendVarint(buf, stream)
	buf = binary.AppendVarint(buf, pos)
	buf = core.AppendBatch(buf, b)
	return appendCRC(buf)
}

// wireRequest is a parsed request frame; the batch aliases the frame buffer.
type wireRequest struct {
	reqID  uint64
	method uint8
	stream int64
	pos    int64
	batch  core.Batch
}

func parseRequest(body []byte) (wireRequest, error) {
	var req wireRequest
	var k int
	req.reqID, k = binary.Uvarint(body)
	if k <= 0 {
		return req, fmt.Errorf("transport: wire request id: corrupt varint")
	}
	body = body[k:]
	if len(body) == 0 {
		return req, fmt.Errorf("transport: wire request truncated before method")
	}
	req.method, body = body[0], body[1:]
	if req.stream, k = binary.Varint(body); k <= 0 {
		return req, fmt.Errorf("transport: wire request stream: corrupt varint")
	}
	body = body[k:]
	if req.pos, k = binary.Varint(body); k <= 0 {
		return req, fmt.Errorf("transport: wire request pos: corrupt varint")
	}
	body = body[k:]
	batch, rest, err := core.DecodeBatchAlias(body)
	if err != nil {
		return req, err
	}
	if len(rest) != 0 {
		return req, fmt.Errorf("transport: wire request has %d trailing bytes", len(rest))
	}
	req.batch = batch
	return req, nil
}

// encodeReply marshals one reply into a pooled frame buffer.
func encodeReply(buf []byte, reqID uint64, accepted int, errMsg string, isErr bool) []byte {
	buf = buf[:frameHeaderMax]
	buf = binary.AppendUvarint(buf, reqID)
	if isErr {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(errMsg)))
		buf = append(buf, errMsg...)
	} else {
		buf = append(buf, 0)
		buf = binary.AppendVarint(buf, int64(accepted))
	}
	return appendCRC(buf)
}

// wireResult is one decoded reply, delivered to the waiting call.
type wireResult struct {
	accepted int
	err      error
}

func parseReply(body []byte) (reqID uint64, res wireResult, err error) {
	var k int
	reqID, k = binary.Uvarint(body)
	if k <= 0 {
		return 0, res, fmt.Errorf("transport: wire reply id: corrupt varint")
	}
	body = body[k:]
	if len(body) == 0 {
		return 0, res, fmt.Errorf("transport: wire reply truncated before status")
	}
	status, body := body[0], body[1:]
	switch status {
	case 0:
		n, k := binary.Varint(body)
		if k <= 0 {
			return 0, res, fmt.Errorf("transport: wire reply accepted: corrupt varint")
		}
		res.accepted = int(n)
	case 1:
		msg, _, cerr := consumeWireBytes(body)
		if cerr != nil {
			return 0, res, fmt.Errorf("transport: wire reply error text: %w", cerr)
		}
		// The same string-typed error net/rpc delivers, so IsEpochFull's
		// string match and IsTransient's "server errors are not transient"
		// rule hold across protocols.
		res.err = rpc.ServerError(msg)
	default:
		return 0, res, fmt.Errorf("transport: wire reply status 0x%02x", status)
	}
	return reqID, res, nil
}

// consumeWireBytes reads one uvarint-length-prefixed field.
func consumeWireBytes(b []byte) (string, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return "", nil, fmt.Errorf("corrupt length prefix")
	}
	return string(b[k : k+int(n)]), b[k+int(n):], nil
}

// wireConn is one negotiated binary connection: safe for concurrent calls,
// which pipeline — each call writes its frame under the write lock and
// parks on its reqID while the reader goroutine dispatches replies in
// whatever order the server finishes them.
type wireConn struct {
	conn    net.Conn
	timeout time.Duration // per-call bound; <= 0 disables

	wmu sync.Mutex // serializes frame writes

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan wireResult
	broken  error // set once the connection is unusable; fails new calls fast
}

// dialWire dials addr and negotiates a binary connection. Every failure —
// the dial, the magic write, a missing or wrong ack — is a connection-level
// error that IsTransient recognizes, so the caller's redial machinery
// retries it like any other dead peer.
func dialWire(addr string, dialTimeout, callTimeout time.Duration) (*wireConn, error) {
	if dialTimeout <= 0 {
		dialTimeout = DefaultDialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if err := handshake(conn, dialTimeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: wire handshake with %s: %w", addr, err)
	}
	wc := &wireConn{conn: conn, timeout: callTimeout, pending: make(map[uint64]chan wireResult)}
	go wc.readLoop()
	return wc, nil
}

// handshake sends the magic and waits for the ack, bounded by timeout.
func handshake(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write(wireMagic[:]); err != nil {
		return err
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	if ack != wireMagicAck {
		return fmt.Errorf("bad ack % x: %w", ack, io.ErrUnexpectedEOF)
	}
	return conn.SetDeadline(time.Time{})
}

// readLoop dispatches reply frames to their waiting calls until the
// connection dies, then fails every in-flight call with the (transient)
// connection error.
func (w *wireConn) readLoop() {
	br := bufio.NewReaderSize(w.conn, 32<<10)
	for {
		body, err := readFrame(br, w.conn)
		if err != nil {
			w.fail(err)
			return
		}
		reqID, res, err := parseReply(body)
		if err != nil {
			w.fail(err)
			return
		}
		w.mu.Lock()
		ch := w.pending[reqID]
		delete(w.pending, reqID)
		w.mu.Unlock()
		if ch != nil {
			ch <- res
		}
	}
}

// fail marks the connection broken and unblocks every pending call with a
// transient error, so redial machinery takes over.
func (w *wireConn) fail(cause error) {
	err := fmt.Errorf("transport: wire connection: %w", cause)
	w.mu.Lock()
	if w.broken == nil {
		w.broken = err
	}
	pending := w.pending
	w.pending = make(map[uint64]chan wireResult)
	w.mu.Unlock()
	w.conn.Close()
	for _, ch := range pending {
		ch <- wireResult{err: fmt.Errorf("%w (%v)", io.ErrUnexpectedEOF, err)}
	}
}

// call issues one pipelined data-plane request and waits for its reply. A
// call that outlives the configured timeout kills the connection (the only
// way to unstick a hung peer) and returns a deadline error, which
// IsTransient recognizes.
func (w *wireConn) call(method uint8, stream, pos int64, b core.Batch) (int, error) {
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		return 0, fmt.Errorf("%w (%v)", io.ErrUnexpectedEOF, err)
	}
	id := w.nextID.Add(1)
	ch := make(chan wireResult, 1)
	w.pending[id] = ch
	w.mu.Unlock()

	bufp := framePool.Get().(*[]byte)
	frame := finishFrame(encodeRequest(*bufp, id, method, stream, pos, b))
	w.wmu.Lock()
	err := writeFrame(w.conn, frame)
	w.wmu.Unlock()
	if cap(frame) > cap(*bufp) {
		*bufp = frame[:0]
	}
	framePool.Put(bufp)
	if err != nil {
		w.mu.Lock()
		delete(w.pending, id)
		w.mu.Unlock()
		w.fail(err)
		return 0, fmt.Errorf("%w (%v)", io.ErrUnexpectedEOF, err)
	}

	if w.timeout <= 0 {
		res := <-ch
		return res.accepted, res.err
	}
	timer := time.NewTimer(w.timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.accepted, res.err
	case <-timer.C:
		// Deregister first so fail does not overwrite this call's outcome
		// with the generic broken-connection error; the deadline is the
		// truthful cause here.
		w.mu.Lock()
		delete(w.pending, id)
		w.mu.Unlock()
		w.fail(os.ErrDeadlineExceeded)
		// The reply may have raced the deregistration; prefer it if so. The
		// buffered channel keeps the racing sender unblocked either way.
		select {
		case res := <-ch:
			return res.accepted, res.err
		default:
		}
		return 0, fmt.Errorf("transport: wire call timed out after %v: %w", w.timeout, os.ErrDeadlineExceeded)
	}
}

// close tears the connection down, failing any in-flight calls.
func (w *wireConn) close() { w.fail(errors.New("connection closed")) }

// isBroken reports whether the connection has failed and should be
// replaced rather than reused.
func (w *wireConn) isBroken() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken != nil
}

// wireTimeout resolves the per-call data-plane bound (0 selects the
// default; negative disables).
func (cfg EpochConfig) wireTimeout() time.Duration {
	switch {
	case cfg.WireTimeout < 0:
		return 0
	case cfg.WireTimeout == 0:
		return DefaultWireTimeout
	}
	return cfg.WireTimeout
}

// wireHandler is the server half of the data plane: a service that
// ingests batches implements it, and serveWireConn routes every request
// frame to it. It returns the accepted count acknowledged to the sender.
type wireHandler interface {
	serveWire(method uint8, stream, pos int64, b core.Batch) (int, error)
}

// RPCServer serves one registered receiver on both planes: every accepted
// connection is sniffed for the binary magic and served as framed
// data-plane traffic on a match, or handed (peeked bytes intact) to net/rpc
// for control calls otherwise. Serve wraps it with a listener; tests that manage their own
// listeners (crash harnesses that must sever live connections) drive
// ServeConn directly.
type RPCServer struct {
	srv *rpc.Server
	h   wireHandler // nil when rcvr has no data plane
}

// NewRPCServer registers rcvr's control RPCs under name and, when rcvr
// ingests batches, its data-plane handler.
func NewRPCServer(name string, rcvr any) (*RPCServer, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName(name, rcvr); err != nil {
		return nil, err
	}
	h, _ := rcvr.(wireHandler)
	return &RPCServer{srv: srv, h: h}, nil
}

// ServeConn serves one connection until it closes, speaking whichever
// protocol the peer opens with.
func (s *RPCServer) ServeConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	lead, err := br.Peek(len(wireMagic))
	if err != nil || [4]byte(lead) != wireMagic {
		// Not the binary magic (or the peer hung up mid-peek): net/rpc owns
		// the connection, reading through the buffer so nothing is lost.
		s.srv.ServeConn(&peekedConn{Conn: conn, r: br})
		return
	}
	if _, err := br.Discard(len(wireMagic)); err != nil {
		conn.Close()
		return
	}
	if err := writeFrame(conn, wireMagicAck[:]); err != nil {
		conn.Close()
		return
	}
	s.serveWireConn(conn, br)
}

// serveWireConn is the binary frame loop: each request is parsed off the
// connection and handled in its own goroutine (pipelining — slow epochs
// must not block later frames), with replies serialized by a write lock.
func (s *RPCServer) serveWireConn(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	var wmu sync.Mutex
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		body, err := readFrame(br, conn)
		if err != nil {
			return // torn frame, checksum mismatch, or ordinary close
		}
		req, err := parseRequest(body)
		if err != nil {
			return // cannot trust the frame enough to even address a reply
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			var accepted int
			herr := errors.New("transport: service has no binary data plane")
			if s.h != nil {
				accepted, herr = s.h.serveWire(req.method, req.stream, req.pos, req.batch)
			}
			bufp := framePool.Get().(*[]byte)
			var msg string
			if herr != nil {
				msg = herr.Error()
			}
			frame := finishFrame(encodeReply(*bufp, req.reqID, accepted, msg, herr != nil))
			wmu.Lock()
			werr := writeFrame(conn, frame)
			wmu.Unlock()
			if cap(frame) > cap(*bufp) {
				*bufp = frame[:0]
			}
			framePool.Put(bufp)
			if werr != nil {
				conn.Close() // unblocks the read loop; callers redial
			}
		}()
	}
}

// peekedConn splices a bufio.Reader's buffered bytes back in front of a
// connection handed to net/rpc after protocol sniffing.
type peekedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *peekedConn) Read(p []byte) (int, error) { return c.r.Read(p) }
