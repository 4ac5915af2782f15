package transport

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"prochlo/internal/core"
)

// TestWireFrameRoundTrip covers the frame codec symmetrically and checks
// that corrupting any body byte is caught by the checksum.
func TestWireFrameRoundTrip(t *testing.T) {
	batch := core.Batch{Payloads: [][]byte{[]byte("alpha"), nil, []byte("gamma")}}
	frame := finishFrame(encodeRequest(make([]byte, 0, 256), 7, wireIngest, 42, -9, batch))

	// Strip the uvarint length prefix the way the read loop does.
	n, k := binary.Uvarint(frame)
	if k <= 0 || int(n) != len(frame)-k {
		t.Fatalf("frame length prefix = %d (%d bytes), frame body = %d", n, k, len(frame)-k)
	}
	body, err := checkCRC(frame[k:])
	if err != nil {
		t.Fatal(err)
	}
	req, err := parseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if req.reqID != 7 || req.method != wireIngest || req.stream != 42 || req.pos != -9 {
		t.Fatalf("request header = %+v", req)
	}
	if req.batch.Kind() != core.KindPayloads || req.batch.Len() != 3 ||
		!bytes.Equal(req.batch.Payloads[0], []byte("alpha")) {
		t.Fatalf("request batch = %+v", req.batch)
	}

	// Every single-byte corruption of the body must fail the checksum.
	for i := k; i < len(frame); i++ {
		torn := append([]byte(nil), frame...)
		torn[i] ^= 0x40
		if _, err := checkCRC(torn[k:]); err == nil {
			t.Fatalf("corrupting byte %d went undetected", i)
		}
	}

	// Reply framing, success and error forms.
	rf := finishFrame(encodeReply(make([]byte, 0, 64), 9, 1234, "", false))
	_, k = binary.Uvarint(rf)
	body, err = checkCRC(rf[k:])
	if err != nil {
		t.Fatal(err)
	}
	id, res, err := parseReply(body)
	if err != nil || id != 9 || res.accepted != 1234 || res.err != nil {
		t.Fatalf("success reply = %d, %+v, %v", id, res, err)
	}
	rf = finishFrame(encodeReply(make([]byte, 0, 64), 10, 0, errEpochFullMsg, true))
	_, k = binary.Uvarint(rf)
	body, err = checkCRC(rf[k:])
	if err != nil {
		t.Fatal(err)
	}
	id, res, err = parseReply(body)
	if err != nil || id != 10 || res.err == nil {
		t.Fatalf("error reply = %d, %+v, %v", id, res, err)
	}
	if !IsEpochFull(res.err) {
		t.Fatalf("epoch-full error did not survive the wire: %v", res.err)
	}
	if IsTransient(res.err) {
		t.Fatal("a server-returned error must not look transient")
	}
}

// TestWireClientBothProtocols drives one client against one listener on
// both planes: the batch rides a negotiated binary connection, the Stats
// and Drain control calls ride net/rpc, and every report lands.
func TestWireClientBothProtocols(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	cl, err := Dial(rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	batch := make([]core.Envelope, 8)
	for i := range batch {
		batch[i] = rig.envelope(t, "c:wire", "wire-value")
	}
	if err := cl.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	negotiated := cl.wc != nil
	cl.mu.Unlock()
	if !negotiated {
		t.Fatal("submission did not negotiate a binary data-plane connection")
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 8 {
		t.Fatalf("accepted = %d, want 8", st.Accepted)
	}
	if _, err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	ac, err := DialAnalyzer(rig.anlz)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	counts, _, err := ac.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if counts["wire-value"] != 8 {
		t.Fatalf("histogram = %v, want 8 wire-value", counts)
	}
}

// TestWireHandshakeFailureIsTransient dials the data plane of a peer that
// serves only net/rpc: the failed handshake must surface as an ordinary
// connection error that IsTransient routes to the redial machinery, and
// nothing may be ingested.
func TestWireHandshakeFailureIsTransient(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	srv := rpc.NewServer()
	if err := srv.RegisterName("Shuffler", rig.svc); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()

	cl, err := DialTimeout(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.SubmitBatch([]core.Envelope{rig.envelope(t, "c:hs", "handshake-value")})
	if err == nil {
		t.Fatal("submission through a peer without a data plane succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("failed handshake must be transient (redial), got %v", err)
	}
	var st ServiceStats
	if err := rig.svc.Stats(struct{}{}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 0 {
		t.Fatalf("accepted = %d, want 0", st.Accepted)
	}
}

// TestReadFrameHostileLengthBoundsAlloc sends a frame header claiming the
// maximum body and then hangs up: the reader must fail without reserving
// the claimed size — the allocation may exceed the bytes that arrived by
// no more than frameReadChunk.
func TestReadFrameHostileLengthBoundsAlloc(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	go func() {
		defer client.Close()
		hdr := binary.AppendUvarint(nil, maxWireFrame)
		client.Write(append(hdr, 1, 2, 3)) //nolint:errcheck // the reader sees any failure
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(server), server)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > frameReadChunk+1<<20 {
		t.Fatalf("reading a 3-byte body of a frame claiming %d bytes allocated %d MiB", maxWireFrame, grew>>20)
	}
}

// TestWireServerKillsCorruptConnection sends a checksum-corrupted frame:
// the server must drop the connection rather than act on the frame.
func TestWireServerKillsCorruptConnection(t *testing.T) {
	rig := newStreamingRig(t, EpochConfig{})
	conn, err := net.Dial("tcp", rig.shuf)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wireMagic[:]); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack != wireMagicAck {
		t.Fatalf("handshake ack = % x, %v", ack, err)
	}
	frame := finishFrame(encodeRequest(make([]byte, 0, 256), 1, wireForward, 1, 1,
		core.Batch{Payloads: [][]byte{[]byte("x")}}))
	frame[len(frame)-1] ^= 0xff // corrupt the CRC
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(ack[:1]); err == nil {
		t.Fatal("server replied to a checksum-corrupted frame instead of killing the connection")
	} else if os.IsTimeout(err) {
		t.Fatalf("connection not killed within deadline: %v", err)
	}
	var st ServiceStats
	if err := rig.svc.Stats(struct{}{}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 0 {
		t.Fatalf("corrupt frame was ingested: accepted = %d", st.Accepted)
	}
}

// hungWireServer completes the binary handshake and then never answers —
// the black-holed peer of the deadline satellite.
func hungWireServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var magic [4]byte
				if _, err := io.ReadFull(conn, magic[:]); err != nil || magic != wireMagic {
					return
				}
				if _, err := conn.Write(wireMagicAck[:]); err != nil {
					return
				}
				io.Copy(io.Discard, conn) //nolint:errcheck // swallow frames forever
			}()
		}
	}()
	return l.Addr().String()
}

// TestWireHungPeerTimesOut: a peer that accepts frames but never replies
// must fail the call with a deadline error the retry machinery recognizes
// as transient, not wedge the calling goroutine.
func TestWireHungPeerTimesOut(t *testing.T) {
	addr := hungWireServer(t)
	wc, err := dialWire(addr, time.Second, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	start := time.Now()
	_, err = wc.call(wireIngest, 1, 1, core.Batch{Payloads: [][]byte{[]byte("x")}})
	if err == nil {
		t.Fatal("call against a hung peer succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	if !IsTransient(err) {
		t.Fatalf("deadline error must be transient (retry on a fresh conn): %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timed out only after %v", waited)
	}
	// The connection is poisoned; later calls must fail fast, and the
	// client-side owner replaces it.
	if !wc.isBroken() {
		t.Fatal("timed-out connection not marked broken")
	}
	if _, err := wc.call(wireIngest, 1, 2, core.Batch{}); err == nil {
		t.Fatal("call on a broken connection succeeded")
	}
}

// TestWirePipelinedOutOfOrderReplies proves requests share one connection
// without head-of-line round-trip serialization: a scripted server answers
// the second in-flight request first, and each call still gets its own
// reply.
func TestWirePipelinedOutOfOrderReplies(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverErr := make(chan error, 1)
	firstSeen := make(chan struct{})
	go func() {
		serverErr <- func() error {
			conn, err := l.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			var magic [4]byte
			if _, err := io.ReadFull(conn, magic[:]); err != nil {
				return err
			}
			if _, err := conn.Write(wireMagicAck[:]); err != nil {
				return err
			}
			readReq := func() (wireRequest, error) {
				var lenBuf []byte
				one := make([]byte, 1)
				for {
					if _, err := io.ReadFull(conn, one); err != nil {
						return wireRequest{}, err
					}
					lenBuf = append(lenBuf, one[0])
					if one[0] < 0x80 {
						break
					}
				}
				n, _ := binary.Uvarint(lenBuf)
				body := make([]byte, n)
				if _, err := io.ReadFull(conn, body); err != nil {
					return wireRequest{}, err
				}
				body, err := checkCRC(body)
				if err != nil {
					return wireRequest{}, err
				}
				return parseRequest(body)
			}
			req1, err := readReq()
			if err != nil {
				return fmt.Errorf("request 1: %w", err)
			}
			close(firstSeen)
			req2, err := readReq()
			if err != nil {
				return fmt.Errorf("request 2: %w", err)
			}
			// Answer in reverse order, echoing 100+stream as accepted so
			// each reply is attributable.
			for _, req := range []wireRequest{req2, req1} {
				frame := finishFrame(encodeReply(make([]byte, 0, 64), req.reqID, int(100+req.stream), "", false))
				if _, err := conn.Write(frame); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	wc, err := dialWire(l.Addr().String(), time.Second, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()

	results := make([]int, 2)
	callErrs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		results[0], callErrs[0] = wc.call(wireForward, 1, 1, core.Batch{})
	}()
	go func() {
		defer wg.Done()
		<-firstSeen // guarantee ordering: call 0 is on the wire first
		results[1], callErrs[1] = wc.call(wireForward, 2, 1, core.Batch{})
	}()
	wg.Wait()
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
	for i, err := range callErrs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if results[0] != 101 || results[1] != 102 {
		t.Fatalf("replies crossed: got %v, want [101 102]", results)
	}
}

// FuzzWireFrameParse hammers the frame parsers with arbitrary bodies: they
// must reject garbage gracefully, never panic, and anything parseRequest
// accepts must re-encode to a body that parses identically.
func FuzzWireFrameParse(f *testing.F) {
	valid := encodeRequest(make([]byte, 0, 256), 3, wireSubmitBatch, 5, 6,
		core.Batch{Envelopes: []core.Envelope{{Blob: []byte("b"), SourceIP: "ip"}}})
	f.Add(valid[frameHeaderMax:])
	f.Add(encodeReply(make([]byte, 0, 64), 1, 10, "", false)[frameHeaderMax:])
	f.Add(encodeReply(make([]byte, 0, 64), 2, 0, "boom", true)[frameHeaderMax:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if data, err := checkCRC(body); err == nil {
			parseReply(data) //nolint:errcheck // must not panic
			if req, err := parseRequest(data); err == nil {
				re := encodeRequest(make([]byte, 0, 256), req.reqID, req.method, req.stream, req.pos, req.batch)
				reData, err := checkCRC(re[frameHeaderMax:])
				if err != nil {
					t.Fatalf("re-encoded frame fails its own checksum: %v", err)
				}
				req2, err := parseRequest(reData)
				if err != nil {
					t.Fatalf("re-encoded frame does not parse: %v", err)
				}
				if req2.reqID != req.reqID || req2.method != req.method ||
					req2.stream != req.stream || req2.pos != req.pos ||
					req2.batch.Kind() != req.batch.Kind() || req2.batch.Len() != req.batch.Len() {
					t.Fatalf("re-encode changed the request: %+v vs %+v", req, req2)
				}
			}
		}
	})
}

// benchBatch builds a Forward-shaped batch: n envelopes of blobSize bytes.
func benchBatch(n, blobSize int) core.Batch {
	envs := make([]core.Envelope, n)
	blob := make([]byte, blobSize)
	crand.Read(blob) //nolint:errcheck
	for i := range envs {
		envs[i] = core.Envelope{Blob: blob, SourceIP: "203.0.113.9", ArrivalTime: time.Unix(0, 1)}
	}
	return core.Batch{Envelopes: envs}
}

// BenchmarkWireCodec measures one marshal+unmarshal of a 500-envelope batch
// through the binary codec, including the receiver's fresh frame buffer.
func BenchmarkWireCodec(b *testing.B) {
	batch := benchBatch(500, 128)
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var arena []byte
		for i := 0; i < b.N; i++ {
			arena = core.AppendBatch(arena[:0], batch)
			buf := make([]byte, len(arena)) // the receiver's fresh frame buffer
			copy(buf, arena)
			if _, _, err := core.DecodeBatchAlias(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(arena)))
	})
}

// BenchmarkForwardPush measures one hop-to-hop Forward push end to end over
// loopback TCP. Every push reuses the same (stream, epoch), so the
// receiver's dedup absorbs it after the first — the benchmark stays
// allocation- and memory-flat and measures pure wire cost.
func BenchmarkForwardPush(b *testing.B) {
	rig := newStreamingRig(b, EpochConfig{})
	batch := benchBatch(500, 128)
	b.Run("binary", func(b *testing.B) {
		cl, err := (EpochConfig{}).dialCaller(rig.shuf)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			accepted, err := cl.call(wireForward, 77, 1, batch)
			if err != nil {
				b.Fatal(err)
			}
			if accepted != batch.Len() {
				b.Fatalf("accepted = %d, want %d", accepted, batch.Len())
			}
		}
	})
}
