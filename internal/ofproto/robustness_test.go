package ofproto

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"ofmtl/internal/xrand"
)

// rawDial opens a TCP connection and consumes the server hello.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(conn); err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	return conn
}

func TestDialErrorPaths(t *testing.T) {
	// Nothing listening.
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
	// A server that speaks the wrong hello.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = WriteMessage(conn, MsgHello, []byte{99}) // wrong version
		_ = conn.Close()
	}()
	if _, err := Dial(l.Addr().String()); err == nil {
		t.Error("wrong hello version should fail the dial")
	}
	<-done
	// A server that sends a non-hello first message.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = WriteMessage(conn, MsgBarrier, nil)
		_ = conn.Close()
	}()
	if _, err := Dial(l.Addr().String()); err == nil {
		t.Error("non-hello greeting should fail the dial")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgHello: "hello", MsgError: "error", MsgFlowMod: "flow-mod",
		MsgFlowModReply: "flow-mod-reply", MsgPacket: "packet",
		MsgPacketReply: "packet-reply", MsgStatsRequest: "stats-request",
		MsgStatsReply: "stats-reply", MsgBarrier: "barrier",
		MsgBarrierReply: "barrier-reply", MsgEchoRequest: "echo-request",
		MsgFlowRemoved: "flow-removed", MsgType(99): "unknown",
		// The retired memory-, cache- and advisor-stats codes name nothing.
		MsgType(15): "unknown", MsgType(18): "unknown", MsgType(30): "unknown",
		MsgType(31): "unknown",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	// Retiring messages left the surviving codes where they were.
	if MsgFlowModBatchReply != 14 || MsgEchoRequest != 19 || MsgFlowRemoved != 29 {
		t.Errorf("message codes moved: flow-mod-batch-reply=%d echo-request=%d flow-removed=%d, want 14/19/29",
			MsgFlowModBatchReply, MsgEchoRequest, MsgFlowRemoved)
	}
}

// TestServerSurvivesGarbage feeds the server random bytes and malformed
// frames; the server must drop the connection (or answer with errors)
// without crashing, and keep serving well-formed clients afterwards.
func TestServerSurvivesGarbage(t *testing.T) {
	p := emptyMACPipeline(t)
	addr, stop := startTestServer(t, p)
	defer stop()

	rng := xrand.New(31337)
	for round := 0; round < 20; round++ {
		conn := rawDial(t, addr)
		n := 1 + rng.Intn(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		_, _ = conn.Write(buf)
		_ = conn.Close()
	}

	// Malformed but well-framed payloads: the server must answer MsgError
	// and keep the connection.
	conn := rawDial(t, addr)
	defer func() { _ = conn.Close() }()
	if err := WriteMessage(conn, MsgFlowMod, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if msg.Type != MsgError {
		t.Fatalf("expected error reply, got %s", msg.Type)
	}

	// An oversized frame header closes the connection without panicking.
	bad := rawDial(t, addr)
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxMessageLen+1)
	hdr[4] = byte(MsgBarrier)
	_, _ = bad.Write(hdr[:])
	_ = bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := bad.Read(buf); err == nil {
		// The server may send an error first; a second read must fail as
		// the connection closes.
		if _, err := bad.Read(buf); err == nil {
			t.Error("server kept an oversized-frame connection open")
		}
	}
	_ = bad.Close()

	// A well-behaved client still works.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Barrier(); err != nil {
		t.Fatalf("barrier after garbage storm: %v", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after garbage storm: %v", err)
	}
}
