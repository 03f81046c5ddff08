package kdc

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"kerberos/internal/core"
)

// loopAddr is what tickets issued to loopback clients carry.
var loopAddr = core.Addr{127, 0, 0, 1}

func serveRealm(t *testing.T) (*realm, *Listener) {
	t.Helper()
	r := newRealm(t, testRealm)
	l, err := Serve(r.server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return r, l
}

func asReqBytes(r *realm) []byte {
	return (&core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: testRealm},
		Service: core.TGSPrincipal(testRealm, testRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(r.clock.now),
	}).Encode()
}

// acceptAS is the acceptance check for a reply to asReqBytes(r): it
// opens under the user's key, names the ticket-granting service and
// echoes the request's time.
func acceptAS(r *realm) func([]byte) error {
	at := core.TimeFromGo(r.clock.now)
	return func(raw []byte) error {
		return checkTicket(raw, r.userKey, core.TGSPrincipal(testRealm, testRealm), at)
	}
}

// shapeOnly is the acceptance check of a test that holds no key: an
// exchange calls it only for a well-formed AUTH_REPLY, and it takes any.
func shapeOnly([]byte) error { return nil }

// exchangeOnce runs one exchange with addr through a throwaway Selector.
func exchangeOnce(addr string, req []byte, accept func([]byte) error, timeout time.Duration) ([]byte, error) {
	s := NewSelector(addr)
	defer s.Close()
	return s.Exchange(req, accept, timeout)
}

func TestUDPExchange(t *testing.T) {
	r, l := serveRealm(t)
	reply, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	rep, err := core.DecodeAuthReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rep.Open(r.userKey)
	if err != nil {
		t.Fatal(err)
	}
	// The ticket carries the real source address of the request.
	tkt, err := core.OpenTicket(r.tgsKey, enc.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	if tkt.Addr != loopAddr {
		t.Errorf("ticket addr = %v, want %v", tkt.Addr, loopAddr)
	}
}

func TestTCPExchange(t *testing.T) {
	r, l := serveRealm(t)
	reply, err := exchangeTCP(l.Addr(), asReqBytes(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	// Several requests over one connection.
	conn, err := net.Dial("tcp4", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if err := WriteFrame(conn, asReqBytes(r)); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.IfErrorMessage(rep); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestSelectorFailoverPastDeadAddress(t *testing.T) {
	r, l := serveRealm(t)
	// First address is a dead port; client falls back to the live slave
	// (§5.3 availability).
	dead := "127.0.0.1:1" // reserved port, nothing listens
	s := NewSelector(dead, l.Addr())
	defer s.Close()
	reply, err := s.Exchange(asReqBytes(r), acceptAS(r), 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := exchangeOnce(dead, asReqBytes(r), acceptAS(r), 200*time.Millisecond); err == nil {
		t.Error("dead-only KDC list succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	r, l := serveRealm(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if err := core.IfErrorMessage(reply); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// At least one request per client; a slow reply may provoke a
	// retransmission, which the server counts as a fresh AS request
	// (initial-ticket exchanges carry no authenticator to dedupe on).
	if got := r.server.Metrics().ASRequests.Load(); got < 32 {
		t.Errorf("AS requests = %d, want >= 32", got)
	}
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte("hello, kerberos")
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("frame round trip: %q", got)
	}
	// Oversized and zero-length frames are rejected.
	var bad bytes.Buffer
	bad.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&bad); err == nil {
		t.Error("oversized frame accepted")
	}
	bad.Reset()
	bad.Write([]byte{0, 0, 0, 0})
	if _, err := ReadFrame(&bad); err == nil {
		t.Error("zero frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestListenerCloseIdempotentUse(t *testing.T) {
	r := newRealm(t, testRealm)
	l, err := Serve(r.server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// After close, exchanges fail rather than hang.
	if _, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 300*time.Millisecond); err == nil {
		t.Error("exchange succeeded against closed listener")
	}
}

func TestUDPGarbageDoesNotKillServer(t *testing.T) {
	r, l := serveRealm(t)
	conn, err := net.Dial("udp4", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x00})
	conn.Write(bytes.Repeat([]byte{0xff}, 512))
	conn.Close()
	// Server still answers well-formed requests.
	reply, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatalf("server unhealthy after garbage: %v", err)
	}
}
