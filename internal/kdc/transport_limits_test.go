package kdc

import (
	"net"
	"sync"
	"testing"
	"time"

	"kerberos/internal/core"
)

// dialTCP opens a raw TCP connection to the listener.
func dialTCP(t *testing.T, l *Listener) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp4", l.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// exchangeOn runs one framed request/reply on an already open connection.
func exchangeOn(t *testing.T, conn net.Conn, req []byte, timeout time.Duration) ([]byte, error) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := WriteFrame(conn, req); err != nil {
		return nil, err
	}
	return ReadFrame(conn)
}

// TestTCPConnCap verifies the accept semaphore: with the cap saturated by
// idle-but-open connections, a new connection is not served until a slot
// frees — it waits in the kernel backlog instead of getting a goroutine.
func TestTCPConnCap(t *testing.T) {
	oldCap := maxTCPConns
	maxTCPConns = 2
	defer func() { maxTCPConns = oldCap }()

	r, l := serveRealm(t)
	req := asReqBytes(r)

	// Fill both slots with live connections (each proves it is served).
	c1, c2 := dialTCP(t, l), dialTCP(t, l)
	for _, c := range []net.Conn{c1, c2} {
		reply, err := exchangeOn(t, c, req, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.IfErrorMessage(reply); err != nil {
			t.Fatal(err)
		}
	}

	// A third connection can complete the TCP handshake (kernel backlog)
	// but must not be served while both slots are held.
	c3 := dialTCP(t, l)
	if _, err := exchangeOn(t, c3, req, 300*time.Millisecond); err == nil {
		t.Fatal("third connection served beyond the cap")
	}

	// Freeing one slot lets the queued connection through.
	c1.Close()
	var reply []byte
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		reply, err = exchangeOn(t, c3, req, time.Second)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("queued connection never served after a slot freed: %v", err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
}

// TestTCPReadDeadline verifies a silent client is disconnected: its slot
// must come back so a stalled or hostile peer cannot pin it forever.
func TestTCPReadDeadline(t *testing.T) {
	oldTimeout := tcpReadTimeout
	tcpReadTimeout = 200 * time.Millisecond
	defer func() { tcpReadTimeout = oldTimeout }()

	_, l := serveRealm(t)
	conn := dialTCP(t, l)
	// Send nothing. The server's read deadline fires and it closes the
	// connection, which we observe as EOF (or reset) on our blocking read.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server kept an idle connection past the read deadline")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never disconnected the idle client")
	}
}

// TestParallelUDPReaders floods the UDP socket from many goroutines; all
// requests must be answered correctly regardless of which reader
// goroutine picks each datagram up.
func TestParallelUDPReaders(t *testing.T) {
	r, l := serveRealm(t)
	req := asReqBytes(r)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := exchangeUDP(defaultDialUDP, l.Addr(), req, acceptAS(r), time.Now().Add(5*time.Second))
			if err != nil {
				errs <- err
				return
			}
			if err := core.IfErrorMessage(reply); err != nil {
				errs <- err
				return
			}
			if _, err := core.DecodeAuthReply(reply); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
