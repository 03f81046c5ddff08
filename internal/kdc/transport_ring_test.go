package kdc

import (
	"context"
	"net"
	"testing"
	"time"

	"kerberos/internal/core"
)

// TestUDPRingBatchesBurst fills the ring from the socket reader before
// the handler starts, then checks (a) every request is answered
// correctly, and (b) the whole burst reached HandleBatch as one drain
// of 64 — the ring carries concurrency from the socket to the crypto
// engine instead of serializing it.
func TestUDPRingBatchesBurst(t *testing.T) {
	r := newRealm(t, testRealm)
	udp, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Listener{server: r.server, udp: udp, ring: new(udpRing),
		udpWake: make(chan struct{}, 1), ctx: ctx, cancel: cancel}
	t.Cleanup(func() {
		cancel()
		udp.Close()
		l.wg.Wait()
	})
	l.wg.Add(1)
	go l.udpReader()

	req := asReqBytes(r)
	const n = 64
	conns := make([]net.Conn, n)
	for i := range conns {
		conn, err := net.Dial("udp4", udp.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	// The reader nudges udpWake after publishing each slot; with no
	// handler running yet, the test takes those nudges itself.
	timeout := time.After(5 * time.Second)
	for l.ring.head.Load() < n {
		select {
		case <-l.udpWake:
		case <-timeout:
			t.Fatalf("reader queued %d of %d datagrams", l.ring.head.Load(), n)
		}
	}
	l.wg.Add(1)
	go l.udpHandler()

	buf := make([]byte, MaxUDPMessage)
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		nr, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		if err := core.IfErrorMessage(buf[:nr]); err != nil {
			t.Fatalf("conn %d: error reply: %v", i, err)
		}
		if _, err := core.DecodeAuthReply(buf[:nr]); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}

	m := r.server.Metrics()
	if got := m.BatchSizes.Count(); got != 1 {
		t.Errorf("HandleBatch calls = %d, want 1 drain of the whole burst", got)
	}
	if got := m.BatchSizes.Snapshot().Max; got != n {
		t.Errorf("largest batch = %d, want %d", got, n)
	}
	if got := m.GatherOccupancy.Snapshot().Max; got != n {
		t.Errorf("ring depth at drain = %d, want %d", got, n)
	}
}

// TestUDPRingIdleLatencyPath checks a lone datagram is handled at once
// as a batch of one: the handler does not linger for company.
func TestUDPRingIdleLatencyPath(t *testing.T) {
	r, l := serveRealm(t)
	reply, err := Exchange(l.Addr(), asReqBytes(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatal(err)
	}
	m := r.server.Metrics()
	if got := m.BatchSizes.Snapshot().Max; got != 1 {
		t.Errorf("batch size max = %d, want 1 for a lone datagram", got)
	}
	if got := m.GatherOccupancy.Snapshot().Max; got != 1 {
		t.Errorf("gather occupancy max = %d, want 1 for a lone datagram", got)
	}
}
