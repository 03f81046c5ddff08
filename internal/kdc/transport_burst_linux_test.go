//go:build linux && (amd64 || arm64)

package kdc

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"kerberos/internal/core"
)

// TestUDPBurstBatchesQueuedDatagrams queues 64 datagrams before the
// first worker starts, then checks (a) every request is answered
// correctly, and (b) the whole burst reached HandleBatch as one 64-wide
// call — one recvmmsg carries the socket's concurrency to the pipeline
// instead of serializing it.
func TestUDPBurstBatchesQueuedDatagrams(t *testing.T) {
	r := newRealm(t, testRealm)
	l := handListener(t, r)
	req := asReqBytes(r)
	const n = udpBurst
	conns := dialClients(t, l, n)
	for _, conn := range conns {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	startWorker(t, l)

	tgs := core.TGSPrincipal(testRealm, testRealm)
	buf := make([]byte, MaxUDPMessage)
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		nr, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		if err := checkTicket(buf[:nr], r.userKey, tgs, core.TimeFromGo(r.clock.now)); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}

	m := r.server.Metrics()
	if got := m.BatchSizes.Count(); got != 1 {
		t.Errorf("HandleBatch calls = %d, want 1 call for the whole burst", got)
	}
	if got := m.BatchSizes.Snapshot().Max; got != n {
		t.Errorf("largest batch = %d, want %d", got, n)
	}
}

// TestUDPBurstSendErrorSkipsLane drives a worker's send step with one
// mid-burst lane addressed to the broadcast address, which the socket
// refuses (EACCES) without SO_BROADCAST. sendmmsg stops at that entry;
// the worker must skip it, deliver every other lane, and count it.
func TestUDPBurstSendErrorSkipsLane(t *testing.T) {
	r := newRealm(t, testRealm)
	l := handListener(t, r)
	rc, err := l.udp.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_BROADCAST, 0)
	}); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	w := newWorker(t, l)

	const lanes, bad = 8, 3
	conns := dialClients(t, l, lanes)
	for i, conn := range conns {
		if _, err := conn.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := w.recv()
	if err != nil || n != lanes {
		t.Fatalf("recv = %d, %v; want one burst of %d", n, err, lanes)
	}
	reply := func(c byte) string { return fmt.Sprintf("reply to %d", c) }
	dropped := w.batch[bad].Msg[0]
	for i := 0; i < n; i++ {
		w.batch[i].Reply = []byte(reply(w.batch[i].Msg[0]))
	}
	w.names[bad].Addr = [4]byte{255, 255, 255, 255}
	w.send(n)

	buf := make([]byte, 64)
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		nr, err := conn.Read(buf)
		if byte(i) == dropped {
			if err == nil {
				t.Errorf("conn %d: the refused lane's reply %q arrived", i, buf[:nr])
			}
			continue
		}
		if err != nil || string(buf[:nr]) != reply(byte(i)) {
			t.Errorf("conn %d: read %q, %v; want %q", i, buf[:nr], err, reply(byte(i)))
		}
	}
	if got := r.server.Metrics().UDPSendErrors.Load(); got != 1 {
		t.Errorf("UDPSendErrors = %d, want 1", got)
	}
}
