package kdc

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// handListener builds a Listener on a fresh loopback UDP socket with no
// worker running, so a test can queue datagrams first and then start
// workers or drive their steps itself.
func handListener(t *testing.T, r *realm) *Listener {
	t.Helper()
	udp, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	l := newListener(r.server, udp)
	t.Cleanup(func() {
		l.cancel()
		udp.Close()
		l.wg.Wait()
	})
	return l
}

// newWorker returns a worker for l, failing the test on error.
func newWorker(t *testing.T, l *Listener) *udpWorker {
	t.Helper()
	w, err := newUDPWorker(l)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// startWorker runs one burst worker on l.
func startWorker(t *testing.T, l *Listener) {
	w := newWorker(t, l)
	l.wg.Add(1)
	go l.serveUDP(w)
}

// dialClients opens n UDP sockets to l, closed when the test ends.
func dialClients(t *testing.T, l *Listener, n int) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, n)
	for i := range conns {
		conn, err := net.Dial("udp4", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conns[i] = conn
	}
	return conns
}

// wireTGT runs an AS exchange over the wire, so the ticket carries the
// loopback address, and returns the opened reply.
func wireTGT(t *testing.T, r *realm, l *Listener) *core.EncTicketReply {
	t.Helper()
	raw, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return openBatchReply(t, raw, r.userKey)
}

// loopTGSReq encodes a ticket-granting request for rlogin.priam from
// the loopback address, its authenticator stamped at.
func loopTGSReq(tgt *core.EncTicketReply, at time.Time) []byte {
	auth := core.NewAuthenticator(
		core.Principal{Name: "jis", Realm: testRealm}, loopAddr, at, 0)
	return (&core.TGSRequest{
		APReq: core.APRequest{
			KVNO:          tgt.KVNO,
			TicketRealm:   testRealm,
			Ticket:        tgt.Ticket,
			Authenticator: auth.Seal(tgt.SessionKey),
		},
		Service: core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm},
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(at),
	}).Encode()
}

// checkTicket opens a ticket reply under key and checks it names
// service and echoes the request time reqTime.
func checkTicket(raw []byte, key des.Key, service core.Principal, reqTime core.KerberosTime) error {
	if err := core.IfErrorMessage(raw); err != nil {
		return fmt.Errorf("error reply: %w", err)
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		return err
	}
	enc, err := rep.Open(key)
	if err != nil {
		return err
	}
	if enc.Server != service || enc.RequestTime != reqTime {
		return fmt.Errorf("reply for %v at %d, want %v at %d", enc.Server, enc.RequestTime, service, reqTime)
	}
	return nil
}

// TestUDPBurstIdleLatencyPath checks a lone datagram is handled at once
// as a batch of one: the worker does not linger for company.
func TestUDPBurstIdleLatencyPath(t *testing.T) {
	r, l := serveRealm(t)
	reply, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatal(err)
	}
	if got := r.server.Metrics().BatchSizes.Snapshot().Max; got != 1 {
		t.Errorf("batch size max = %d, want 1 for a lone datagram", got)
	}
}

// TestUDPBurstRouting queues one burst from 64 client sockets — valid
// AS requests, garbage, requests for an unknown client, and requests
// whose reply exceeds the (shrunken) UDP limit — and checks every
// socket receives exactly its own answer.
func TestUDPBurstRouting(t *testing.T) {
	r := newRealm(t, testRealm)
	longSvc := core.Principal{Name: "rcmd", Instance: strings.Repeat("x", 39), Realm: testRealm}
	key, _ := des.NewRandomKey()
	if err := r.db.Add(longSvc.Name, longSvc.Instance, key, 0, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	tgs := core.TGSPrincipal(testRealm, testRealm)
	asReq := func(client string, service core.Principal, at time.Time) []byte {
		return (&core.AuthRequest{
			Client:  core.Principal{Name: client, Realm: testRealm},
			Service: service,
			Life:    core.DefaultTGTLife,
			Time:    core.TimeFromGo(at),
		}).Encode()
	}
	// The limit admits a TGT reply but not the longer service's.
	small := len(r.server.Handle(asReq("jis", tgs, t0), loopAddr))
	if large := len(r.server.Handle(asReq("jis", longSvc, t0), loopAddr)); large <= small {
		t.Fatalf("long-service reply %d bytes, TGT reply %d: no room for a limit between", large, small)
	}
	oldMax := maxUDPReply
	maxUDPReply = small
	defer func() { maxUDPReply = oldMax }()

	l := handListener(t, r)
	const n = udpBurst
	conns := dialClients(t, l, n)
	stamp := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	ghost := func(i int) string { return fmt.Sprintf("ghost%02d", i) }
	oversized := 0
	for i, conn := range conns {
		var msg []byte
		switch i % 4 {
		case 0:
			msg = asReq("jis", tgs, stamp(i))
		case 1:
			msg = []byte{0xff, byte(i), 0, 1, 2}
		case 2:
			msg = asReq(ghost(i), tgs, stamp(i))
		case 3:
			msg = asReq("jis", longSvc, stamp(i))
			oversized++
		}
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	startWorker(t, l)

	buf := make([]byte, MaxUDPMessage)
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		nr, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("socket %d: %v", i, err)
		}
		got := buf[:nr]
		switch i % 4 {
		case 0:
			if err := checkTicket(got, r.userKey, tgs, core.TimeFromGo(stamp(i))); err != nil {
				t.Errorf("socket %d: %v", i, err)
			}
		case 1:
			if core.IfErrorMessage(got) == nil || IsReplyTooBig(got) {
				t.Errorf("socket %d: garbage answered with %x, want an error reply", i, got)
			}
		case 2:
			want := core.Principal{Name: ghost(i), Realm: testRealm}.String()
			if err := core.IfErrorMessage(got); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("socket %d: got %v, want the unknown-principal error for %s", i, err, want)
			}
		case 3:
			if !IsReplyTooBig(got) {
				t.Errorf("socket %d: oversized reply not replaced by the retry-over-TCP signal", i)
			}
		}
	}
	// Exactly one answer each: nothing else arrives on any socket.
	deadline := time.Now().Add(50 * time.Millisecond)
	for i, conn := range conns {
		conn.SetReadDeadline(deadline)
		if nr, err := conn.Read(buf); err == nil {
			t.Errorf("socket %d: second datagram %x", i, buf[:nr])
		}
	}
	if got := r.server.Metrics().UDPOverflows.Load(); got != uint64(oversized) {
		t.Errorf("UDPOverflows = %d, want %d", got, oversized)
	}
}

// TestUDPBurstAllocs pins the recv and send steps of a steady-state
// burst at zero allocations: the RawConn callbacks and syscall arrays
// are built once per worker.
func TestUDPBurstAllocs(t *testing.T) {
	r := newRealm(t, testRealm)
	l := handListener(t, r)
	w := newWorker(t, l)
	conn := dialClients(t, l, 1)[0]
	req, reply := []byte("request"), []byte("reply")
	buf := make([]byte, 64)
	step := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		n, err := w.recv()
		if err != nil || n != 1 {
			t.Fatalf("recv = %d, %v; want one datagram", n, err)
		}
		w.batch[0].Reply = reply
		w.send(n)
		conn.SetReadDeadline(time.Time{})
		if nr, err := conn.Read(buf); err != nil || !bytes.Equal(buf[:nr], reply) {
			t.Fatalf("read %q, %v; want %q", buf[:nr], err, reply)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("recv+send allocate %.1f times per burst, want 0", allocs)
	}
}

// TestUDPBurstConcurrentExchanges drives four workers from 16 sockets,
// each running 200 alternating AS and TGS exchanges on the one socket,
// and verifies every reply. A retransmitted exchange can leave a late
// duplicate queued on its socket; the next exchange's acceptance check
// must skip it.
func TestUDPBurstConcurrentExchanges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r, l := serveRealm(t)
	tgt := wireTGT(t, r, l)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	service := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	const sockets, exchanges = 16, 200
	var wg sync.WaitGroup
	errs := make(chan error, sockets)
	var stale atomic.Int64
	for s := 0; s < sockets; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("udp4", l.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			buf := make([]byte, MaxUDPMessage)
			for k := 0; k < exchanges; k++ {
				req, key, want := asReqBytes(r), r.userKey, tgs
				at := r.clock.now
				if k%2 == 1 {
					at = at.Add(time.Duration(s*exchanges+k) * time.Microsecond)
					req, key, want = loopTGSReq(tgt, at), tgt.SessionKey, service
				}
				accept := func(reply []byte) error {
					err := checkTicket(reply, key, want, core.TimeFromGo(at))
					if err != nil {
						stale.Add(1)
					}
					return err
				}
				reply, err := udpRoundTrip(conn, buf, l.Addr(), req, accept, time.Now().Add(5*time.Second))
				if err == nil {
					err = checkTicket(reply, key, want, core.TimeFromGo(at))
				}
				if err != nil {
					errs <- fmt.Errorf("socket %d exchange %d: %w", s, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d stale replies discarded", stale.Load())
}

// TestUDPBurstDuplicateTGS writes a byte-identical TGS datagram twice
// back-to-back, so the copies may land in one burst or on two workers.
// Single use (§4.3) holds either way: one ticket, and the other copy is
// answered with that same remembered reply or with ErrRepeat, never
// with a second ticket.
func TestUDPBurstDuplicateTGS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r, l := serveRealm(t)
	tgt := wireTGT(t, r, l)
	service := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	conn := dialClients(t, l, 1)[0]
	buf := make([]byte, MaxUDPMessage)
	for i := 0; i < 50; i++ {
		at := r.clock.now.Add(time.Duration(i) * time.Microsecond)
		req := loopTGSReq(tgt, at)
		for range 2 {
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
		}
		var ticket []byte
		for k := 0; k < 2; k++ {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			nr, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("round %d reply %d: %v", i, k, err)
			}
			got := append([]byte(nil), buf[:nr]...)
			switch {
			case isRepeatError(got):
			case ticket == nil:
				if err := checkTicket(got, tgt.SessionKey, service, core.TimeFromGo(at)); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				ticket = got
			case !bytes.Equal(got, ticket):
				t.Fatalf("round %d: a byte-identical retransmission got a second ticket", i)
			}
		}
		if ticket == nil {
			t.Fatalf("round %d: both copies refused, no ticket issued", i)
		}
	}
}

// workerStates returns the scheduler state ("IO wait", "select", ...)
// of every goroutine running serveUDP.
func workerStates() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var states []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, ".serveUDP(") {
			continue
		}
		head, _, _ := strings.Cut(g, "\n")
		if _, rest, ok := strings.Cut(head, "["); ok {
			state, _, _ := strings.Cut(rest, "]")
			state, _, _ = strings.Cut(state, ",") // drop ", N minutes"
			states = append(states, state)
		}
	}
	return states
}

// TestUDPBurstCloseReturns closes a listener whose workers are parked —
// one inside the socket read, the others waiting for the read token —
// and checks Close returns promptly and every goroutine it started has
// exited.
func TestUDPBurstCloseReturns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	r := newRealm(t, testRealm)
	l, err := Serve(r.server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 2*time.Second); err != nil {
		l.Close()
		t.Fatal(err)
	}
	parked := func() bool {
		ioWait, sel := 0, 0
		for _, s := range workerStates() {
			switch s {
			case "IO wait":
				ioWait++
			case "select":
				sel++
			}
		}
		return ioWait == 1 && sel == 3
	}
	for deadline := time.Now().Add(2 * time.Second); !parked(); {
		if time.Now().After(deadline) {
			l.Close()
			t.Fatalf("workers never parked: %q", workerStates())
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	l.Close()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Close took %v, want under 1s", d)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after Close, %d before Serve", got, base)
	}
}
