package kdc

import (
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/obs"
)

// blackholeAddr stands up a crashed-but-routed master KDC: a UDP socket
// that swallows every datagram and a TCP listener on the same port that
// accepts and then says nothing. Unlike a closed port (which refuses
// instantly), a blackhole only ever fails by timeout — the expensive
// way for a client to discover a dead KDC, and the case the selector's
// head-start racing exists for.
func blackholeAddr(t *testing.T) string {
	t.Helper()
	var pc net.PacketConn
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		var err error
		pc, err = net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln, err = net.Listen("tcp4", pc.LocalAddr().String())
		if err == nil {
			break
		}
		pc.Close()
		if attempt >= 16 {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { pc.Close(); ln.Close() })
	go func() {
		buf := make([]byte, MaxUDPMessage)
		for {
			if _, _, err := pc.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn) }() // hold open, never answer
		}
	}()
	return pc.LocalAddr().String()
}

// checkASReply fails the test unless reply is a decodable, non-error
// authentication reply.
func checkASReply(t *testing.T, reply []byte) {
	t.Helper()
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatal(err)
	}
}

// TestDownedMasterFailover is the §5.3 availability scenario as a hard
// acceptance test: the master is a blackhole, the slave answers. The
// exchange must succeed within the caller's 2s budget — and well under
// it, since only the head start is spent discovering the master is
// silent. Afterwards the slave is sticky, so the next exchange does not
// pay the head start again.
func TestDownedMasterFailover(t *testing.T) {
	r, l := serveRealm(t)
	master := blackholeAddr(t)
	s := NewSelector(master, l.Addr())
	s.HeadStart = 100 * time.Millisecond

	start := time.Now()
	reply, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("failover exchange failed after %v: %v", elapsed, err)
	}
	checkASReply(t, reply)
	if elapsed >= 2*time.Second {
		t.Errorf("failover burned the whole budget (%v)", elapsed)
	}
	if elapsed > time.Second {
		t.Errorf("failover took %v; want roughly the head start, not the budget", elapsed)
	}
	if got := s.Preferred(); got != l.Addr() {
		t.Errorf("preferred KDC = %s, want the answering slave %s", got, l.Addr())
	}

	start = time.Now()
	reply, err = s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkASReply(t, reply)
	if e2 := time.Since(start); e2 > 100*time.Millisecond {
		t.Errorf("sticky exchange took %v; it should lead with the live slave immediately", e2)
	}
}

// TestFailoverUnderLossAndDeadMaster is the issue's acceptance
// criterion end to end at the transport layer: with the master down and
// 20% request loss on the path to the slave, a kinit-equivalent AS
// exchange still completes within a 2-second budget.
func TestFailoverUnderLossAndDeadMaster(t *testing.T) {
	r, l := serveRealm(t)
	master := blackholeAddr(t)
	inj := NewFaultInjector(FaultSpec{LossRate: 0.2, Seed: 1988})
	s := NewSelector(master, l.Addr())
	s.HeadStart = 50 * time.Millisecond
	s.DialUDP = inj.DialUDP

	start := time.Now()
	reply, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("AS exchange failed after %v under 20%% loss with the master down: %v", elapsed, err)
	}
	checkASReply(t, reply)
	if elapsed >= 2*time.Second {
		t.Errorf("exchange took %v, over the 2s budget", elapsed)
	}
}

// TestSelectorRotatesOnTotalFailure: when every KDC is unreachable the
// call fails inside its budget and the preference moves off the old
// favourite, so the next call probes a different address first.
func TestSelectorRotatesOnTotalFailure(t *testing.T) {
	dead1, dead2 := "127.0.0.1:1", "127.0.0.1:2" // reserved ports, nothing listens
	s := NewSelector(dead1, dead2)
	start := time.Now()
	if _, err := s.Exchange([]byte{0x01}, shapeOnly, 500*time.Millisecond); err == nil {
		t.Fatal("exchange against dead KDCs succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("total failure took %v; attempts must share one budget, not stack", elapsed)
	}
	if got := s.Preferred(); got != dead2 {
		t.Errorf("preference did not rotate: still %s", got)
	}
}

// TestSelectorKeepsLiveKDCOnRefusedReplies: a wrong password makes the
// acceptance check refuse every reply. The KDCs answered, so they are
// alive: the exchange fails, but the preference stays on the first KDC
// instead of rotating off a healthy master.
func TestSelectorKeepsLiveKDCOnRefusedReplies(t *testing.T) {
	r := newRealm(t, testRealm)
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := Serve(r.server, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		addrs = append(addrs, l.Addr())
	}
	s := NewSelector(addrs...)
	s.HeadStart = 20 * time.Millisecond
	refuse := func([]byte) error { return errors.New("reply does not open under the password's key") }
	if _, err := s.Exchange(asReqBytes(r), refuse, 300*time.Millisecond); err == nil {
		t.Fatal("exchange with every reply refused succeeded")
	}
	if s.StaleReplies() == 0 {
		t.Fatal("no reply reached the acceptance check")
	}
	if got := s.Preferred(); got != addrs[0] {
		t.Errorf("preference moved off the live first KDC to %s", got)
	}
}

// TestFlappingSlave: a KDC that answers, dies, and comes back. The
// selector demotes it while it is down and recovers it once it is the
// only one answering again.
func TestFlappingSlave(t *testing.T) {
	r := newRealm(t, testRealm)
	serveOn := func(addr string) *Listener {
		t.Helper()
		var l *Listener
		var err error
		// The freed port can take a moment to become bindable again.
		for attempt := 0; attempt < 20; attempt++ {
			l, err = Serve(r.server, addr)
			if err == nil {
				t.Cleanup(func() { l.Close() })
				return l
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("rebinding %s: %v", addr, err)
		return nil
	}
	lA := serveOn("127.0.0.1:0")
	lB := serveOn("127.0.0.1:0")
	s := NewSelector(lA.Addr(), lB.Addr())
	s.HeadStart = 50 * time.Millisecond

	exchange := func() {
		t.Helper()
		reply, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		checkASReply(t, reply)
	}

	exchange()
	if got := s.Preferred(); got != lA.Addr() {
		t.Fatalf("preferred = %s, want %s", got, lA.Addr())
	}

	// A goes down; exchanges fail over to B and stick there.
	lA.Close()
	exchange()
	if got := s.Preferred(); got != lB.Addr() {
		t.Errorf("after A died: preferred = %s, want %s", got, lB.Addr())
	}

	// A flaps back up on its old address and B goes down; the selector
	// walks back to A.
	lA2 := serveOn(lA.Addr())
	lB.Close()
	exchange()
	if got := s.Preferred(); got != lA2.Addr() {
		t.Errorf("after B died: preferred = %s, want %s", got, lA2.Addr())
	}
}

// TestSelectorNoAddresses: an unconfigured realm fails immediately with
// a clear error instead of hanging or panicking.
func TestSelectorNoAddresses(t *testing.T) {
	if _, err := NewSelector().Exchange([]byte{0x01}, shapeOnly, time.Second); err == nil {
		t.Fatal("selector with no addresses succeeded")
	}
	if got := NewSelector().Preferred(); got != "" {
		t.Errorf("empty selector preferred = %q", got)
	}
}

// idleSockets counts the UDP sockets s holds between exchanges.
func idleSockets(s *Selector) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, list := range s.idle {
		n += len(list)
	}
	return n
}

// fakeKDC is a UDP endpoint on loopback that hands the i-th datagram it
// receives (counting from 0) to serve, along with a way to answer it.
func fakeKDC(t *testing.T, serve func(i int, req []byte, send func([]byte))) string {
	t.Helper()
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, MaxUDPMessage)
		for i := 0; ; i++ {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			serve(i, append([]byte(nil), buf[:n]...), func(b []byte) { pc.WriteTo(b, from) })
		}
	}()
	return pc.LocalAddr().String()
}

// asReqAt is jis's AS request stamped sec seconds after the realm's
// clock, with the acceptance check for its reply.
func asReqAt(r *realm, sec int) ([]byte, func([]byte) error) {
	at := core.TimeFromGo(r.clock.now.Add(time.Duration(sec) * time.Second))
	req := (&core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: testRealm},
		Service: core.TGSPrincipal(testRealm, testRealm),
		Life:    core.DefaultTGTLife,
		Time:    at,
	}).Encode()
	return req, func(raw []byte) error {
		return checkTicket(raw, r.userKey, core.TGSPrincipal(testRealm, testRealm), at)
	}
}

// idleSocket returns the one socket s holds idle for addr, or nil.
func idleSocket(s *Selector, addr string) *udpSock {
	s.mu.Lock()
	defer s.mu.Unlock()
	if list := s.idle[addr]; len(list) == 1 {
		return list[0]
	}
	return nil
}

// TestPooledSequentialExchanges: back-to-back exchanges through one
// Selector run on one socket, and Close leaves none behind — including
// sockets handed back after it.
func TestPooledSequentialExchanges(t *testing.T) {
	r, l := serveRealm(t)
	s := NewSelector(l.Addr())
	for i := 0; i < 100; i++ {
		reply, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		checkASReply(t, reply)
	}
	if n := idleSockets(s); n != 1 {
		t.Errorf("%d idle sockets after 100 sequential exchanges, want 1", n)
	}
	s.Close()
	if n := idleSockets(s); n != 0 {
		t.Errorf("%d idle sockets after Close, want 0", n)
	}
	reply, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkASReply(t, reply)
	if n := idleSockets(s); n != 0 {
		t.Errorf("a closed Selector kept %d sockets", n)
	}
}

// TestPooledDiscardsStaleDuplicate: a server that answers every
// request twice leaves the second copy queued on the client's socket
// after the exchange returns. The next exchange on that socket must
// discard it, not take it for the answer to the new request.
func TestPooledDiscardsStaleDuplicate(t *testing.T) {
	r := newRealm(t, testRealm)
	// Each answered request's echo, sent once both copies are written.
	// Room for every retransmission of one exchange, so the server never
	// blocks while the test is between reads.
	answered := make(chan core.KerberosTime, 64)
	addr := fakeKDC(t, func(_ int, req []byte, send func([]byte)) {
		reply := r.server.Handle(req, loopAddr)
		send(reply)
		send(reply)
		if ar, err := core.DecodeAuthRequest(req); err == nil {
			answered <- ar.Time
		}
	})
	s := NewSelector(addr)
	defer s.Close()
	const exchanges = 20
	for i := 0; i < exchanges; i++ {
		req, accept := asReqAt(r, i)
		reply, err := s.Exchange(req, accept, 2*time.Second)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if err := accept(reply); err != nil {
			t.Fatalf("exchange %d returned the reply to another request: %v", i, err)
		}
		// Wait until the duplicate is queued before the next exchange.
		want, _ := core.DecodeAuthRequest(req)
		for tm := range answered {
			if tm == want.Time {
				break
			}
		}
	}
	if n := idleSockets(s); n != 1 {
		t.Errorf("%d idle sockets, want 1", n)
	}
	if got := s.StaleReplies(); got < exchanges-1 {
		t.Errorf("%d stale replies discarded, want at least %d", got, exchanges-1)
	}
}

// TestSelectorDiscardsStaleReply: a KDC that sends, ahead of each
// genuine answer, a well-formed AUTH_REPLY to another request — the
// same client's request one second older, as a late answer reaching a
// reused socket or port would be. The exchange must skip it and return
// the genuine reply, on a freshly dialed socket and on a pooled one,
// and count exactly one stale reply.
func TestSelectorDiscardsStaleReply(t *testing.T) {
	r := newRealm(t, testRealm)
	for _, pooled := range []bool{false, true} {
		name := "fresh socket"
		if pooled {
			name = "pooled socket"
		}
		t.Run(name, func(t *testing.T) {
			warmReq, warmAccept := asReqAt(r, 0)
			var warmups atomic.Uint64 // requests for the warm-up exchange
			addr := fakeKDC(t, func(_ int, req []byte, send func([]byte)) {
				if string(req) == string(warmReq) {
					warmups.Add(1)
				} else if ar, err := core.DecodeAuthRequest(req); err == nil {
					ar.Time--
					send(r.server.Handle(ar.Encode(), loopAddr))
				}
				send(r.server.Handle(req, loopAddr))
			})
			s := NewSelector(addr)
			defer s.Close()
			var kept *udpSock
			if pooled {
				if _, err := s.Exchange(warmReq, warmAccept, 2*time.Second); err != nil {
					t.Fatal(err)
				}
				if kept = idleSocket(s, addr); kept == nil {
					t.Fatal("the warm-up exchange kept no socket")
				}
			}
			req, accept := asReqAt(r, 2)
			reply, err := s.Exchange(req, accept, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := accept(reply); err != nil {
				t.Fatalf("the exchange returned the stale reply: %v", err)
			}
			// A retransmitted warm-up leaves one more answer queued on
			// the pooled socket, ahead of the stale one.
			want := uint64(1)
			if pooled {
				want += warmups.Load() - 1
			}
			if got := s.StaleReplies(); got != want {
				t.Errorf("StaleReplies = %d, want %d", got, want)
			}
			reg := obs.NewRegistry()
			s.RegisterMetrics(reg)
			var text strings.Builder
			reg.WriteText(&text)
			if line := "client_stale_replies " + strconv.FormatUint(want, 10) + "\n"; !strings.Contains(text.String(), line) {
				t.Errorf("metrics lack %q:\n%s", line, text.String())
			}
			if pooled && idleSocket(s, addr) != kept {
				t.Error("the pooled socket was not kept for the next exchange")
			}
		})
	}
}

// TestSelectorStragglerEndsAtItsReply: an exchange raced to a slow KDC
// and a fast one returns the fast KDC's reply. The slow KDC's answer,
// arriving after Exchange has returned, ends the straggling attempt —
// its socket goes idle long before the deadline — without another call
// to accept.
func TestSelectorStragglerEndsAtItsReply(t *testing.T) {
	r, fast := serveRealm(t)
	release := make(chan struct{})
	slow := fakeKDC(t, func(_ int, req []byte, send func([]byte)) {
		<-release
		send(r.server.Handle(req, loopAddr))
	})
	s := NewSelector(slow, fast.Addr())
	defer s.Close()
	s.HeadStart = 20 * time.Millisecond
	var calls atomic.Int64
	acceptOne := acceptAS(r)
	accept := func(raw []byte) error {
		calls.Add(1)
		return acceptOne(raw)
	}
	_, err := s.Exchange(asReqBytes(r), accept, 5*time.Second)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Preferred(); got != fast.Addr() {
		t.Fatalf("preferred = %s, want the fast KDC %s", got, fast.Addr())
	}
	for start := time.Now(); idleSocket(s, slow) == nil; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			t.Fatal("the straggling attempt did not end at its KDC's reply")
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("accept called %d times, want 1", n)
	}
	if n := s.StaleReplies(); n != 0 {
		t.Errorf("StaleReplies = %d, want 0", n)
	}
}

// TestPooledSocketSurvivesIdleGap: a kept socket is reused after a
// pause longer than its last exchange's read deadline, which has by
// then expired.
func TestPooledSocketSurvivesIdleGap(t *testing.T) {
	r, l := serveRealm(t)
	s := NewSelector(l.Addr())
	defer s.Close()
	exchange := func() *udpSock {
		t.Helper()
		if _, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.idle[l.Addr()][0]
	}
	first := exchange()
	time.Sleep(3 * udpRetryBase) // past every read deadline the exchange set
	if exchange() != first {
		t.Error("the kept socket was replaced after an idle gap")
	}
}

// TestPooledUncleanExchangesClose: a socket is kept after any exchange
// that returned an accepted reply, however it got there — after a
// retransmission, or past a held ErrRepeat — and the next exchange on
// it still gets its own reply. An error reply cannot be matched to its
// request, so that exchange closes its socket.
func TestPooledUncleanExchangesClose(t *testing.T) {
	r := newRealm(t, testRealm)
	repeat := (&core.ErrorMessage{Code: core.ErrRepeat, Text: "replay"}).Encode()
	cases := []struct {
		name  string
		keep  bool
		serve func(i int, req []byte, send func([]byte))
	}{
		{"retransmitted", true, func(i int, req []byte, send func([]byte)) {
			if i > 0 { // the first datagram is lost
				send(r.server.Handle(req, loopAddr))
			}
		}},
		{"error reply", false, func(_ int, _ []byte, send func([]byte)) {
			send((&core.ErrorMessage{Code: core.ErrPrincipalUnknown, Text: "ghost"}).Encode())
		}},
		{"held ErrRepeat", true, func(_ int, req []byte, send func([]byte)) {
			send(repeat)
			send(r.server.Handle(req, loopAddr))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeKDC(t, tc.serve)
			s := NewSelector(addr)
			defer s.Close()
			req, accept := asReqAt(r, 0)
			if _, err := s.Exchange(req, accept, 2*time.Second); err != nil {
				t.Fatal(err)
			}
			kept := idleSocket(s, addr)
			if !tc.keep {
				if n := idleSockets(s); n != 0 {
					t.Errorf("%d idle sockets, want 0", n)
				}
				return
			}
			if kept == nil {
				t.Fatalf("%d idle sockets, want 1", idleSockets(s))
			}
			req, accept = asReqAt(r, 1)
			reply, err := s.Exchange(req, accept, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := accept(reply); err != nil {
				t.Fatalf("the kept socket's next exchange got another request's reply: %v", err)
			}
			if idleSocket(s, addr) != kept {
				t.Error("the next exchange did not run on the kept socket")
			}
		})
	}
}

// TestPooledSocketToDeadKDC: a kept socket whose KDC has since died
// fails fast with ECONNREFUSED, like a fresh one would, and a
// two-address Selector fails over well inside its head start.
func TestPooledSocketToDeadKDC(t *testing.T) {
	r, l := serveRealm(t)
	s := NewSelector(l.Addr())
	defer s.Close()
	if _, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	l.Close()
	start := time.Now()
	_, err := s.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("exchange with a dead KDC: err = %v, want ECONNREFUSED", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("refused exchange took %v; it should fail fast", elapsed)
	}

	lA, err := Serve(r.server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lA.Close()
	lB, err := Serve(r.server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lB.Close()
	s2 := NewSelector(lA.Addr(), lB.Addr())
	defer s2.Close()
	s2.HeadStart = time.Second
	if _, err := s2.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	lA.Close()
	start = time.Now()
	reply, err := s2.Exchange(asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkASReply(t, reply)
	if elapsed := time.Since(start); elapsed >= s2.HeadStart/2 {
		t.Errorf("failover took %v; a refused kept socket should forfeit the %v head start", elapsed, s2.HeadStart)
	}
	if got := s2.Preferred(); got != lB.Addr() {
		t.Errorf("preferred = %s, want %s", got, lB.Addr())
	}
}

// TestPooledConcurrentExchanges: one Selector shared by 8 goroutines
// never holds more idle sockets than exchanges ever ran at once.
func TestPooledConcurrentExchanges(t *testing.T) {
	r, l := serveRealm(t)
	s := NewSelector(l.Addr())
	defer s.Close()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				reply, err := s.Exchange(asReqBytes(r), acceptAS(r), 5*time.Second)
				if err == nil {
					err = core.IfErrorMessage(reply)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := idleSockets(s); n > workers {
		t.Errorf("%d idle sockets after %d concurrent workers", n, workers)
	}
}

// TestSelectorCloseReleasesSockets: a throwaway Selector, closed after
// its exchange, leaves no descriptor behind.
func TestSelectorCloseReleasesSockets(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd on this platform")
		}
		return len(ents)
	}
	r, l := serveRealm(t)
	exchange := func() {
		t.Helper()
		if _, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	exchange() // the runtime's poller opens its descriptors on first use
	before := fds()
	for i := 0; i < 200; i++ {
		exchange()
	}
	if after := fds(); after > before {
		t.Errorf("open descriptors went from %d to %d over 200 closed Selectors", before, after)
	}
}

// BenchmarkSelectorExchangeUDP is one AS exchange per iteration through
// one Selector to a loopback KDC: the client's per-exchange socket cost
// plus the server's round trip.
func BenchmarkSelectorExchangeUDP(b *testing.B) {
	r := newRealm(b, testRealm)
	l, err := Serve(r.server, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	s := NewSelector(l.Addr())
	defer s.Close()
	req, accept := asReqBytes(r), acceptAS(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exchange(req, accept, 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
