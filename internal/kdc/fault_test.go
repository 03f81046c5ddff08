package kdc

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"kerberos/internal/core"
)

// TestMain tightens the retransmission schedule for the whole package,
// so loss-recovery tests finish in tens of milliseconds instead of
// seconds. It is set once, not per test: exchange attempts against
// blackholed KDCs keep reading these tunables until their deadline,
// which can outlive the test that started them — a per-test restore
// would race with those stragglers.
func TestMain(m *testing.M) {
	udpRetryBase = 20 * time.Millisecond
	udpRetryMax = 160 * time.Millisecond
	os.Exit(m.Run())
}

// TestRetransmissionSurvivesLoss: the first two request datagrams are
// swallowed by the network; the third retransmission gets through and
// the exchange succeeds without burning the caller's whole budget.
// DropFirst makes the loss deterministic, so the assertion on the drop
// count is exact.
func TestRetransmissionSurvivesLoss(t *testing.T) {
	r, l := serveRealm(t)
	inj := NewFaultInjector(FaultSpec{DropFirst: 2})

	start := time.Now()
	reply, err := exchangeUDP(inj.DialUDP, l.Addr(), asReqBytes(r), acceptAS(r), time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatal(err)
	}
	if got := inj.Dropped.Load(); got != 2 {
		t.Errorf("dropped = %d, want exactly 2", got)
	}
	if got := inj.Sent.Load(); got < 3 {
		t.Errorf("sent = %d datagrams, want >= 3 (two losses force two retransmissions)", got)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("recovery took %v; two lost datagrams should cost two backoff intervals, not the budget", elapsed)
	}
}

// TestSeededLossRecovers: probabilistic 50% loss, seeded so the run is
// reproducible; several consecutive exchanges all succeed inside their
// deadlines.
func TestSeededLossRecovers(t *testing.T) {
	r, l := serveRealm(t)
	inj := NewFaultInjector(FaultSpec{LossRate: 0.5, Seed: 42})

	for i := 0; i < 5; i++ {
		reply, err := exchangeUDP(inj.DialUDP, l.Addr(), asReqBytes(r), acceptAS(r), time.Now().Add(2*time.Second))
		if err != nil {
			t.Fatalf("exchange %d under 50%% loss: %v", i, err)
		}
		if err := core.IfErrorMessage(reply); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	t.Logf("sent %d datagrams, %d dropped", inj.Sent.Load(), inj.Dropped.Load())
}

// tgsReqBytes obtains a TGT over the wire (so the ticket carries the
// loopback address) and builds an encoded Figure 8 ticket-granting
// request from it.
func tgsReqBytes(t *testing.T, r *realm, l *Listener) []byte {
	t.Helper()
	raw, err := exchangeOnce(l.Addr(), asReqBytes(r), acceptAS(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatal(err)
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rep.Open(r.userKey)
	if err != nil {
		t.Fatal(err)
	}
	auth := core.NewAuthenticator(
		core.Principal{Name: "jis", Realm: testRealm}, loopAddr, r.clock.now, 0)
	return (&core.TGSRequest{
		APReq: core.APRequest{
			KVNO:          enc.KVNO,
			TicketRealm:   testRealm,
			Ticket:        enc.Ticket,
			Authenticator: auth.Seal(enc.SessionKey),
		},
		Service: core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm},
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(r.clock.now),
	}).Encode()
}

// TestDuplicatedTGSRequestIdempotent: the network duplicates every
// datagram, so the KDC sees the ticket-granting request (and its
// replay-guarded authenticator) twice. The client must still end up
// with the genuine ticket — the duplicate is answered from the replay
// cache's reply memo or held back as a non-final ErrRepeat — never with
// a replay error.
func TestDuplicatedTGSRequestIdempotent(t *testing.T) {
	r, l := serveRealm(t)
	req := tgsReqBytes(t, r, l)
	inj := NewFaultInjector(FaultSpec{DupRate: 1})

	reply, err := exchangeUDP(inj.DialUDP, l.Addr(), req, shapeOnly, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatalf("duplicated delivery surfaced an error instead of the ticket: %v", err)
	}
	rep, err := core.DecodeAuthReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Open(r.userKey); err == nil {
		t.Error("TGS reply opened with the user key; it must be sealed under the TGT session key")
	}
	if got := inj.Duplicated.Load(); got < 1 {
		t.Errorf("duplicated = %d, want >= 1", got)
	}
}

// TestDelayedDeliveryStillAnswers: every datagram is held longer than
// the first retransmission interval, so replies race the client's own
// retransmits; the exchange must still settle on one valid reply.
func TestDelayedDeliveryStillAnswers(t *testing.T) {
	r, l := serveRealm(t)
	inj := NewFaultInjector(FaultSpec{Delay: 40 * time.Millisecond})

	reply, err := exchangeUDP(inj.DialUDP, l.Addr(), asReqBytes(r), acceptAS(r), time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatal(err)
	}
}

// TestStaleDatagramsIgnored: a "KDC" that prefixes every genuine answer
// with junk — a corrupted datagram, then a well-versioned message of the
// wrong type (as a stale request echo would be). The client's read loop
// must skip both and settle on the real reply; the old behavior was to
// return the first datagram whatever it held.
func TestStaleDatagramsIgnored(t *testing.T) {
	r := newRealm(t, testRealm)
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, MaxUDPMessage)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			req := append([]byte(nil), buf[:n]...)
			pc.WriteTo([]byte{0xde, 0xad, 0xbe, 0xef}, from) // garbage
			pc.WriteTo(req, from)                            // valid version, wrong type
			pc.WriteTo(r.server.Handle(req, loopAddr), from) // the real answer
		}
	}()

	reply, err := exchangeUDP(defaultDialUDP, pc.LocalAddr().String(), asReqBytes(r), acceptAS(r), time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatalf("client settled on a stale datagram: %v", err)
	}
}

// TestOversizedReplyFallsBackToTCP: when the answer exceeds the
// datagram bound, the server sends the explicit "retry over TCP" signal
// (instead of silently dropping the reply) and the client switches
// transports immediately — without waiting out the UDP retransmission
// budget.
func TestOversizedReplyFallsBackToTCP(t *testing.T) {
	old := maxUDPReply
	maxUDPReply = 64
	t.Cleanup(func() { maxUDPReply = old })
	r, l := serveRealm(t)
	req := asReqBytes(r)

	// The raw datagram path surfaces the explicit signal.
	reply, err := exchangeUDP(defaultDialUDP, l.Addr(), req, acceptAS(r), time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !IsReplyTooBig(reply) {
		t.Fatalf("want the ErrReplyTooBig signal, got %v", core.IfErrorMessage(reply))
	}

	// The full exchange turns the signal into a TCP retry, fast.
	start := time.Now()
	reply, err = exchangeOnce(l.Addr(), req, acceptAS(r), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.IfErrorMessage(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("TCP fallback took %v; the signal should preempt the UDP budget", elapsed)
	}
	if got := r.server.Metrics().UDPOverflows.Load(); got < 2 {
		t.Errorf("UDPOverflows = %d, want >= 2", got)
	}

	// A stream reply must pass the acceptance check too.
	refused := errors.New("refused")
	if _, err := exchangeOnce(l.Addr(), req, func([]byte) error { return refused }, 5*time.Second); !errors.Is(err, refused) {
		t.Errorf("a refused TCP reply: err = %v, want the refusal", err)
	}
}
