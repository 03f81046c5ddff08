package kdc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
)

const testRealm = "ATHENA.MIT.EDU"

var (
	t0       = time.Date(1988, 2, 9, 12, 0, 0, 0, time.UTC)
	wsAddr   = core.Addr{18, 72, 0, 3}
	userPass = "zanzibar"
)

// fakeClock is an adjustable time source.
type fakeClock struct{ now time.Time }

func (f *fakeClock) time() time.Time { return f.now }

// realm bundles a test realm.
type realm struct {
	server  *Server
	db      *kdb.Database
	clock   *fakeClock
	userKey des.Key
	tgsKey  des.Key
}

// newRealm builds a database with krbtgt, one user (jis) and one service
// (rlogin.priam), and an AS/TGS server over it.
func newRealm(t testing.TB, name string) *realm {
	t.Helper()
	db := kdb.New(des.StringToKey("master", name))
	clock := &fakeClock{now: t0}

	tgsKey, _ := des.NewRandomKey()
	if err := db.Add(core.TGSName, name, tgsKey, 0, "kdb_init", t0); err != nil {
		t.Fatal(err)
	}
	userKey := des.StringToKey(userPass, name+"jis")
	if err := db.Add("jis", "", userKey, 0, "register", t0); err != nil {
		t.Fatal(err)
	}
	svcKey, _ := des.NewRandomKey()
	if err := db.Add("rlogin", "priam", svcKey, 0, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	cpKey, _ := des.NewRandomKey()
	if err := db.Add(core.ChangePwName, core.ChangePwInstance, cpKey, 12, "kdb_init", t0); err != nil {
		t.Fatal(err)
	}
	return &realm{
		server:  New(name, db, WithClock(clock.time)),
		db:      db,
		clock:   clock,
		userKey: userKey,
		tgsKey:  tgsKey,
	}
}

// asExchange performs the Figure 5 exchange and returns the opened reply.
func (r *realm) asExchange(t testing.TB, service core.Principal, life core.Lifetime) *core.EncTicketReply {
	t.Helper()
	req := &core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: r.server.Realm()},
		Service: service,
		Life:    life,
		Time:    core.TimeFromGo(r.clock.now),
	}
	raw := r.server.Handle(req.Encode(), wsAddr)
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("AS exchange failed: %v", err)
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rep.Open(r.userKey)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// tgsExchange performs the Figure 8 exchange using a TGT reply.
func (r *realm) tgsExchange(t testing.TB, tgt *core.EncTicketReply, service core.Principal, life core.Lifetime, ticketRealm string) ([]byte, *core.Authenticator) {
	t.Helper()
	auth := core.NewAuthenticator(
		core.Principal{Name: "jis", Realm: ticketRealm}, wsAddr, r.clock.now, 0)
	req := &core.TGSRequest{
		APReq: core.APRequest{
			KVNO:          tgt.KVNO,
			TicketRealm:   ticketRealm,
			Ticket:        tgt.Ticket,
			Authenticator: auth.Seal(tgt.SessionKey),
		},
		Service: service,
		Life:    life,
		Time:    core.TimeFromGo(r.clock.now),
	}
	return r.server.Handle(req.Encode(), wsAddr), auth
}

// TestASExchange reproduces Figure 5: the initial ticket.
func TestASExchange(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	enc := r.asExchange(t, tgs, core.DefaultTGTLife)

	if enc.Server != tgs {
		t.Errorf("reply server = %v, want %v", enc.Server, tgs)
	}
	if enc.Life != core.DefaultTGTLife {
		t.Errorf("granted life = %v, want %v", enc.Life, core.DefaultTGTLife)
	}
	if enc.Issued != core.TimeFromGo(t0) {
		t.Errorf("issued = %v", enc.Issued)
	}
	if enc.RequestTime != core.TimeFromGo(t0) {
		t.Error("request time not echoed")
	}
	// The ticket itself opens only with the TGS key and matches the
	// session key handed to the client.
	tkt, err := core.OpenTicket(r.tgsKey, enc.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	if tkt.SessionKey != enc.SessionKey {
		t.Error("ticket session key differs from reply session key")
	}
	if tkt.Client.Name != "jis" || tkt.Client.Realm != testRealm {
		t.Errorf("ticket client = %v", tkt.Client)
	}
	if tkt.Addr != wsAddr {
		t.Errorf("ticket addr = %v, want %v", tkt.Addr, wsAddr)
	}
	// The user cannot open the ticket with their own key.
	if _, err := core.OpenTicket(r.userKey, enc.Ticket); err == nil {
		t.Error("ticket opened with user key")
	}
	if got := r.server.Metrics().ASRequests.Load(); got != 1 {
		t.Errorf("AS request count = %d", got)
	}
}

// TestASWrongPasswordFailsAtClient: the KDC answers regardless; only the
// right password-derived key opens the reply (§4.2).
func TestASWrongPassword(t *testing.T) {
	r := newRealm(t, testRealm)
	req := &core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: testRealm},
		Service: core.TGSPrincipal(testRealm, testRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(t0),
	}
	raw := r.server.Handle(req.Encode(), wsAddr)
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	wrong := des.StringToKey("wrong-guess", testRealm+"jis")
	if _, err := rep.Open(wrong); err == nil {
		t.Error("reply opened with wrong password")
	}
}

func protoCode(t *testing.T, raw []byte) core.ErrorCode {
	t.Helper()
	err := core.IfErrorMessage(raw)
	if err == nil {
		t.Fatal("expected an error reply")
	}
	var pe *core.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("not a protocol error: %v", err)
	}
	return pe.Code
}

func TestASErrors(t *testing.T) {
	r := newRealm(t, testRealm)
	mk := func(client, service core.Principal) []byte {
		return (&core.AuthRequest{Client: client, Service: service,
			Life: 10, Time: core.TimeFromGo(t0)}).Encode()
	}
	jis := core.Principal{Name: "jis", Realm: testRealm}
	tgs := core.TGSPrincipal(testRealm, testRealm)

	if c := protoCode(t, r.server.Handle(mk(core.Principal{Name: "ghost", Realm: testRealm}, tgs), wsAddr)); c != core.ErrPrincipalUnknown {
		t.Errorf("unknown client code = %v", c)
	}
	if c := protoCode(t, r.server.Handle(mk(jis, core.Principal{Name: "nosuch", Realm: testRealm}), wsAddr)); c != core.ErrPrincipalUnknown {
		t.Errorf("unknown service code = %v", c)
	}
	other := core.Principal{Name: "jis", Realm: "LCS.MIT.EDU"}
	if c := protoCode(t, r.server.Handle(mk(other, tgs), wsAddr)); c != core.ErrWrongRealm {
		t.Errorf("wrong realm code = %v", c)
	}
	// Expired principal: "The expiration date is the date after which an
	// entry is no longer valid" (§2.2).
	key, _ := des.NewRandomKey()
	if err := r.db.Add("oldtimer", "", key, 0, "x", t0.Add(-4*365*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c := protoCode(t, r.server.Handle(mk(core.Principal{Name: "oldtimer", Realm: testRealm}, tgs), wsAddr)); c != core.ErrPrincipalExpired {
		t.Errorf("expired principal code = %v", c)
	}
}

// TestASLifetimeCap: granted life respects both the request and the
// service's registered maximum.
func TestASLifetimeCap(t *testing.T) {
	r := newRealm(t, testRealm)
	// changepw has MaxLife 12 (1 hour, 5-min units 0..11).
	enc := r.asExchange(t, core.ChangePwPrincipal(testRealm), core.MaxLife)
	if enc.Life != 12 {
		t.Errorf("granted life = %d, want service cap 12", enc.Life)
	}
	// Request below the cap is honored exactly.
	enc = r.asExchange(t, core.ChangePwPrincipal(testRealm), 3)
	if enc.Life != 3 {
		t.Errorf("granted life = %d, want 3", enc.Life)
	}
}

// TestTGSExchange reproduces Figure 8: getting a server ticket with the
// TGT, no password involved.
func TestTGSExchange(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)

	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	raw, _ := r.tgsExchange(t, tgt, svc, core.MaxLife, testRealm)
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("TGS exchange failed: %v", err)
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	// "the reply is encrypted in the session key that was part of the
	// ticket-granting ticket" (§4.4).
	enc, err := rep.Open(tgt.SessionKey)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Server != svc {
		t.Errorf("service = %v", enc.Server)
	}
	// Life = min(remaining TGT life, service default): TGT is fresh with
	// 8h; service has no cap; requested max ⇒ remaining TGT life.
	if enc.Life != core.DefaultTGTLife {
		t.Errorf("granted life = %v, want %v", enc.Life, core.DefaultTGTLife)
	}
	// The service can open the ticket with its key.
	svcEntry, _ := r.db.Get("rlogin", "priam")
	svcKey, _ := r.db.Key(svcEntry)
	tkt, err := core.OpenTicket(svcKey, enc.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	if tkt.Client.Name != "jis" || tkt.Client.Realm != testRealm {
		t.Errorf("ticket client = %v", tkt.Client)
	}
	if tkt.SessionKey == tgt.SessionKey {
		t.Error("TGS reused the TGT session key for the new ticket")
	}
}

// TestTGSLifetimeIsRemainingLife: after 6 of the TGT's 8 hours, a new
// ticket lives at most the remaining 2 hours (§4.4).
func TestTGSLifetimeIsRemainingLife(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	r.clock.now = t0.Add(6 * time.Hour)

	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	raw, _ := r.tgsExchange(t, tgt, svc, core.MaxLife, testRealm)
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		t.Fatalf("TGS failed: %v (%s)", err, raw)
	}
	enc, err := rep.Open(tgt.SessionKey)
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.Life.Duration(); got != 2*time.Hour {
		t.Errorf("granted life = %v, want 2h (remaining TGT life)", got)
	}
}

// TestTGSRefusesChangePw reproduces §5.1: "the ticket-granting service
// will not issue tickets for it."
func TestTGSRefusesChangePw(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	raw, _ := r.tgsExchange(t, tgt, core.ChangePwPrincipal(testRealm), 10, testRealm)
	if c := protoCode(t, raw); c != core.ErrCannotIssue {
		t.Errorf("changepw via TGS code = %v, want refusal", c)
	}
	// But the AS issues it happily (forcing a password entry).
	r.asExchange(t, core.ChangePwPrincipal(testRealm), 10)
}

// TestTGSReplayDetected reproduces §4.3: "a request received with the
// same ticket and time stamp as one already received can be discarded."
func TestTGSReplayDetected(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}

	auth := core.NewAuthenticator(core.Principal{Name: "jis", Realm: testRealm}, wsAddr, r.clock.now, 0)
	req := &core.TGSRequest{
		APReq: core.APRequest{
			TicketRealm:   testRealm,
			Ticket:        tgt.Ticket,
			Authenticator: auth.Seal(tgt.SessionKey),
		},
		Service: svc,
		Life:    10,
		Time:    core.TimeFromGo(r.clock.now),
	}
	first := r.server.Handle(req.Encode(), wsAddr)
	if err := core.IfErrorMessage(first); err != nil {
		t.Fatalf("first request failed: %v", err)
	}
	// The byte-identical message again — what a client retransmitting
	// after a lost reply sends. The server discards the work (§4.3) but
	// answers idempotently with the remembered original reply; replaying
	// it off the network gains an attacker nothing new.
	second := r.server.Handle(req.Encode(), wsAddr)
	if !bytes.Equal(first, second) {
		t.Errorf("retransmitted request not answered with the original reply")
	}
	if got := r.server.Metrics().TGSRetransmits.Load(); got != 1 {
		t.Errorf("TGSRetransmits = %d, want 1", got)
	}
	// The same authenticator stapled to a *different* request body is a
	// true replay and is refused.
	forged := *req
	forged.Service = core.Principal{Name: "pop", Instance: "po10", Realm: testRealm}
	if c := protoCode(t, r.server.Handle(forged.Encode(), wsAddr)); c != core.ErrRepeat {
		t.Errorf("replay code = %v, want %v", c, core.ErrRepeat)
	}
}

// TestTGSReplayAtWindowEdge pins §4.3's single-use promise at the exact
// edge of the replay window. An authenticator stamped ClockSkew ahead of
// the server clock passes the skew check, and passes it again exactly
// 2×ClockSkew later, when it is ClockSkew behind. At that instant the
// server must still remember it: the same authenticator on another
// request, here for a fresh TGT, is refused, and the byte-identical
// retransmission gets the original reply.
func TestTGSReplayAtWindowEdge(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}

	stamp := t0.Add(core.ClockSkew)
	req := r.tgsReqBytes(tgt, svc, stamp)
	first := r.server.Handle(req, wsAddr)
	if err := core.IfErrorMessage(first); err != nil {
		t.Fatalf("first request failed: %v", err)
	}

	r.clock.now = stamp.Add(core.ClockSkew)
	forged, err := core.DecodeTGSRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	forged.Service = core.TGSPrincipal(testRealm, testRealm)
	if c := protoCode(t, r.server.Handle(forged.Encode(), wsAddr)); c != core.ErrRepeat {
		t.Errorf("replay at the window edge: code = %v, want %v", c, core.ErrRepeat)
	}
	if again := r.server.Handle(req, wsAddr); !bytes.Equal(again, first) {
		t.Errorf("retransmission at the window edge was not answered with the original reply")
	}
}

// TestTGSAddressCheck: a request arriving from a host other than the
// one the ticket was issued to is refused (§4.3).
func TestTGSAddressCheck(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}

	auth := core.NewAuthenticator(core.Principal{Name: "jis", Realm: testRealm}, wsAddr, r.clock.now, 0)
	req := &core.TGSRequest{
		APReq: core.APRequest{
			TicketRealm:   testRealm,
			Ticket:        tgt.Ticket,
			Authenticator: auth.Seal(tgt.SessionKey),
		},
		Service: svc, Life: 10, Time: core.TimeFromGo(r.clock.now),
	}
	thief := core.Addr{10, 66, 66, 66}
	if c := protoCode(t, r.server.Handle(req.Encode(), thief)); c != core.ErrBadAddr {
		t.Errorf("stolen-ticket code = %v, want %v", c, core.ErrBadAddr)
	}
}

// TestTGSExpiredTGT: the TGT stops working when its 8 hours are up
// (§6.1), and the user must kinit again.
func TestTGSExpiredTGT(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	r.clock.now = t0.Add(9 * time.Hour)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	raw, _ := r.tgsExchange(t, tgt, svc, 10, testRealm)
	if c := protoCode(t, raw); c != core.ErrTktExpired {
		t.Errorf("expired TGT code = %v", c)
	}
}

// TestTGSSkewedAuthenticator: an authenticator whose time is outside the
// skew window is treated as a replay attempt (§4.3).
func TestTGSSkewedAuthenticator(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}

	stale := core.NewAuthenticator(core.Principal{Name: "jis", Realm: testRealm},
		wsAddr, r.clock.now.Add(-core.ClockSkew-time.Minute), 0)
	req := &core.TGSRequest{
		APReq: core.APRequest{
			TicketRealm:   testRealm,
			Ticket:        tgt.Ticket,
			Authenticator: stale.Seal(tgt.SessionKey),
		},
		Service: svc, Life: 10, Time: core.TimeFromGo(r.clock.now),
	}
	if c := protoCode(t, r.server.Handle(req.Encode(), wsAddr)); c != core.ErrSkew {
		t.Errorf("skew code = %v", c)
	}
}

// TestTGSRejectsServiceTicket: a ticket for an ordinary service cannot
// be used at the TGS to mint more tickets.
func TestTGSRejectsServiceTicket(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	raw, _ := r.tgsExchange(t, tgt, svc, 10, testRealm)
	rep, _ := core.DecodeAuthReply(raw)
	enc, err := rep.Open(tgt.SessionKey)
	if err != nil {
		t.Fatal(err)
	}
	// Present the rlogin ticket as if it were a TGT.
	raw, _ = r.tgsExchange(t, enc, svc, 10, testRealm)
	if core.IfErrorMessage(raw) == nil {
		t.Fatal("service ticket accepted at the TGS")
	}
}

// TestHandleGarbage: the KDC answers malformed input with error replies,
// never panics, never goes silent.
func TestHandleGarbage(t *testing.T) {
	r := newRealm(t, testRealm)
	for _, msg := range [][]byte{
		nil,
		{},
		{0xff},
		{9, 1, 0, 0},               // wrong version
		{4, 99},                    // unknown type
		{4, byte(core.MsgAPReply)}, // valid type the KDC doesn't serve
		(&core.AuthRequest{}).Encode()[:3],
	} {
		raw := r.server.Handle(msg, wsAddr)
		if raw == nil {
			t.Fatalf("nil reply for %x", msg)
		}
		if core.IfErrorMessage(raw) == nil {
			t.Errorf("no error reply for %x", msg)
		}
	}
}

// TestSlaveServesAuth reproduces Figure 10: a read-only slave copy
// answers authentication requests just like the master.
func TestSlaveServesAuth(t *testing.T) {
	master := newRealm(t, testRealm)
	slaveDB := kdb.New(master.db.MasterKey())
	if err := slaveDB.LoadDump(master.db.Dump()); err != nil {
		t.Fatal(err)
	}
	slaveDB.SetReadOnly(true)
	slave := New(testRealm, slaveDB, WithClock(master.clock.time))

	req := &core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: testRealm},
		Service: core.TGSPrincipal(testRealm, testRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(t0),
	}
	raw := slave.Handle(req.Encode(), wsAddr)
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("slave AS failed: %v", err)
	}
	rep, _ := core.DecodeAuthReply(raw)
	enc, err := rep.Open(master.userKey)
	if err != nil {
		t.Fatal(err)
	}
	// A ticket issued by the slave is honored by services (same keys).
	if _, err := core.OpenTicket(master.tgsKey, enc.Ticket); err != nil {
		t.Errorf("slave-issued ticket does not open with TGS key: %v", err)
	}
}
