package client

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/testclock"
)

const testRealm = "ATHENA.MIT.EDU"

var (
	t0       = time.Date(1988, 2, 9, 12, 0, 0, 0, time.UTC)
	loopback = core.Addr{127, 0, 0, 1}
)

type testEnv struct {
	db       *kdb.Database
	listener *kdc.Listener
	clock    *testclock.Clock
	config   *Config
	svcKey   des.Key // rlogin.priam key
	svcKVNO  uint8
}

// newEnv stands up a live realm: database, KDC on loopback, and a config
// pointing at it. The clock is shared and adjustable.
func newEnv(t testing.TB, realmName string) *testEnv {
	t.Helper()
	env := &testEnv{clock: testclock.New(t0)}
	clockFn := env.clock.Now

	env.db = kdb.New(des.StringToKey("master", realmName))
	tgsKey, _ := des.NewRandomKey()
	if err := env.db.Add(core.TGSName, realmName, tgsKey, 0, "kdb_init", t0); err != nil {
		t.Fatal(err)
	}
	if err := env.db.Add("jis", "", PasswordKey(core.Principal{Name: "jis", Realm: realmName}, "zanzibar"), 0, "register", t0); err != nil {
		t.Fatal(err)
	}
	env.svcKey, _ = des.NewRandomKey()
	if err := env.db.Add("rlogin", "priam", env.svcKey, 0, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	env.svcKVNO = 1
	cpKey, _ := des.NewRandomKey()
	if err := env.db.Add(core.ChangePwName, core.ChangePwInstance, cpKey, 12, "kdb_init", t0); err != nil {
		t.Fatal(err)
	}
	popKey, _ := des.NewRandomKey()
	if err := env.db.Add("pop", "po10", popKey, 12, "kadmin", t0); err != nil {
		t.Fatal(err)
	}

	server := kdc.New(realmName, env.db, kdc.WithClock(clockFn))
	l, err := kdc.Serve(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	env.listener = l
	env.config = &Config{
		Realms:  map[string][]string{realmName: {l.Addr()}},
		Timeout: 2 * time.Second,
	}
	return env
}

func (e *testEnv) newClient(t testing.TB, name string) *Client {
	t.Helper()
	c := New(core.Principal{Name: name, Realm: testRealm}, e.config)
	c.Addr = loopback
	c.Clock = e.clock.Now
	return c
}

func (e *testEnv) service(t testing.TB) *Service {
	t.Helper()
	sp := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tab := NewSrvtab()
	tab.Set(sp, e.svcKVNO, e.svcKey)
	svc := NewService(sp, tab)
	svc.Clock = e.clock.Now
	return svc
}

// TestLogin is the kinit flow of §4.2/§6.1.
func TestLogin(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	cred, err := c.Login("zanzibar")
	if err != nil {
		t.Fatal(err)
	}
	if cred.Service != core.TGSPrincipal(testRealm, testRealm) {
		t.Errorf("TGT service = %v", cred.Service)
	}
	if cred.Life != core.DefaultTGTLife {
		t.Errorf("TGT life = %v", cred.Life)
	}
	if c.Cache.Len() != 1 {
		t.Errorf("cache has %d creds", c.Cache.Len())
	}
	// A second login with the wrong password fails at decryption, not at
	// the KDC (§4.2).
	if _, err := c.Login("wrong-guess"); err == nil {
		t.Error("wrong password logged in")
	}
}

// TestWrongPasswordFailsAtDecryption: a reply that does not open under
// the password's key is refused like a stale one, so a wrong password
// runs out the exchange's budget. The error is still the decryption
// failure, not a timeout; it arrives within the budget plus one
// retransmission interval; and nothing is cached.
func TestWrongPasswordFailsAtDecryption(t *testing.T) {
	env := newEnv(t, testRealm)
	env.config.Timeout = 300 * time.Millisecond
	c := env.newClient(t, "jis")
	start := time.Now()
	_, err := c.Login("wrong-guess")
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "cannot decrypt KDC reply (incorrect password?)") {
		t.Fatalf("wrong password: err = %v, want the decryption failure", err)
	}
	// 120ms is the exchange's first retransmission interval.
	if limit := env.config.Timeout + 120*time.Millisecond; elapsed > limit {
		t.Errorf("wrong password took %v, over %v", elapsed, limit)
	}
	if n := c.Cache.Len(); n != 0 {
		t.Errorf("%d credentials cached after a wrong password", n)
	}
}

func TestLoginUnknownUser(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "ghost")
	_, err := c.Login("whatever")
	var pe *core.ProtocolError
	if !errors.As(err, &pe) || pe.Code != core.ErrPrincipalUnknown {
		t.Errorf("unknown user error = %v", err)
	}
}

// TestGetCredentials exercises the TGS path and the cache.
func TestGetCredentials(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	cred1, err := c.GetCredentials(svc)
	if err != nil {
		t.Fatal(err)
	}
	if cred1.Service != svc {
		t.Errorf("service = %v", cred1.Service)
	}
	// Second call hits the cache: same ticket bytes, no new KDC trip.
	cred2, err := c.GetCredentials(svc)
	if err != nil {
		t.Fatal(err)
	}
	if string(cred1.Ticket) != string(cred2.Ticket) {
		t.Error("cache miss on second GetCredentials")
	}
	// Without a TGT, GetCredentials refuses.
	c2 := env.newClient(t, "jis")
	if _, err := c2.GetCredentials(svc); !errors.Is(err, ErrNoTGT) {
		t.Errorf("no-TGT error = %v", err)
	}
}

// replayingKDC is a UDP endpoint that relays the first request it
// receives to the KDC at realAddr and answers every request, that one
// included, with the reply it got back.
func replayingKDC(t *testing.T, realAddr string) string {
	t.Helper()
	pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	// The relay holds no key, so it takes any well-formed reply.
	relay := kdc.NewSelector(realAddr)
	t.Cleanup(func() { relay.Close() })
	go func() {
		var first []byte
		buf := make([]byte, kdc.MaxUDPMessage)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if first == nil {
				first, err = relay.Exchange(buf[:n], func([]byte) error { return nil }, time.Second)
				if err != nil {
					return
				}
			}
			pc.WriteTo(first, from)
		}
	}()
	return pc.LocalAddr().String()
}

// TestReplyForOtherServiceRejected: the sealed echo has one-second
// resolution, so a recorded reply from the same second passes it. A
// reply that names a different service than the one requested must
// still be refused, and nothing cached for the requested service.
func TestReplyForOtherServiceRejected(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	env.config.Realms[testRealm] = []string{replayingKDC(t, env.listener.Addr())}
	svcA := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	svcB := core.Principal{Name: "pop", Instance: "po10", Realm: testRealm}
	if _, err := c.GetCredentials(svcA); err != nil {
		t.Fatal(err)
	}
	var pe *core.ProtocolError
	if cred, err := c.GetCredentials(svcB); !errors.As(err, &pe) {
		t.Fatalf("TGS reply for %v accepted as the answer for %v: cred %v, err %v", svcA, svcB, cred, err)
	}
	if _, ok := c.Cache.Get(svcB, env.clock.Now()); ok {
		t.Errorf("credentials for %v cached from a reply for %v", svcB, svcA)
	}

	// The AS exchange: a changepw reply must not pass for a TGT.
	c2 := env.newClient(t, "jis")
	env.config.Realms[testRealm] = []string{replayingKDC(t, env.listener.Addr())}
	if _, err := c2.LoginService("zanzibar", core.ChangePwPrincipal(testRealm), 0); err != nil {
		t.Fatal(err)
	}
	if cred, err := c2.Login("zanzibar"); !errors.As(err, &pe) {
		t.Fatalf("AS reply for changepw accepted as a TGT: cred %v, err %v", cred, err)
	}
	if _, ok := c2.Cache.Get(core.TGSPrincipal(testRealm, testRealm), env.clock.Now()); ok {
		t.Error("a TGT was cached from a changepw reply")
	}
}

// TestAPExchange is Figure 6 end to end over the library: krb_mk_req on
// the client, krb_rd_req on the server.
func TestAPExchange(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	svc := env.service(t)

	msg, sess, err := c.MkReq(svc.Principal, 0x1234, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.ReadRequest(msg, loopback)
	if err != nil {
		t.Fatal(err)
	}
	if got.Client.Name != "jis" || got.Client.Realm != testRealm {
		t.Errorf("authenticated client = %v", got.Client)
	}
	if got.Checksum != 0x1234 {
		t.Errorf("checksum = %#x", got.Checksum)
	}
	if got.SessionKey != sess.SessionKey {
		t.Error("session keys differ between sides")
	}
	if got.MutualAuth || len(got.Reply) != 0 {
		t.Error("unexpected mutual-auth reply")
	}
}

// TestMutualAuthEndToEnd is Figure 7 over the library.
func TestMutualAuthEndToEnd(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	svc := env.service(t)

	msg, sess, err := c.MkReq(svc.Principal, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.ReadRequest(msg, loopback)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MutualAuth || len(got.Reply) == 0 {
		t.Fatal("server did not produce a mutual-auth reply")
	}
	if err := sess.VerifyReply(got.Reply); err != nil {
		t.Errorf("client rejected genuine server proof: %v", err)
	}
	// An imposter without the service key can't even read the request,
	// let alone fake the proof; simulate a fake reply under a random key.
	fakeKey, _ := des.NewRandomKey()
	fake := core.NewAPReply(fakeKey, core.NewAuthenticator(c.Principal, loopback, env.clock.Now(), 0))
	if err := sess.VerifyReply(fake.Encode()); err == nil {
		t.Error("client accepted forged server proof")
	}
}

// TestServiceReplayDetection: the same AP request presented twice is
// rejected the second time (§4.3).
func TestServiceReplayDetection(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	svc := env.service(t)
	msg, _, err := c.MkReq(svc.Principal, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ReadRequest(msg, loopback); err != nil {
		t.Fatal(err)
	}
	_, err = svc.ReadRequest(msg, loopback)
	var pe *core.ProtocolError
	if !errors.As(err, &pe) || pe.Code != core.ErrRepeat {
		t.Errorf("replay error = %v", err)
	}
}

// TestServiceAddressCheck: a request relayed from another host fails.
func TestServiceAddressCheck(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	svc := env.service(t)
	msg, _, err := c.MkReq(svc.Principal, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.ReadRequest(msg, core.Addr{10, 1, 2, 3})
	var pe *core.ProtocolError
	if !errors.As(err, &pe) || pe.Code != core.ErrBadAddr {
		t.Errorf("relayed request error = %v", err)
	}
}

// TestServiceWrongService: a ticket for rlogin.priam is useless at
// rlogin.helen — "a separate ticket is required to gain access to
// different instances of the same service" (§3).
func TestServiceWrongInstance(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	msg, _, err := c.MkReq(core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// helen has its own key.
	helen := core.Principal{Name: "rlogin", Instance: "helen", Realm: testRealm}
	helenKey, _ := des.NewRandomKey()
	tab := NewSrvtab()
	tab.Set(helen, 1, helenKey)
	svcHelen := NewService(helen, tab)
	svcHelen.Clock = env.clock.Now
	if _, err := svcHelen.ReadRequest(msg, loopback); err == nil {
		t.Error("priam ticket accepted at helen")
	}
}

// TestSessionMessages: safe and private traffic over an authenticated
// session (§2.1 protection levels).
func TestSessionMessages(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	svc := env.service(t)
	msg, cSess, err := c.MkReq(svc.Principal, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	sSess, err := svc.ReadRequest(msg, loopback)
	if err != nil {
		t.Fatal(err)
	}

	// Client → server safe message.
	safe := cSess.MkSafe([]byte("read /mit/jis/thesis.tex"))
	if data, err := sSess.RdSafe(safe); err != nil || string(data) != "read /mit/jis/thesis.tex" {
		t.Errorf("safe message: %q, %v", data, err)
	}
	// Server → client private message.
	priv := sSess.MkPriv([]byte("file contents: top secret"))
	if data, err := cSess.RdPriv(priv, core.Addr{}); err != nil || string(data) != "file contents: top secret" {
		t.Errorf("private message: %q, %v", data, err)
	}
	// Cross-session keys don't verify. (Advance the clock: with a frozen
	// test clock a second TGS authenticator would be byte-identical and
	// correctly rejected as a replay.)
	env.clock.Advance(2 * time.Second)
	other := env.newClient(t, "jis")
	if _, err := other.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	_, otherSess, err := other.MkReq(svc.Principal, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherSess.RdPriv(priv, core.Addr{}); err == nil {
		t.Error("private message decrypted under a different session key")
	}
}

// TestKVNOMismatch: after the service's key is changed in the database,
// old srvtabs stop accepting fresh tickets cleanly.
func TestKVNOMismatch(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	// The admin rotates the rlogin.priam key (kvno 2); the server still
	// holds kvno 1.
	newKey, _ := des.NewRandomKey()
	if err := env.db.SetKey("rlogin", "priam", newKey, "kadmin", env.clock.Now()); err != nil {
		t.Fatal(err)
	}
	svc := env.service(t) // holds kvno 1 key
	msg, _, err := c.MkReq(svc.Principal, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.ReadRequest(msg, loopback)
	var pe *core.ProtocolError
	if !errors.As(err, &pe) || pe.Code != core.ErrIntegrityFailed {
		t.Errorf("kvno mismatch error = %v", err)
	}
}

// TestExpiredTicketRefetched: an expired service ticket is transparently
// replaced while the TGT lives.
func TestExpiredTicketRefetched(t *testing.T) {
	env := newEnv(t, testRealm)
	c := env.newClient(t, "jis")
	if _, err := c.Login("zanzibar"); err != nil {
		t.Fatal(err)
	}
	// pop tickets live at most one hour (MaxLife 12).
	pop := core.Principal{Name: "pop", Instance: "po10", Realm: testRealm}
	cred1, err := c.GetCredentials(pop)
	if err != nil {
		t.Fatal(err)
	}
	if cred1.Life != 12 {
		t.Fatalf("pop ticket life = %d", cred1.Life)
	}
	env.clock.Set(t0.Add(2 * time.Hour))
	cred2, err := c.GetCredentials(pop)
	if err != nil {
		t.Fatal(err)
	}
	if string(cred1.Ticket) == string(cred2.Ticket) {
		t.Error("expired ticket served from cache")
	}
	// After the TGT itself dies, the user must kinit again (§6.1).
	env.clock.Set(t0.Add(9 * time.Hour))
	if _, err := c.GetCredentials(pop); !errors.Is(err, ErrNoTGT) {
		t.Errorf("after TGT expiry: %v", err)
	}
}
