package kdc

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/obs"
	"kerberos/internal/replay"
)

// TestTGSMemoLayoutRoundTrip: every field of a TGS memo survives pack
// and unpack, and distinct fields land in distinct bytes.
func TestTGSMemoLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var m tgsMemo
		rng.Read(m.sealedKey[:])
		rng.Read(m.addr[:])
		m.issued = core.KerberosTime(rng.Uint32())
		m.life = core.Lifetime(rng.Intn(256))
		m.kvno = uint8(rng.Intn(256))
		if got := unpackMemo(m.pack()); got != m {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
	want := replay.Memo{1, 2, 3, 4, 5, 6, 7, 8, 0x23, 0xd6, 0x8e, 0x00, 18, 72, 0, 3, 96, 9}
	m := tgsMemo{
		sealedKey: [des.KeySize]byte{1, 2, 3, 4, 5, 6, 7, 8},
		issued:    0x23d68e00,
		addr:      wsAddr,
		life:      96,
		kvno:      9,
	}
	if got := m.pack(); got != want {
		t.Errorf("pack = % x, want % x", got[:], want[:])
	}
}

// TestTGSRetransmitAfterKeyChange: the service's key and key version
// change between a request and its byte-identical retransmit. The
// original reply cannot be rebuilt, so the retransmit draws ErrRepeat,
// and no ticket is sealed under either key: the retransmit runs only
// its two unseals, the TGT and the authenticator.
func TestTGSRetransmitAfterKeyChange(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	req := r.tgsReqBytes(tgt, svc, t0)
	first := openBatchReply(t, r.server.Handle(req, wsAddr), tgt.SessionKey)

	newKey, _ := des.NewRandomKey()
	if err := r.db.SetKey(svc.Name, svc.Instance, newKey, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	if e, err := r.db.GetRO(svc.Name, svc.Instance); err != nil || e.KVNO == first.KVNO {
		t.Fatalf("service key version did not change (err %v)", err)
	}

	_, opsBefore := des.BatchCounters()
	again := r.server.Handle(req, wsAddr)
	_, opsAfter := des.BatchCounters()
	if c := protoCode(t, again); c != core.ErrRepeat {
		t.Errorf("retransmit after key change: code = %v, want %v", c, core.ErrRepeat)
	}
	if ops := opsAfter - opsBefore; ops != 2 {
		t.Errorf("retransmit after key change ran %d DES operations, want 2 (no ticket sealed)", ops)
	}
	if got := r.server.Metrics().TGSRetransmits.Load(); got != 0 {
		t.Errorf("TGSRetransmits = %d, want 0", got)
	}
}

// TestTGSRetransmitFromOtherAddr: the same datagram arriving again from
// a second address — here none, as a TCP connection over IPv6 reports —
// gets the original reply bytes, its ticket still bound to the address
// the original request came from.
func TestTGSRetransmitFromOtherAddr(t *testing.T) {
	r := newRealm(t, testRealm)
	popKey, _ := des.NewRandomKey()
	if err := r.db.Add("pop", "po10", popKey, 0, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	pop := core.Principal{Name: "pop", Instance: "po10", Realm: testRealm}
	req := r.tgsReqBytes(tgt, pop, t0)
	first := r.server.Handle(req, wsAddr)
	openBatchReply(t, first, tgt.SessionKey)

	r.clock.now = t0.Add(3 * time.Second)
	again := r.server.Handle(req, core.Addr{})
	if !bytes.Equal(again, first) {
		t.Fatal("retransmit from another address was not answered with the original reply")
	}
	tkt, err := core.OpenTicket(popKey, openBatchReply(t, again, tgt.SessionKey).Ticket)
	if err != nil {
		t.Fatal(err)
	}
	if tkt.Addr != wsAddr {
		t.Errorf("rebuilt ticket bound to %v, want %v", tkt.Addr, wsAddr)
	}
}

// TestTGSMemoHoldsNoPlainKey: over 1,000 exchanges, no 8-byte window of
// any remembered memo equals the session key the exchange issued; the
// memo's key block opens only under the TGT session key.
func TestTGSMemoHoldsNoPlainKey(t *testing.T) {
	r := newRealm(t, testRealm)
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgtCipher := des.NewCipher(tgt.SessionKey)
	for k := 0; k < 1000; k++ {
		at := t0.Add(time.Duration(k) * time.Microsecond)
		req := r.tgsReqBytes(tgt, svc, at)
		key := openBatchReply(t, r.server.Handle(req, wsAddr), tgt.SessionKey).SessionKey

		auth := core.NewAuthenticator(core.Principal{Name: "jis", Realm: testRealm}, wsAddr, at, 0)
		memo, v := r.server.replays.SeenWithMemo(auth, replay.Digest(req), r.clock.now)
		if v != replay.Retransmit {
			t.Fatalf("exchange %d: verdict %v, want a remembered memo", k, v)
		}
		for o := 0; o+des.KeySize <= len(memo); o++ {
			if bytes.Equal(memo[o:o+des.KeySize], key[:]) {
				t.Fatalf("exchange %d: memo holds the session key at offset %d", k, o)
			}
		}
		var opened des.Key
		sealed := unpackMemo(memo).sealedKey
		tgtCipher.DecryptBlock(opened[:], sealed[:])
		if opened != key {
			t.Fatalf("exchange %d: memo key block does not open to the session key", k)
		}
	}
}

// TestTGSRetransmitRebuildCounts: a retransmit answered by rebuilding
// from its memo — through Handle and through HandleBatch — counts once
// in TGSRetransmits and once in kdc_replay_memoized, and adds nothing to
// the replay cache.
func TestTGSRetransmitRebuildCounts(t *testing.T) {
	r := newRealm(t, testRealm)
	reg := obs.NewRegistry()
	r.server = New(testRealm, r.db, WithClock(r.clock.time), WithRegistry(reg))
	tgt := r.asExchange(t, core.TGSPrincipal(testRealm, testRealm), core.DefaultTGTLife)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	memoized := reg.Counter("kdc_replay_memoized")

	for k, via := range []struct {
		name   string
		handle func(msg []byte) []byte
	}{
		{"Handle", func(msg []byte) []byte { return r.server.Handle(msg, wsAddr) }},
		{"HandleBatch", func(msg []byte) []byte {
			batch := []BatchRequest{{Msg: msg, From: wsAddr}}
			r.server.HandleBatch(batch)
			return batch[0].Reply
		}},
	} {
		req := r.tgsReqBytes(tgt, svc, t0.Add(time.Duration(k)*time.Second))
		first := via.handle(req)
		openBatchReply(t, first, tgt.SessionKey)
		entries := r.server.ReplayLen()
		rexmits, memos := r.server.Metrics().TGSRetransmits.Load(), memoized.Load()

		if again := via.handle(req); !bytes.Equal(again, first) {
			t.Errorf("%s: rebuilt reply differs from the original", via.name)
		}
		if got := r.server.Metrics().TGSRetransmits.Load() - rexmits; got != 1 {
			t.Errorf("%s: TGSRetransmits rose by %d, want 1", via.name, got)
		}
		if got := memoized.Load() - memos; got != 1 {
			t.Errorf("%s: kdc_replay_memoized rose by %d, want 1", via.name, got)
		}
		if got := r.server.ReplayLen(); got != entries {
			t.Errorf("%s: ReplayLen = %d after the retransmit, want %d", via.name, got, entries)
		}
	}
}
