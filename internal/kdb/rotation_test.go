package kdb_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
)

const rotRealm = "ATHENA.MIT.EDU"

// TestHotKeyRotationInFlight changes a service's password while
// HandleBatch requests for it are in flight (run it with GOMAXPROCS=4
// and -race). Every reply must open under the TGT session key, and its
// ticket under the service key of the KVNO the reply names. Once the
// change has landed no slot of the hot-key table holds the old key,
// and a key retired with nothing in flight leaves its slot reading as
// all zeros.
func TestHotKeyRotationInFlight(t *testing.T) {
	db := kdb.New(des.StringToKey("master", rotRealm))
	now := time.Now()
	tgsKey, _ := des.NewRandomKey()
	userKey := des.StringToKey("zanzibar", rotRealm+"jis")
	svcKeys := []des.Key{des.StringToKey("svc-1", "R"), des.StringToKey("svc-2", "R"), des.StringToKey("svc-3", "R")}
	for _, p := range []struct {
		name, instance string
		key            des.Key
	}{{core.TGSName, rotRealm, tgsKey}, {"jis", "", userKey}, {"rcmd", "priam", svcKeys[0]}} {
		if err := db.Add(p.name, p.instance, p.key, 0, "test", now); err != nil {
			t.Fatal(err)
		}
	}
	srv := kdc.New(rotRealm, db)
	client := core.Principal{Name: "jis", Realm: rotRealm}
	svc := core.Principal{Name: "rcmd", Instance: "priam", Realm: rotRealm}
	addr := core.Addr{18, 72, 0, 3}

	asReq := (&core.AuthRequest{Client: client, Service: core.TGSPrincipal(rotRealm, rotRealm),
		Life: core.DefaultTGTLife, Time: core.TimeFromGo(now)}).Encode()
	tgt, err := openReply(srv.Handle(asReq, addr), userKey)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct authenticator times keep every request fresh to the
	// replay cache.
	var stamp atomic.Int64
	tgsReq := func() []byte {
		at := now.Add(time.Duration(stamp.Add(1)) * time.Microsecond)
		auth := core.NewAuthenticator(client, addr, at, 0)
		return (&core.TGSRequest{
			APReq: core.APRequest{KVNO: tgt.KVNO, TicketRealm: rotRealm, Ticket: tgt.Ticket,
				Authenticator: auth.Seal(tgt.SessionKey)},
			Service: svc, Life: core.MaxLife, Time: core.TimeFromGo(at),
		}).Encode()
	}
	// check opens a reply and its ticket under the key of the KVNO the
	// reply names, returning that KVNO.
	check := func(reply []byte) (uint8, error) {
		enc, err := openReply(reply, tgt.SessionKey)
		if err != nil {
			return 0, err
		}
		if enc.KVNO < 1 || int(enc.KVNO) > len(svcKeys) {
			return 0, core.NewError(core.ErrGeneric, "reply names KVNO %d", enc.KVNO)
		}
		if _, err := core.OpenTicket(svcKeys[enc.KVNO-1], enc.Ticket); err != nil {
			return 0, core.NewError(core.ErrGeneric, "ticket does not open under KVNO %d: %v", enc.KVNO, err)
		}
		return enc.KVNO, nil
	}

	if _, err := check(srv.Handle(tgsReq(), addr)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := kdb.HotSlotFor(db, svcKeys[0]); !ok {
		t.Fatal("the service key did not enter the hot-key table")
	}

	// served closes once the flood has answered 16 requests, renewed
	// once 16 of them were issued under the new key.
	served, renewed := make(chan struct{}), make(chan struct{})
	var nServed, nRenewed atomic.Int64
	signal := func(n *atomic.Int64, c chan struct{}) {
		if n.Add(1) == 16 {
			close(c)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]kdc.BatchRequest, 4)
			for !stop.Load() {
				for i := range batch {
					batch[i] = kdc.BatchRequest{Msg: tgsReq(), From: addr}
				}
				srv.HandleBatch(batch)
				for i := range batch {
					kvno, err := check(batch[i].Reply)
					if err != nil {
						t.Error(err)
						stop.Store(true)
						return
					}
					signal(&nServed, served)
					if kvno == 2 {
						signal(&nRenewed, renewed)
					}
				}
			}
		}()
	}
	waitFor := func(c chan struct{}, what string) {
		select {
		case <-c:
		case <-time.After(30 * time.Second):
			stop.Store(true)
			wg.Wait()
			t.Fatalf("flood stalled before %s", what)
		}
	}
	waitFor(served, "the change")
	if err := db.SetKey("rcmd", "priam", svcKeys[1], "test", now); err != nil {
		t.Fatal(err)
	}
	// The change has landed: no request still holding the old entry can
	// put its key back.
	if set, way, ok := kdb.HotSlotFor(db, svcKeys[0]); ok {
		t.Errorf("old key still in the hot-key table at (%d, %d) after the change", set, way)
	}
	waitFor(renewed, "replies under the new key")
	stop.Store(true)
	wg.Wait()

	// Nothing in flight: the slot that holds the current key reads as
	// all zeros as soon as the next change lands.
	set, way, ok := kdb.HotSlotFor(db, svcKeys[1])
	if !ok {
		t.Fatal("the new service key is not in the hot-key table")
	}
	if err := db.SetKey("rcmd", "priam", svcKeys[2], "test", now); err != nil {
		t.Fatal(err)
	}
	if !kdb.HotSlotZero(db, set, way) {
		t.Errorf("retired schedule at (%d, %d) does not read as zeros (holds key %x)",
			set, way, kdb.HotSlotKey(db, set, way))
	}
	if kvno, err := check(srv.Handle(tgsReq(), addr)); err != nil || kvno != 3 {
		t.Fatalf("after the second change: KVNO %d, %v", kvno, err)
	}
}

// openReply decodes an AS or TGS reply and opens it under key.
func openReply(raw []byte, key des.Key) (*core.EncTicketReply, error) {
	if err := core.IfErrorMessage(raw); err != nil {
		return nil, err
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		return nil, err
	}
	return rep.Open(key)
}
