package kprop

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
)

const testRealm = "ATHENA.MIT.EDU"

var t0 = time.Date(1988, 2, 9, 12, 0, 0, 0, time.UTC)

func masterDB(t testing.TB, n int) *kdb.Database {
	t.Helper()
	db := kdb.New(des.StringToKey("master", testRealm))
	key, _ := des.NewRandomKey()
	if err := db.Add(core.TGSName, testRealm, key, 0, "kdb_init", t0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		uk, _ := des.NewRandomKey()
		name := "user" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
		if err := db.Add(name, "", uk, 0, "register", t0); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestPropagation reproduces Figure 13 over real sockets: dump, encrypted
// checksum, transfer, verify, swap.
func TestPropagation(t *testing.T) {
	master := masterDB(t, 50)
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	m := NewMaster(master, []string{l.Addr()}, nil)
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if slaveDB.Len() != master.Len() {
		t.Errorf("slave has %d principals, master %d", slaveDB.Len(), master.Len())
	}
	if slave.Updates() != 1 || slave.Rejected() != 0 {
		t.Errorf("updates=%d rejected=%d", slave.Updates(), slave.Rejected())
	}
	// The slave stays read-only after the update (§5).
	if !slaveDB.ReadOnly() {
		t.Error("slave database became writable")
	}
	// Incremental change on the master propagates on the next push.
	nk, _ := des.NewRandomKey()
	if err := master.Add("newuser", "", nk, 0, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := slaveDB.Get("newuser", ""); err != nil {
		t.Errorf("new principal missing on slave: %v", err)
	}
}

// TestSlaveServesAuthAfterPropagation: the end goal — a KDC over the
// propagated copy can authenticate users (Figure 10).
func TestSlaveServesAuthAfterPropagation(t *testing.T) {
	master := masterDB(t, 1)
	userKey := des.StringToKey("pw", testRealm+"alice")
	if err := master.Add("alice", "", userKey, 0, "register", t0); err != nil {
		t.Fatal(err)
	}
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := NewMaster(master, []string{l.Addr()}, nil).PropagateAll(); err != nil {
		t.Fatal(err)
	}

	kdcSrv := kdc.New(testRealm, slaveDB, kdc.WithClock(func() time.Time { return t0 }))
	req := (&core.AuthRequest{
		Client:  core.Principal{Name: "alice", Realm: testRealm},
		Service: core.TGSPrincipal(testRealm, testRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(t0),
	}).Encode()
	raw := kdcSrv.Handle(req, core.Addr{127, 0, 0, 1})
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("slave KDC failed: %v", err)
	}
	rep, _ := core.DecodeAuthReply(raw)
	if _, err := rep.Open(userKey); err != nil {
		t.Errorf("slave-issued reply undecryptable: %v", err)
	}
}

// TestTamperedDumpRejected: bit flips in transit are caught by the
// checksum and the old database survives.
func TestTamperedDumpRejected(t *testing.T) {
	master := masterDB(t, 10)
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)

	dump := master.DumpShard(0)
	var sumBytes [8]byte
	binary.BigEndian.PutUint64(sumBytes[:], kdb.DumpChecksum(master.MasterKey(), dump))
	sealed := des.Seal(master.MasterKey(), sumBytes[:])

	mut := append([]byte(nil), dump...)
	mut[len(mut)/3] ^= 0x01
	if err := slave.InstallShard(0, sealed, mut); err == nil {
		t.Fatal("tampered dump installed")
	}
	if slaveDB.Len() != 0 {
		t.Error("tampered dump modified the database")
	}
}

// TestForgedChecksumRejected: "it is essential that only information
// from the master host be accepted" — an attacker without the master key
// cannot seal an acceptable checksum.
func TestForgedChecksumRejected(t *testing.T) {
	master := masterDB(t, 5)
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)

	// The attacker builds their own database and seals its checksum in
	// their own key.
	evil := kdb.New(des.StringToKey("evil", "EVIL"))
	ek, _ := des.NewRandomKey()
	evil.Add("mallory", "", ek, 0, "evil", t0)
	dump := evil.DumpShard(0)
	var sumBytes [8]byte
	binary.BigEndian.PutUint64(sumBytes[:], kdb.DumpChecksum(evil.MasterKey(), dump))
	sealed := des.Seal(evil.MasterKey(), sumBytes[:])

	if err := slave.InstallShard(0, sealed, dump); err == nil {
		t.Fatal("forged propagation accepted")
	}
	if slave.Rejected() != 1 { // every failed verification counts, even off-socket
		t.Error("unexpected rejected count")
	}
	if slaveDB.Len() != 0 {
		t.Error("forged dump modified the database")
	}
}

// TestFanOutToMultipleSlaves: one master updates several slaves; a dead
// slave doesn't block the others.
func TestFanOutToMultipleSlaves(t *testing.T) {
	master := masterDB(t, 20)
	var slaves []*Slave
	addrs := []string{"127.0.0.1:1"} // dead address first
	for i := 0; i < 3; i++ {
		sdb := kdb.New(master.MasterKey())
		s := NewSlave(sdb, nil)
		l, err := Serve(s, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		slaves = append(slaves, s)
		addrs = append(addrs, l.Addr())
	}
	m := NewMaster(master, addrs, nil)
	err := m.PropagateAll()
	if err == nil {
		t.Error("dead slave not reported")
	}
	for i, s := range slaves {
		if s.Updates() != 1 {
			t.Errorf("slave %d updates = %d", i, s.Updates())
		}
	}
}

// TestRunLoop: the periodic kick-off pushes at the configured interval.
func TestRunLoop(t *testing.T) {
	master := masterDB(t, 5)
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	m := NewMaster(master, []string{l.Addr()}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		m.Run(ctx, 20*time.Millisecond)
		close(done)
	}()
	deadline := time.After(5 * time.Second)
	for slave.Updates() < 2 {
		select {
		case <-deadline:
			t.Fatal("timed out waiting for periodic propagation")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	<-done
}

// TestSocketRejectionPath: a tampered dump over the real socket gets a
// non-OK ack and bumps the rejected counter.
func TestSocketRejectionPath(t *testing.T) {
	master := masterDB(t, 5)
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Hand-roll a kprop push with a corrupted dump.
	dump := master.DumpShard(0)
	var sumBytes [8]byte
	binary.BigEndian.PutUint64(sumBytes[:], kdb.DumpChecksum(master.MasterKey(), dump))
	sealed := des.Seal(master.MasterKey(), sumBytes[:])
	dump[0] ^= 0xff

	conn, err := dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := MasterHello{Version: wireVersion, Serial: master.Serial(), Digest: master.Digest(), Shards: 1}
	if err := kdc.WriteFrame(conn, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := kdc.ReadFrame(conn); err != nil {
		t.Fatal(err)
	}
	full := FullDumpMsg{SealedSum: sealed, Payload: deflate(dump)}
	if err := kdc.WriteFrame(conn, full.Encode()); err != nil {
		t.Fatal(err)
	}
	frame, err := kdc.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := DecodeAckMsg(frame); err != nil || ack.OK {
		t.Errorf("corrupted dump ack = %+v, %v", ack, err)
	}
	if slave.Rejected() != 1 {
		t.Errorf("rejected = %d", slave.Rejected())
	}
}

// dial is a tiny helper for hand-rolled pushes.
func dial(addr string) (net.Conn, error) {
	return net.Dial("tcp4", addr)
}

// diskFullStore is an in-memory store whose bulk replacement fails, as
// a SegmentStore's does when the disk refuses the new base.
type diskFullStore struct{ *kdb.EpochStore }

func (diskFullStore) ReplaceAll([]*kdb.Entry, kdb.DumpMeta) error {
	return errors.New("no space left on device")
}

// TestFullInstallDiskErrorRefused: a full dump the slave's store cannot
// write is refused — the master hears the error — and the slave keeps
// serving its previous copy, lineage and journal.
func TestFullInstallDiskErrorRefused(t *testing.T) {
	master := masterDB(t, 8)
	slaveDB := kdb.NewWithStore(master.MasterKey(), diskFullStore{kdb.NewEpochStore()})
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// The master's journal reaches back to serial 0, so this is a delta.
	if err := NewMaster(master, []string{l.Addr()}, nil).PropagateAll(); err != nil {
		t.Fatal(err)
	}
	serial, digest, n, journal := slaveDB.Serial(), slaveDB.Digest(), slaveDB.Len(), slaveDB.JournalLen()
	if err := master.Add("late", "", des.StringToKey("pw", testRealm), 0, "register", t0); err != nil {
		t.Fatal(err)
	}
	err = NewMaster(master, []string{l.Addr()}, nil, WithForceFull()).PropagateAll()
	if err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("full push onto a full disk: err = %v", err)
	}
	if slaveDB.Serial() != serial || slaveDB.Digest() != digest || slaveDB.Len() != n ||
		slaveDB.JournalLen() != journal || slave.Fulls() != 0 || slave.Rejected() == 0 {
		t.Fatalf("failed install changed the slave: len %d serial %d journal %d fulls %d rejected %d",
			slaveDB.Len(), slaveDB.Serial(), slaveDB.JournalLen(), slave.Fulls(), slave.Rejected())
	}
}
