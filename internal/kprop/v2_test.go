package kprop

// Behavior tests for the kprop v2 delta plane: delta rounds, the four
// full-dump fallbacks, on-connection resync recovery, retry/backoff,
// and bounded-concurrency fan-out.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/obs"
)

// TestDeltaRound: after one full sync, subsequent rounds ship only the
// churn, and both sides agree on serial and digest.
func TestDeltaRound(t *testing.T) {
	master := masterDB(t, 40)
	reg := obs.NewRegistry()
	sreg := obs.NewRegistry()
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil, WithRegistry(sreg))
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	m := NewMaster(master, []string{l.Addr()}, nil, WithRegistry(reg))
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	// A fresh slave whose history is fully inside retention syncs via
	// delta-from-zero; either way both sides now agree.
	if slaveDB.Serial() != master.Serial() || slaveDB.Digest() != master.Digest() {
		t.Fatalf("slave at (%d,%x), master at (%d,%x)",
			slaveDB.Serial(), slaveDB.Digest(), master.Serial(), master.Digest())
	}

	key, _ := des.NewRandomKey()
	if err := master.Add("fresh", "", key, 0, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := slaveDB.Get("fresh", ""); err != nil {
		t.Fatalf("churn did not propagate: %v", err)
	}
	if got := reg.Counter("kprop_delta_rounds").Load(); got < 1 {
		t.Errorf("kprop_delta_rounds = %d", got)
	}
	if got := sreg.Counter("kpropd_deltas").Load(); got < 1 {
		t.Errorf("kpropd_deltas = %d", got)
	}
	if got := m.AckedSerial(l.Addr()); got != master.Serial() {
		t.Errorf("acked serial = %d, master at %d", got, master.Serial())
	}
	if got := sreg.Gauge("kpropd_serial").Load(); uint64(got) != master.Serial() {
		t.Errorf("kpropd_serial gauge = %d", got)
	}
}

// TestRetentionFallback: a slave that has fallen behind the journal
// horizon is healed with a full dump and converges.
func TestRetentionFallback(t *testing.T) {
	master := masterDB(t, 10)
	master.SetJournalCap(4)
	reg := obs.NewRegistry()
	sreg := obs.NewRegistry()
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil, WithRegistry(sreg))
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// The fresh slave is at serial 0, 11 writes behind a 4-deep journal.
	m := NewMaster(master, []string{l.Addr()}, nil, WithRegistry(reg))
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("kprop_fallback_retention").Load() != 1 {
		t.Errorf("fallback_retention = %d", reg.Counter("kprop_fallback_retention").Load())
	}
	if reg.Counter("kprop_full_rounds").Load() != 1 {
		t.Errorf("full_rounds = %d", reg.Counter("kprop_full_rounds").Load())
	}
	if sreg.Counter("kpropd_fulls").Load() != 1 {
		t.Errorf("kpropd_fulls = %d", sreg.Counter("kpropd_fulls").Load())
	}
	if slaveDB.Serial() != master.Serial() || slaveDB.Len() != master.Len() {
		t.Fatal("slave did not converge after retention fallback")
	}

	// Now in retention: the next churn goes out as a delta.
	key, _ := des.NewRandomKey()
	if err := master.SetKey("useraaa", "", key, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("kprop_delta_rounds").Load() != 1 {
		t.Errorf("delta_rounds = %d", reg.Counter("kprop_delta_rounds").Load())
	}
	if slaveDB.Digest() != master.Digest() {
		t.Fatal("digest mismatch after delta round")
	}
}

// TestDivergentSlaveHealsViaFullResync: a slave whose history differs
// from the master's at the same serial — the dangerous silent-drift case
// — is detected by the digest chain and healed with a full dump.
func TestDivergentSlaveHealsViaFullResync(t *testing.T) {
	// Two masters with the same key and the same number of writes but
	// different contents: same serial, different digest.
	masterA := masterDB(t, 10)
	masterB := kdb.New(masterA.MasterKey())
	for i := 0; i < int(masterA.Serial()); i++ {
		key, _ := des.NewRandomKey()
		if err := masterB.Add("other"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26)), "", key, 0, "x", t0); err != nil {
			t.Fatal(err)
		}
	}
	if masterA.Serial() != masterB.Serial() {
		t.Fatalf("serials differ: %d vs %d", masterA.Serial(), masterB.Serial())
	}
	if masterA.Digest() == masterB.Digest() {
		t.Fatal("digest collision between different histories")
	}

	reg := obs.NewRegistry()
	sreg := obs.NewRegistry()
	slaveDB := kdb.New(masterA.MasterKey())
	slave := NewSlave(slaveDB, nil, WithRegistry(sreg))
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Slave syncs from B, then A takes over (a failover to a rebuilt
	// master with a different history).
	if err := NewMaster(masterB, []string{l.Addr()}, nil).PropagateAll(); err != nil {
		t.Fatal(err)
	}
	mA := NewMaster(masterA, []string{l.Addr()}, nil, WithRegistry(reg))
	if err := mA.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("kprop_fallback_divergence").Load() != 1 {
		t.Errorf("fallback_divergence = %d", reg.Counter("kprop_fallback_divergence").Load())
	}
	if slaveDB.Serial() != masterA.Serial() || slaveDB.Digest() != masterA.Digest() {
		t.Fatal("diverged slave did not converge to the new master")
	}
	if _, err := slaveDB.Get("useraaa", ""); err != nil {
		t.Errorf("slave lacks master A's principals: %v", err)
	}
}

// TestAheadSlaveFallsBack: a slave claiming a serial beyond the master's
// (the master restarted from an older backup) is reset via full dump.
func TestAheadSlaveFallsBack(t *testing.T) {
	big := masterDB(t, 20)
	small := masterDB(t, 5) // same key, fewer writes: "restored from backup"

	reg := obs.NewRegistry()
	slaveDB := kdb.New(big.MasterKey())
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if err := NewMaster(big, []string{l.Addr()}, nil).PropagateAll(); err != nil {
		t.Fatal(err)
	}
	m := NewMaster(small, []string{l.Addr()}, nil, WithRegistry(reg))
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("kprop_fallback_ahead").Load() != 1 {
		t.Errorf("fallback_ahead = %d", reg.Counter("kprop_fallback_ahead").Load())
	}
	if slaveDB.Serial() != small.Serial() || slaveDB.Len() != small.Len() {
		t.Fatal("slave did not adopt the older master's state")
	}
}

// TestNeedFullRecoveryOnConnection: a slave that NACKs a delta receives
// the full dump on the same connection and converges — the self-healing
// resync state machine, exercised by hand-rolling the master side.
func TestNeedFullRecoveryOnConnection(t *testing.T) {
	master := masterDB(t, 10)
	sreg := obs.NewRegistry()
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil, WithRegistry(sreg))
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := NewMaster(master, []string{l.Addr()}, nil).PropagateAll(); err != nil {
		t.Fatal(err)
	}

	// Hand-roll a push whose delta has a serial gap; the slave must NACK
	// with NeedFull and accept the dump that follows.
	churnKey, _ := des.NewRandomKey()
	if err := master.SetKey("useraaa", "", churnKey, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	conn, err := dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := MasterHello{Version: wireVersion, Serial: master.Serial(), Digest: master.Digest(), Shards: 1}
	if err := writeFrame(conn, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	frame, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := DecodeSlaveHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	// A gapped delta: claim it starts two serials ahead of the slave.
	changes, verdict := master.ChangesSinceShard(0, sh.Serial, sh.Digest)
	if verdict != kdb.DeltaOK || len(changes) != 1 {
		t.Fatalf("changes = %d, %v", len(changes), verdict)
	}
	// The record's serial follows its op byte.
	gapped := kdb.LogRec{Enc: bytes.Clone(changes[0].Enc), Serial: changes[0].Serial + 2}
	binary.BigEndian.PutUint64(gapped.Enc[1:], gapped.Serial)
	seg := kdb.EncodeChanges([]kdb.LogRec{gapped})
	d := DeltaMsg{
		From:      sh.Serial + 2,
		To:        sh.Serial + 3,
		SealedSum: sealSum(master.MasterKey(), seg),
		Payload:   deflate(seg),
	}
	if err := writeFrame(conn, d.Encode()); err != nil {
		t.Fatal(err)
	}
	frame, err = readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeAckMsg(frame)
	if err != nil {
		t.Fatal(err)
	}
	if ack.OK || !ack.NeedFull {
		t.Fatalf("gapped delta ack = %+v", ack)
	}
	// Heal with the full dump on the same connection.
	dump := master.DumpShard(0)
	full := FullDumpMsg{SealedSum: sealSum(master.MasterKey(), dump), Payload: deflate(dump)}
	if err := writeFrame(conn, full.Encode()); err != nil {
		t.Fatal(err)
	}
	frame, err = readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	ack, err = DecodeAckMsg(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.OK || ack.Serial != master.Serial() {
		t.Fatalf("recovery ack = %+v", ack)
	}
	if slave.Resyncs() != 1 {
		t.Errorf("resyncs = %d", slave.Resyncs())
	}
	if sreg.Counter("kpropd_resyncs").Load() != 1 {
		t.Errorf("kpropd_resyncs = %d", sreg.Counter("kpropd_resyncs").Load())
	}
	if slaveDB.Serial() != master.Serial() || slaveDB.Digest() != master.Digest() {
		t.Fatal("slave did not converge after on-connection resync")
	}
}

// TestRetryBackoff: transient dial failures are retried with backoff and
// eventually succeed within the same round.
func TestRetryBackoff(t *testing.T) {
	master := masterDB(t, 5)
	reg := obs.NewRegistry()
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var attempts atomic.Int64
	flaky := func(addr string, timeout time.Duration) (net.Conn, error) {
		if attempts.Add(1) <= 2 {
			return nil, errors.New("injected dial failure")
		}
		return net.DialTimeout("tcp4", addr, timeout)
	}
	m := NewMaster(master, []string{l.Addr()}, nil,
		WithRegistry(reg), WithRetry(3, time.Millisecond), WithDialer(flaky))
	if err := m.PropagateAll(); err != nil {
		t.Fatalf("round failed despite retries: %v", err)
	}
	if slave.Updates() != 1 {
		t.Errorf("updates = %d", slave.Updates())
	}
	if got := reg.Counter("kprop_retries").Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	// Retries exhausted: the round reports the failure.
	attempts.Store(0)
	dead := NewMaster(master, []string{l.Addr()}, nil,
		WithRetry(1, time.Millisecond),
		WithDialer(func(string, time.Duration) (net.Conn, error) {
			return nil, errors.New("always down")
		}))
	if err := dead.PropagateAll(); err == nil {
		t.Error("exhausted retries not reported")
	}
}

// TestParallelFanOut: a round with fan-out 8 updates every slave; the
// dead one is still reported without blocking the rest.
func TestParallelFanOut(t *testing.T) {
	master := masterDB(t, 20)
	var slaves []*Slave
	addrs := []string{"127.0.0.1:1"}
	for i := 0; i < 8; i++ {
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
	m := NewMaster(master, addrs, nil, WithFanout(8))
	if err := m.PropagateAll(); err == nil {
		t.Error("dead slave not reported")
	}
	for i, s := range slaves {
		if s.Updates() != 1 {
			t.Errorf("slave %d updates = %d", i, s.Updates())
		}
	}
}

// TestForceFull: the escape hatch ships a (compressed) full dump every
// round, the paper's original behaviour.
func TestForceFull(t *testing.T) {
	master := masterDB(t, 10)
	reg := obs.NewRegistry()
	sreg := obs.NewRegistry()
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil, WithRegistry(sreg))
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	m := NewMaster(master, []string{l.Addr()}, nil, WithRegistry(reg), WithForceFull())
	for i := 0; i < 2; i++ {
		if err := m.PropagateAll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("kprop_full_rounds").Load(); got != 2 {
		t.Errorf("full_rounds = %d, want 2", got)
	}
	if got := reg.Counter("kprop_delta_rounds").Load(); got != 0 {
		t.Errorf("delta_rounds = %d, want 0", got)
	}
	if got := sreg.Counter("kpropd_fulls").Load(); got != 2 {
		t.Errorf("kpropd_fulls = %d, want 2", got)
	}
}

// TestLegacyPushRefused: the paper's two-frame exchange (a sealed
// checksum frame, then the dump) is no longer spoken; a slave drops the
// connection at the first frame and its database is untouched.
func TestLegacyPushRefused(t *testing.T) {
	master := masterDB(t, 5)
	slaveDB := kdb.New(master.MasterKey())
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	dump := master.DumpShard(0)
	conn, err := dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, sealSum(master.MasterKey(), dump)); err != nil {
		t.Fatal(err)
	}
	writeFrame(conn, dump)
	if ack, err := readFrame(conn); err == nil {
		t.Fatalf("legacy push answered: %q", ack)
	}
	if slave.Updates() != 0 || slaveDB.Len() != 0 {
		t.Errorf("legacy push installed: updates=%d len=%d", slave.Updates(), slaveDB.Len())
	}
}
