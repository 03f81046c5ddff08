package kprop

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"kerberos/internal/des"
	"kerberos/internal/kdb"
)

func newShardedSlaveDB(key des.Key, shards int) *kdb.Database {
	stores := make([]kdb.Store, shards)
	for i := range stores {
		stores[i] = kdb.NewEpochStore()
	}
	return kdb.NewSharded(key, stores)
}

func shardedMasterDB(t testing.TB, shards, n int) *kdb.Database {
	t.Helper()
	stores := make([]kdb.Store, shards)
	for i := range stores {
		stores[i] = kdb.NewEpochStore()
	}
	db := kdb.NewSharded(des.StringToKey("master", testRealm), stores)
	for i := 0; i < n; i++ {
		uk, _ := des.NewRandomKey()
		if err := db.Add(fmt.Sprintf("user%04d", i), "", uk, 0, "register", t0); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestShardedPropagation runs the v3 wire protocol end to end: a 4-shard
// master pushes per-shard conversations (full dumps, then deltas) to a
// 4-shard slave over real sockets.
func TestShardedPropagation(t *testing.T) {
	const shards = 4
	master := shardedMasterDB(t, shards, 60)
	slaveDB := newShardedSlaveDB(master.MasterKey(), shards)
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	m := NewMaster(master, []string{l.Addr()}, nil)
	// First push: every shard needs a full dump (slave is empty).
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if slaveDB.Len() != master.Len() {
		t.Fatalf("slave has %d principals, master %d", slaveDB.Len(), master.Len())
	}
	if slaveDB.Digest() != master.Digest() {
		t.Fatal("slave digest diverges after full sync")
	}
	if got := int(slave.Updates()); got != shards {
		t.Errorf("first push: %d shard updates, want %d", got, shards)
	}
	if !slaveDB.ReadOnly() {
		t.Error("slave database became writable")
	}
	for i := 0; i < shards; i++ {
		if m.AckedShardSerial(l.Addr(), i) != master.ShardSerial(i) {
			t.Errorf("shard %d acked serial %d, master at %d",
				i, m.AckedShardSerial(l.Addr(), i), master.ShardSerial(i))
		}
	}
	if m.AckedSerial(l.Addr()) != master.Serial() {
		t.Errorf("aggregate acked %d, master serial %d", m.AckedSerial(l.Addr()), master.Serial())
	}

	// Incremental change: only touched shards ship deltas; untouched
	// shards are already current and ship nothing.
	fullsBefore := slave.Fulls()
	nk, _ := des.NewRandomKey()
	if err := master.Add("newuser", "", nk, 0, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	if err := master.Delete("user0000", ""); err != nil {
		t.Fatal(err)
	}
	if err := m.PropagateAll(); err != nil {
		t.Fatal(err)
	}
	if slave.Fulls() != fullsBefore {
		t.Errorf("incremental push used %d full installs", slave.Fulls()-fullsBefore)
	}
	if _, err := slaveDB.Get("newuser", ""); err != nil {
		t.Errorf("new principal missing on slave: %v", err)
	}
	if _, err := slaveDB.Get("user0000", ""); err == nil {
		t.Error("deleted principal survives on slave")
	}
	if slaveDB.Digest() != master.Digest() {
		t.Fatal("slave digest diverges after delta")
	}
}

// TestShardedFullResync: a slave whose shard has diverged (different
// history, same serial ballpark) is healed by a per-shard full dump.
func TestShardedFullResync(t *testing.T) {
	const shards = 2
	master := shardedMasterDB(t, shards, 20)
	// The slave starts with an unrelated history: every shard diverges.
	slaveDB := shardedMasterDB(t, shards, 7)
	slaveDB.SetReadOnly(true)
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
	if slaveDB.Len() != master.Len() || slaveDB.Digest() != master.Digest() {
		t.Fatalf("divergent slave not healed: len %d vs %d", slaveDB.Len(), master.Len())
	}
	if slave.Fulls() == 0 {
		t.Error("divergence healed without a full install?")
	}
}

// TestShardCountMismatchNACKed: a master pushing to a slave with a
// different shard count gets a clean refusal, not a corrupted database.
func TestShardCountMismatchNACKed(t *testing.T) {
	master := shardedMasterDB(t, 4, 10)
	slaveDB := newShardedSlaveDB(master.MasterKey(), 2)
	slaveDB.SetReadOnly(true)
	slave := NewSlave(slaveDB, nil)
	l, err := Serve(slave, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	m := NewMaster(master, []string{l.Addr()}, nil)
	err = m.PropagateAll()
	if err == nil {
		t.Fatal("shard-count mismatch propagated silently")
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Fatalf("mismatch error does not name the cause: %v", err)
	}
	if slaveDB.Len() != 0 && slaveDB.Len() == master.Len() {
		t.Error("mismatched slave absorbed the master's database")
	}
	if slave.Rejected() == 0 {
		t.Error("slave did not count the rejection")
	}
}

// TestUnshardedSpeaksShardZeroOfOne: an unsharded database is one
// shard of the per-shard conversation — the hello a slave receives names
// shard 0 of 1 — and propagates whole.
func TestUnshardedSpeaksShardZeroOfOne(t *testing.T) {
	master := masterDB(t, 12)
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hellos := make(chan MasterHello, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if frame, err := readFrame(conn); err == nil {
			if h, err := DecodeMasterHello(frame); err == nil {
				hellos <- h
			}
		}
	}()
	NewMaster(master, []string{ln.Addr().String()}, nil).PropagateAll()
	ln.Close()
	select {
	case h := <-hellos:
		if h.Version != wireVersion || h.Shard != 0 || h.Shards != 1 ||
			h.Serial != master.Serial() || h.Digest != master.Digest() {
			t.Fatalf("hello = %+v", h)
		}
	default:
		t.Fatal("no well-formed hello reached the slave")
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
	if slaveDB.Len() != master.Len() || slaveDB.Digest() != master.Digest() {
		t.Fatal("unsharded propagation broken")
	}
}
