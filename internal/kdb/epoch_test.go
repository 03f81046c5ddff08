package kdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// fetch looks a rendered ID up in s through Lookup, into new memory.
// Names hold no dot, so the ID splits at its first.
func fetch(s Store, id string) (*Entry, bool) {
	name, instance, _ := strings.Cut(id, ".")
	e := new(Entry)
	return e, s.Lookup(name, instance, e)
}

// TestEpochStoreBasics exercises Put/Lookup/Delete/Len through the
// delta trie: a slab entry shadowed by a tombstone, a deleted entry
// resurrected by a later Put, and batch atomicity of ApplyBatch.
func TestEpochStoreBasics(t *testing.T) {
	s := NewEpochStore()
	if s.Len() != 0 {
		t.Fatalf("empty store Len = %d", s.Len())
	}
	for i := 0; i < 10; i++ {
		s.Put(mkEntry(i, 0))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	e5 := mkEntry(5, 0)
	got, ok := fetch(s, e5.ID())
	if !ok || got.Name != e5.Name || got.KVNO != e5.KVNO {
		t.Fatalf("Lookup(%q) = %+v, %v", e5.ID(), got, ok)
	}

	// Tombstone shadows, then a later Put resurrects with new bits.
	s.Delete(e5.ID())
	if _, ok := fetch(s, e5.ID()); ok {
		t.Fatal("deleted entry still fetchable")
	}
	if s.Len() != 9 {
		t.Fatalf("Len after delete = %d, want 9", s.Len())
	}
	s.Put(mkEntry(5, 3))
	got, ok = fetch(s, e5.ID())
	if !ok || got.KVNO != mkEntry(5, 3).KVNO {
		t.Fatalf("resurrected entry = %+v, %v", got, ok)
	}
	if s.Len() != 10 {
		t.Fatalf("Len after resurrect = %d, want 10", s.Len())
	}

	// Double-delete and delete-of-missing are no-ops on Len.
	s.Delete(e5.ID())
	s.Delete(e5.ID())
	s.Delete("no.such")
	if s.Len() != 9 {
		t.Fatalf("Len after double delete = %d, want 9", s.Len())
	}

	// ApplyBatch: an upsert and a delete land together.
	s.ApplyBatch([]*Entry{mkEntry(20, 1)}, []string{mkEntry(1, 0).ID()})
	if _, ok := fetch(s, mkEntry(1, 0).ID()); ok {
		t.Fatal("batched delete missed")
	}
	if _, ok := fetch(s, mkEntry(20, 1).ID()); !ok {
		t.Fatal("batched upsert missed")
	}
}

// TestEpochStoreFetchIsolation verifies the store never aliases caller
// memory: mutating the caller's entry after Put, or an entry Range
// handed out, must not leak into what Lookup serves.
func TestEpochStoreFetchIsolation(t *testing.T) {
	s := NewEpochStore()
	in := mkEntry(1, 0)
	s.Put(in)
	in.EncKey[0] ^= 0xff
	in.ModBy = "tampered"

	a, _ := fetch(s, mkEntry(1, 0).ID())
	if a.ModBy == "tampered" || a.EncKey[0] != mkEntry(1, 0).EncKey[0] {
		t.Fatal("Put did not clone its argument")
	}
	s.Range(func(e *Entry) bool {
		e.EncKey[0] ^= 0xff
		return true
	})
	b, _ := fetch(s, mkEntry(1, 0).ID())
	if b.EncKey[0] != mkEntry(1, 0).EncKey[0] {
		t.Fatal("Range result aliases store memory")
	}
}

// TestEpochStoreRangeMergeOrder checks that Range merges the base slab
// and the delta overlay into a single joined-ID-sorted stream, skipping
// tombstones. The names include a '-' (which sorts below '.') so tuple
// order and joined-ID order disagree — the merge must use joined IDs.
func TestEpochStoreRangeMergeOrder(t *testing.T) {
	mk := func(name, inst string, kvno uint8) *Entry {
		return &Entry{
			Name: name, Instance: inst,
			EncKey: []byte{kvno, 2, 3, 4, 5, 6, 7, 8},
			KVNO:   kvno, Expiration: t0, ModTime: t0, ModBy: "t",
		}
	}
	s := NewEpochStore()
	// Base slab: InstallSlab sorts by joined ID itself.
	slab := []Entry{*mk("a", "z", 1), *mk("a-m", "x", 1), *mk("b", "", 1), *mk("c", "q", 1)}
	s.InstallSlab(slab)
	// Delta: one update, one insert between base entries, one delete.
	s.Put(mk("a", "z", 9))
	s.Put(mk("a-z", "y", 1))
	s.Delete("c.q")

	var ids []string
	var kvnos []uint8
	s.Range(func(e *Entry) bool {
		ids = append(ids, e.ID())
		kvnos = append(kvnos, e.KVNO)
		return true
	})
	want := []string{"a-m.x", "a-z.y", "a.z", "b."}
	if !sort.StringsAreSorted(ids) {
		t.Fatalf("Range ids not sorted: %v", ids)
	}
	if len(ids) != len(want) {
		t.Fatalf("Range ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Range ids = %v, want %v", ids, want)
		}
	}
	if kvnos[2] != 9 {
		t.Fatalf("delta update not visible in Range: kvnos = %v", kvnos)
	}
}

// TestEpochStoreFold drives enough churn through the delta trie to
// cross the fold threshold several times and checks that lookups,
// Len, and Range stay correct while the slab absorbs the overlay.
func TestEpochStoreFold(t *testing.T) {
	s := NewEpochStore()
	live := map[string]uint8{}
	for round := 0; round < 3; round++ {
		for i := 0; i < 1200; i++ {
			n := (round*7 + i) % 900
			e := mkEntry(n, round)
			if i%5 == 4 {
				s.Delete(e.ID())
				delete(live, e.ID())
			} else {
				s.Put(e)
				live[e.ID()] = e.KVNO
			}
		}
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(live))
	}
	slabLen, deltaLen, _ := s.SlabStats()
	if deltaLen > foldThreshold(slabLen) {
		t.Fatalf("delta never folded: slab %d delta %d", slabLen, deltaLen)
	}
	seen := 0
	s.Range(func(e *Entry) bool {
		kvno, ok := live[e.ID()]
		if !ok {
			t.Fatalf("Range yields dead entry %q", e.ID())
		}
		if e.KVNO != kvno {
			t.Fatalf("Range yields stale %q: kvno %d want %d", e.ID(), e.KVNO, kvno)
		}
		seen++
		return true
	})
	if seen != len(live) {
		t.Fatalf("Range saw %d entries, want %d", seen, len(live))
	}
	for id, kvno := range live {
		e, ok := fetch(s, id)
		if !ok || e.KVNO != kvno {
			t.Fatalf("Lookup(%q) after folds = %+v, %v", id, e, ok)
		}
	}
}

// snapshotEpochStore round-trips entries through a KDB4 snapshot and
// installs it as an EpochStore's mapped base — the shape a segment
// store's cold start produces.
func snapshotEpochStore(tb testing.TB, entries []*Entry) *EpochStore {
	tb.Helper()
	data, err := EncodeKDB4(sortedEntriesByID(entries), DumpMeta{Serial: uint64(len(entries)), Digest: 7})
	if err != nil {
		tb.Fatal(err)
	}
	sn, err := ParseKDB4(data)
	if err != nil {
		tb.Fatal(err)
	}
	table, err := sn.Index()
	if err != nil {
		tb.Fatal(err)
	}
	s := NewEpochStore()
	s.installSnapshot(sn, table)
	return s
}

// TestLookupAllocs is the AllocsPerRun guard for the //kerb:hotpath
// annotations on Database.Lookup and EpochStore.Lookup. It covers
// every residency of a principal: the heap base slab, the
// snapshot-backed base (decoded in place on every read), and the delta
// trie (recent writes). GetRO, the allocating wrapper, costs exactly
// its one new Entry.
func TestLookupAllocs(t *testing.T) {
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	for _, base := range []string{"slab", "snapshot"} {
		entries := make([]*Entry, 64)
		for i := range entries {
			entries[i] = mkEntry(i, 0)
		}
		var store *EpochStore
		if base == "snapshot" {
			store = snapshotEpochStore(t, entries)
		} else {
			store = NewEpochStore()
			slab := make([]Entry, len(entries))
			for i, e := range entries {
				slab[i] = *e
			}
			store.InstallSlab(slab)
		}
		db := NewWithStore(master, store)

		key := des.StringToKey("zanzibar", "ATHENA.MIT.EDUfresh")
		if err := db.Add("fresh", "delta", key, core.DefaultTGTLife, "t", t0); err != nil {
			t.Fatal(err)
		}

		baseHit := mkEntry(17, 0)
		var dst Entry
		for _, tc := range []struct{ name, instance string }{
			{baseHit.Name, baseHit.Instance}, // base residency
			{"fresh", "delta"},               // delta-trie residency
		} {
			allocs := testing.AllocsPerRun(100, func() {
				if err := db.Lookup(tc.name, tc.instance, &dst); err != nil || dst.Name != tc.name {
					t.Fatalf("Lookup(%q, %q): %v", tc.name, tc.instance, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s base: Lookup(%q, %q) allocates %.1f objects/op, want 0",
					base, tc.name, tc.instance, allocs)
			}
			allocs = testing.AllocsPerRun(100, func() {
				if e, err := db.GetRO(tc.name, tc.instance); err != nil || e.Name != tc.name {
					t.Fatalf("GetRO(%q, %q): %v", tc.name, tc.instance, err)
				}
			})
			if allocs != 1 {
				t.Errorf("%s base: GetRO(%q, %q) allocates %.1f objects/op, want 1",
					base, tc.name, tc.instance, allocs)
			}
		}
	}
}

// TestSnapshotBaseStore exercises the mapped snapshot base end to end:
// lookups decode in place, deltas shadow and resurrect mapped records,
// and a fold absorbs the snapshot base into a heap slab without losing
// anything.
func TestSnapshotBaseStore(t *testing.T) {
	const n = 300
	entries := make([]*Entry, n)
	for i := range entries {
		entries[i] = mkEntry(i, 0)
	}
	s := snapshotEpochStore(t, entries)
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}

	// Every record resolves.
	for _, want := range entries {
		e, ok := fetch(s, want.ID())
		if !ok || e.Name != want.Name || e.KVNO != want.KVNO || string(e.EncKey) != string(want.EncKey) {
			t.Fatalf("Lookup(%q) = %+v, %v", want.ID(), e, ok)
		}
	}
	if _, ok := fetch(s, "no.such"); ok {
		t.Fatal("missing ID resolved against snapshot base")
	}

	// Delta over the mapped base: update, tombstone, resurrect.
	upd := mkEntry(7, 4)
	s.Put(upd)
	if e, _ := fetch(s, upd.ID()); e == nil || e.KVNO != upd.KVNO {
		t.Fatalf("update over snapshot base not visible: %+v", e)
	}
	s.Delete(mkEntry(9, 0).ID())
	if _, ok := fetch(s, mkEntry(9, 0).ID()); ok {
		t.Fatal("tombstone does not shadow mapped record")
	}
	if s.Len() != n-1 {
		t.Fatalf("Len after tombstone = %d, want %d", s.Len(), n-1)
	}
	s.Put(mkEntry(9, 2))
	if s.Len() != n {
		t.Fatalf("Len after resurrect = %d, want %d", s.Len(), n)
	}

	// Range merges mapped base and delta in joined-ID order.
	var ids []string
	s.Range(func(e *Entry) bool {
		ids = append(ids, e.ID())
		return true
	})
	if len(ids) != n || !sort.StringsAreSorted(ids) {
		t.Fatalf("Range yielded %d ids (sorted=%v), want %d sorted", len(ids), sort.StringsAreSorted(ids), n)
	}

	// Concurrent readers decode the same mapped records; each must
	// observe a correct entry (run with -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				want := entries[(g*53+i)%n]
				e, ok := fetch(s, want.ID())
				if !ok || e.Name != want.Name {
					t.Errorf("concurrent Lookup(%q) = %+v, %v", want.ID(), e, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Enough churn to cross the fold threshold: the snapshot base must
	// fold into a heap slab with nothing lost.
	extra := foldThreshold(n) + 50
	for i := 0; i < extra; i++ {
		s.Put(mkEntry(1000+i, 1))
	}
	if s.idx.Load().snap != nil {
		t.Fatal("snapshot base survived a fold")
	}
	if s.Len() != n+extra {
		t.Fatalf("Len after fold = %d, want %d", s.Len(), n+extra)
	}
	for i := 0; i < n; i++ {
		want := mkEntry(i, 0)
		if i == 7 {
			want = mkEntry(7, 4)
		} else if i == 9 {
			want = mkEntry(9, 2)
		}
		e, ok := fetch(s, want.ID())
		if !ok || e.KVNO != want.KVNO {
			t.Fatalf("post-fold Lookup(%q) = %+v, %v", want.ID(), e, ok)
		}
	}
}

// TestEpochChurnRace hammers lock-free readers (GetRO + the hot-key
// table) against churning writers (Add/SetKey/Delete) across fold
// boundaries. Run with -race; the invariant checked here is weaker —
// every successful read must decrypt to the key of SOME version that
// was written for that principal.
func TestEpochChurnRace(t *testing.T) {
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	db := New(master)

	const principals = 40
	name := func(i int) string { return fmt.Sprintf("u%02d", i) }
	pw := func(i, rev int) des.Key {
		return des.StringToKey(fmt.Sprintf("pw-%d-%d", i, rev), "R")
	}
	valid := make([]map[des.Key]bool, principals)
	var validMu sync.Mutex
	for i := 0; i < principals; i++ {
		valid[i] = map[des.Key]bool{pw(i, 0): true}
		if err := db.Add(name(i), "", pw(i, 0), core.DefaultTGTLife, "t", t0); err != nil {
			t.Fatal(err)
		}
	}

	writerOps := 1500
	if testing.Short() {
		writerOps = 300
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for op := 0; op < writerOps; op++ {
				i := (w*31 + op) % principals
				switch op % 7 {
				case 3:
					db.Delete(name(i), "")
				case 5:
					db.Add(name(i), "", pw(i, 0), core.DefaultTGTLife, "t", t0)
				default:
					rev := w*writerOps + op
					validMu.Lock()
					valid[i][pw(i, rev)] = true
					validMu.Unlock()
					db.SetKey(name(i), "", pw(i, rev), "t", t0.Add(time.Duration(op)*time.Second))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (r*17 + op) % principals
				e, err := db.GetRO(name(i), "")
				if err != nil {
					continue // deleted window
				}
				k, err := db.Key(e)
				if err != nil {
					t.Errorf("Key(%s): %v", e.ID(), err)
					return
				}
				validMu.Lock()
				ok := valid[i][k]
				validMu.Unlock()
				if !ok {
					t.Errorf("Key(%s) returned a key never written for it", e.ID())
					return
				}
			}
		}(r)
	}
	// Readers run for the full duration of the churn, then drain.
	writers.Wait()
	close(stop)
	readers.Wait()

	// Post-churn: the store still answers consistently single-threaded.
	for i := 0; i < principals; i++ {
		e, err := db.GetRO(name(i), "")
		if err != nil {
			continue
		}
		if _, err := db.Key(e); err != nil {
			t.Fatalf("post-churn Key(%s): %v", e.ID(), err)
		}
	}
}
