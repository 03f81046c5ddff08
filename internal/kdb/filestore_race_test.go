package kdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"kerberos/internal/des"
)

// TestFileStorePersistRace is the regression test for the lost-update
// race in FileStore's file write: the snapshot used to be taken OUTSIDE
// the file lock, so two concurrent mutators could interleave as
//
//	A: snapshot (has A's write, not B's)
//	B: snapshot + persist (file has both)
//	A: persist           (file overwritten with the stale snapshot)
//
// publishing a file that is missing a mutation the in-memory store
// already holds. With the memory change, the snapshot and the write in
// one fs.mu window, every published file reflects the memory state at
// its write time, so a value observed in the file can never regress.
//
// The test drives one principal's KVNO monotonically upward under heavy
// unrelated ApplyLogged contention while a reader polls the (atomically
// renamed) file: any KVNO regression is exactly a stale snapshot
// overwriting a newer one. Each counter write carries a record whose
// serial is the new KVNO, so every file must also stamp the lineage
// that matches the counter beside it. A final file==memory comparison
// closes the round. Run under -race in CI.
func TestFileStorePersistRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	path := filepath.Join(t.TempDir(), "race.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bulk entries make each snapshot+write long enough to overlap other
	// writers' mutations.
	var bulk []*Entry
	for i := 0; i < 1500; i++ {
		k := des.StringToKey(fmt.Sprintf("bulk%d", i), "R")
		bulk = append(bulk, &Entry{
			Name:   fmt.Sprintf("bulk%04d", i),
			KVNO:   1,
			EncKey: append([]byte(nil), k[:]...),
		})
	}
	fs.ReplaceAll(bulk, DumpMeta{})

	const steps = 120
	const churners = 4
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Churners: unrelated mutations that keep fs.mu contended.
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := des.StringToKey(fmt.Sprintf("churn%d", w), "R")
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				name := fmt.Sprintf("churn%d-%d", w, i%3)
				var err error
				if i%4 == 3 {
					err = fs.ApplyLogged(nil, nil, []string{ID(name, "")})
				} else {
					err = fs.ApplyLogged(nil, []*Entry{{Name: name, KVNO: uint8(i%250 + 1), EncKey: append([]byte(nil), k[:]...)}}, nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Reader: the file is written with temp+rename, so every read sees a
	// complete dump. The counter's KVNO must never move backwards.
	var regressed atomic.Int64 // packs old<<8|new on violation
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		last := uint8(0)
		for {
			select {
			case <-done:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			ents, meta, err := ParseDumpFull(data)
			if err != nil {
				t.Errorf("reader: published file unparseable: %v", err)
				return
			}
			for _, e := range ents {
				if e.Name == "ctr" {
					if e.KVNO < last {
						regressed.CompareAndSwap(0, int64(last)<<8|int64(e.KVNO))
					}
					if meta.Serial != uint64(e.KVNO) {
						t.Errorf("file stamps serial %d beside ctr KVNO %d", meta.Serial, e.KVNO)
						return
					}
					last = e.KVNO
				}
			}
		}
	}()

	ck := des.StringToKey("ctr", "R")
	for v := 1; v <= steps; v++ {
		rec := []LogRec{{Serial: uint64(v)}}
		if err := fs.ApplyLogged(rec, []*Entry{{Name: "ctr", KVNO: uint8(v), EncKey: append([]byte(nil), ck[:]...)}}, nil); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	rwg.Wait()

	if packed := regressed.Load(); packed != 0 {
		t.Fatalf("lost update: file's ctr KVNO regressed %d -> %d (stale snapshot overwrote a newer persist)",
			packed>>8, packed&0xff)
	}

	// Quiesced: the file must reflect the in-memory store exactly.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fileEnts, _, err := ParseDumpFull(data)
	if err != nil {
		t.Fatal(err)
	}
	var memEnts []*Entry
	fs.Range(func(e *Entry) bool { memEnts = append(memEnts, e); return true })
	sort.Slice(memEnts, func(i, j int) bool { return memEnts[i].ID() < memEnts[j].ID() })
	if len(fileEnts) != len(memEnts) {
		t.Fatalf("file has %d entries, memory has %d (lost update)", len(fileEnts), len(memEnts))
	}
	for i := range memEnts {
		f, m := fileEnts[i], memEnts[i]
		if f.ID() != m.ID() || f.KVNO != m.KVNO || !bytes.Equal(f.EncKey, m.EncKey) {
			t.Fatalf("file entry %s (kvno %d) != memory entry %s (kvno %d)",
				f.ID(), f.KVNO, m.ID(), m.KVNO)
		}
	}
}
