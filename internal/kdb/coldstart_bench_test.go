package kdb

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// buildColdStartDir seeds a segment database directory with n
// principals in the base plus `tail` journaled rekeys left in the active
// segment, so a subsequent open exercises both the base load and the
// replay path. The KDB4 base is installed through LoadDumpShard, which
// writes it directly; a legacy flat base (base.kdb, the read-and-decode
// baseline) is written per shard with EncodeEntriesAt.
func buildColdStartDir(tb testing.TB, dir string, shards, n, tail int, legacy bool) {
	tb.Helper()
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	entries := make([]*Entry, n)
	for i := range entries {
		entries[i] = &Entry{
			Name:       fmt.Sprintf("user%07d", i),
			Instance:   "",
			EncKey:     []byte{byte(i), byte(i >> 8), byte(i >> 16), 4, 5, 6, 7, 8},
			KVNO:       1,
			MaxLife:    core.DefaultTGTLife,
			Expiration: t0.AddDate(10, 0, 0),
			ModTime:    t0,
			ModBy:      "seed",
		}
	}
	entries = sortedEntriesByID(entries)
	meta := DumpMeta{Serial: uint64(n), Digest: 1}
	if legacy {
		seedBases(tb, dir, shards, entries, meta, false)
	}
	db, segs, err := OpenSegmentDB(master, dir, shards, SegmentOptions{NoFsync: true})
	if err != nil {
		tb.Fatal(err)
	}
	if !legacy {
		loadEntries(tb, db, entries, meta)
	}
	rekey := des.StringToKey("tailpw", "R")
	for i := 0; i < tail; i++ {
		name := fmt.Sprintf("user%07d", i%n)
		if err := db.SetKey(name, "", rekey, "tail", t0.Add(time.Duration(i)*time.Second)); err != nil {
			tb.Fatal(err)
		}
	}
	for _, s := range segs {
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
	}
}

func coldStartScale(def int) int {
	if v := os.Getenv("KERB_COLDSTART_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// BenchmarkColdStart1M measures a full realm cold start — open every
// shard, map or decode the base, replay the unsealed tail — at 1M
// principals (override with KERB_COLDSTART_SCALE). The kdb4 variant
// maps the snapshot; the flat variant is the read-and-decode baseline
// the tentpole is measured against.
func BenchmarkColdStart1M(b *testing.B) {
	n := coldStartScale(1_000_000)
	const shards, tail = 8, 1000
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	for _, bc := range []struct {
		name   string
		legacy bool
	}{{"kdb4", false}, {"flat", true}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			buildColdStartDir(b, dir, shards, n, tail, bc.legacy)
			runtime.GC() // retire the setup's garbage so iterations measure the open
			b.ResetTimer()
			var startupNS int64
			for i := 0; i < b.N; i++ {
				db, segs, err := OpenSegmentDB(master, dir, shards, SegmentOptions{NoFsync: true})
				if err != nil {
					b.Fatal(err)
				}
				if db.Len() != n {
					b.Fatalf("cold start found %d principals, want %d", db.Len(), n)
				}
				startupNS = 0
				for _, s := range segs {
					st := s.StartupStats()
					if st.StartupNS > startupNS {
						startupNS = st.StartupNS // realm start = slowest shard
					}
				}
				b.StopTimer()
				for _, s := range segs {
					s.Close()
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/principal")
			b.ReportMetric(float64(startupNS)/1e6, "shard-ms")
		})
	}
}

// TestColdStartSmoke is the CI budget gate: a 100k-principal realm
// must cold start well under a second. Gated behind an env var so
// ordinary test runs (and loaded CI machines running with -race) do
// not flake on wall-clock variance.
func TestColdStartSmoke(t *testing.T) {
	if os.Getenv("KERB_COLDSTART_SMOKE") != "1" {
		t.Skip("set KERB_COLDSTART_SMOKE=1 to run the cold-start budget gate")
	}
	n := coldStartScale(100_000)
	const shards, tail, budget = 8, 500, 1 * time.Second
	dir := t.TempDir()
	buildColdStartDir(t, dir, shards, n, tail, false)

	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	start := time.Now()
	db, segs, err := OpenSegmentDB(master, dir, shards, SegmentOptions{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range segs {
			s.Close()
		}
	}()
	if db.Len() != n {
		t.Fatalf("cold start found %d principals, want %d", db.Len(), n)
	}
	replayed := 0
	for _, s := range segs {
		st := s.StartupStats()
		replayed += st.ReplayRecords
		if !st.MappedBase {
			t.Errorf("shard came up without a mapped KDB4 base")
		}
	}
	if replayed != tail {
		t.Errorf("replayed %d tail records, want %d", replayed, tail)
	}
	if elapsed > budget {
		t.Fatalf("%d-principal cold start took %v, budget %v", n, elapsed, budget)
	}
	t.Logf("%d principals, %d shards: cold start %v (%.0f ns/principal)",
		n, shards, elapsed, float64(elapsed.Nanoseconds())/float64(n))
}
