package replay

// Memory tests: what one remembered authenticator costs, and that a
// shard gives back its flood-peak memory once the flood has expired.

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"kerberos/internal/core"
)

// heapLive reports the live heap after a full collection.
func heapLive() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestReplayEntryFootprint pins the bookkeeping cost per remembered
// authenticator, with a memo attached to each as the KDC attaches one to
// every TGS exchange. Every principal string is freshly allocated, as
// the wire decoder allocates them, so a key that retained them would pay
// for them here. 96 B covers the 56-byte ring slot (key and memo
// included), the index's 4-byte positions at a load between a quarter
// and a half, and the ring's partly filled first and last chunks.
func TestReplayEntryFootprint(t *testing.T) {
	const n = 200_000
	c := New()
	before := heapLive()
	for i := 0; i < n; i++ {
		p := core.Principal{
			Name:     "user" + strconv.Itoa(i),
			Instance: "i" + strconv.Itoa(i%7),
			Realm:    strings.Clone("ATHENA.MIT.EDU"),
		}
		a := core.NewAuthenticator(p, core.Addr{18, 72, 0, 3}, t0, 0)
		if c.Seen(a, t0) {
			t.Fatalf("authenticator %d reported as replay", i)
		}
		memo := Memo{byte(i), byte(i >> 8), byte(i >> 16)}
		c.Remember(a, uint64(i), memo, t0)
	}
	perEntry := float64(heapLive()-before) / n
	runtime.KeepAlive(c)
	if got := c.Metrics().Remembered.Load(); got != n {
		t.Fatalf("remembered %d memos, want %d", got, n)
	}
	t.Logf("%.1f B per entry", perEntry)
	if perEntry > 96 {
		t.Errorf("replay cache holds %.1f B per entry, want <= 96", perEntry)
	}
}

// TestSweepReleasesPeakMemory: after a flood of 200k authenticators has
// expired and been swept, the cache must not keep the flood's ring
// chunks and index tables — tables only double or split on their own.
func TestSweepReleasesPeakMemory(t *testing.T) {
	const flood, fresh = 200_000, 2000
	c := New()
	base := heapLive()
	for i := 0; i < flood; i++ {
		c.Seen(auth("jis", t0, uint32(i)), t0)
	}
	peak := heapLive() - base

	// Past the window every flood entry is expired; repeated
	// presentations of a small working set sweep them out.
	later := t0.Add(2*core.ClockSkew + time.Minute)
	for round := 0; c.Len() > fresh && round < 1000; round++ {
		for i := 0; i < fresh; i++ {
			c.Seen(auth("bcn", later, uint32(i)), later)
		}
	}
	if got := c.Len(); got != fresh {
		t.Fatalf("Len = %d after draining, want %d", got, fresh)
	}
	retained := heapLive() - base
	runtime.KeepAlive(c)
	t.Logf("peak %d B, retained %d B", peak, retained)
	if retained > peak/8 {
		t.Errorf("drained cache retains %d B of its %d B peak, want <= 1/8", retained, peak)
	}
}

// TestReplaySmallCacheFootprint prices the caches a realm keeps for
// its services, most of them nearly empty: 65 caches at 16 and at 400
// entries each. At 16 entries a cache must cost no more than the map
// and queue shards it replaced (7.5 KB measured); at 400, at most 40 KB
// (they cost 64.2 KB). The ring's first chunks are small for this: 65
// caches of 16 shards would otherwise each hold a mostly empty chunk.
func TestReplaySmallCacheFootprint(t *testing.T) {
	for _, tc := range []struct {
		entries int
		limit   float64
	}{{16, 7.5 * 1024}, {400, 40 * 1024}} {
		const caches = 65
		before := heapLive()
		cs := make([]*Cache, caches)
		for i := range cs {
			cs[i] = New()
			for j := 0; j < tc.entries; j++ {
				cs[i].Seen(auth("user"+strconv.Itoa(j), t0, uint32(i)), t0)
			}
		}
		perCache := float64(heapLive()-before) / caches
		runtime.KeepAlive(cs)
		t.Logf("%d entries: %.1f KB per cache", tc.entries, perCache/1024)
		if perCache > tc.limit {
			t.Errorf("a cache of %d entries holds %.1f KB, want <= %.1f KB", tc.entries, perCache/1024, tc.limit/1024)
		}
	}
}
