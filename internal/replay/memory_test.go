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
// authenticator. Every principal string is freshly allocated, as the
// wire decoder allocates them, so a key that retained them would pay
// for them here. 160 B covers the 24-byte key, the 40-byte entry, the
// 32-byte queue element and the map's and slice's growth slack.
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
		if c.Seen(core.NewAuthenticator(p, core.Addr{18, 72, 0, 3}, t0, 0), t0) {
			t.Fatalf("authenticator %d reported as replay", i)
		}
	}
	perEntry := float64(heapLive()-before) / n
	runtime.KeepAlive(c)
	t.Logf("%.1f B per entry", perEntry)
	if perEntry > 160 {
		t.Errorf("replay cache holds %.1f B per entry, want <= 160", perEntry)
	}
}

// TestSweepReleasesPeakMemory: after a flood of 200k authenticators has
// expired and been swept, the cache must not keep the flood's map
// buckets and queue capacity — Go maps never shrink on their own.
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
