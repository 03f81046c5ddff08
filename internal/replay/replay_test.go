package replay

import (
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kerberos/internal/core"
)

var t0 = time.Date(1988, 2, 9, 12, 0, 0, 0, time.UTC)

func auth(name string, at time.Time, cksum uint32) *core.Authenticator {
	return core.NewAuthenticator(
		core.Principal{Name: name, Realm: "ATHENA.MIT.EDU"},
		core.Addr{18, 72, 0, 3}, at, cksum)
}

func TestFirstPresentationAccepted(t *testing.T) {
	c := New()
	if c.Seen(auth("jis", t0, 0), t0) {
		t.Error("fresh authenticator reported as replay")
	}
}

func TestExactReplayDetected(t *testing.T) {
	c := New()
	a := auth("jis", t0, 7)
	if c.Seen(a, t0) {
		t.Fatal("first presentation flagged")
	}
	if !c.Seen(a, t0.Add(time.Second)) {
		t.Error("identical replay not detected")
	}
	if !c.Seen(a, t0.Add(2*time.Minute)) {
		t.Error("later replay within window not detected")
	}
}

func TestDistinctAuthenticatorsNotConfused(t *testing.T) {
	c := New()
	base := auth("jis", t0, 0)
	if c.Seen(base, t0) {
		t.Fatal("first flagged")
	}
	// Same client, new timestamp: a genuinely new request.
	if c.Seen(auth("jis", t0.Add(time.Second), 0), t0.Add(time.Second)) {
		t.Error("new timestamp treated as replay")
	}
	// Same second, different microseconds.
	b := auth("jis", t0, 0)
	b.MicroSec = base.MicroSec + 1
	if c.Seen(b, t0) {
		t.Error("different microseconds treated as replay")
	}
	// Different client, same times.
	if c.Seen(auth("bcn", t0, 0), t0) {
		t.Error("different client treated as replay")
	}
	// Different checksum (different application request).
	if c.Seen(auth("jis", t0, 99), t0) {
		t.Error("different checksum treated as replay")
	}
	// Principals whose components differ only at a boundary: the same
	// bytes split name|instance or instance|realm another way. Time,
	// microseconds and checksum are equal within each pair.
	for _, pair := range [][2]core.Principal{
		{{Name: "ab", Instance: "c", Realm: "R"}, {Name: "a", Instance: "bc", Realm: "R"}},
		{{Name: "a", Instance: "bc", Realm: "D"}, {Name: "a", Instance: "b", Realm: "cD"}},
		{{Name: "a", Instance: "", Realm: "bc"}, {Name: "", Instance: "a", Realm: "bc"}},
	} {
		for i, p := range pair {
			a := core.NewAuthenticator(p, core.Addr{18, 72, 0, 3}, t0, 5)
			if c.Seen(a, t0) {
				t.Errorf("%+v (pair member %d) treated as replay of %+v", p, i, pair[1-i])
			}
		}
	}
}

func TestWindowExpiry(t *testing.T) {
	c := New()
	a := auth("jis", t0, 0)
	c.Seen(a, t0)
	// After the replay window the entry may be forgotten — by then the
	// skew check rejects the stale authenticator anyway.
	later := t0.Add(2*core.ClockSkew + time.Minute)
	if c.Seen(a, later) {
		t.Error("entry survived past the replay window")
	}
}

// TestReplayWindowEdge pins the exact end of the replay window (§4.3).
// The skew check accepts an authenticator stamped ClockSkew ahead of the
// server clock, and accepts it again exactly 2×ClockSkew later, so the
// cache must still hold it at that instant: Remember attaches to it, the
// shard's sweep keeps it, and a presentation is a duplicate. One
// nanosecond later the skew check rejects the stamp, and the entry is
// gone.
func TestReplayWindowEdge(t *testing.T) {
	stamp := t0.Add(core.ClockSkew)
	first, edge := t0, t0.Add(2*core.ClockSkew)
	if !core.WithinSkew(stamp, first) || !core.WithinSkew(stamp, edge) {
		t.Fatal("both ends of the window must pass the skew check")
	}
	c := New()
	a := auth("jis", stamp, 12)
	d := Digest([]byte("req"))
	if _, v := c.SeenWithMemo(a, d, first); v != Fresh {
		t.Fatal("first presentation flagged")
	}
	c.Remember(a, d, memoOf("memo"), edge)
	if got, v := c.SeenWithMemo(a, d, edge); v != Retransmit || got != memoOf("memo") {
		t.Errorf("at the window edge: memo=%q verdict=%v, want \"memo\"/Retransmit", got[:], v)
	}
	if !c.Seen(a, edge) {
		t.Error("replay at the window edge accepted")
	}
	if c.Seen(a, edge.Add(time.Nanosecond)) {
		t.Error("entry outlived the window")
	}
}

func TestSweepEviction(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		c.Seen(auth("jis", t0.Add(time.Duration(i)*time.Millisecond), 0), t0)
	}
	if c.Len() != 100 {
		t.Fatalf("len = %d", c.Len())
	}
	// Sweeping is incremental and per shard: each check retires a
	// bounded batch of expired entries from its own shard. Enough
	// fresh traffic spread across the shards drains all 100.
	later := t0.Add(time.Hour)
	for i := 0; i < 200; i++ {
		c.Seen(auth("bcn", later.Add(time.Duration(i)*time.Second), 0), later)
	}
	if got := c.Len(); got > 200 {
		t.Errorf("incremental sweeps left %d entries, want <= 200 (expired not drained)", got)
	}
}

// TestSweepIsBounded verifies the expiry work one request performs is
// amortized: a single check retires at most sweepBatch entries, never
// the whole map — the full-map sweep used to run inline under a global
// lock while a request waited.
func TestSweepIsBounded(t *testing.T) {
	c := New()
	// Pile many entries into one shard: same client, same second,
	// varying checksum picked to land on the shard of a probe key.
	probe := auth("jis", t0.Add(time.Hour), 0)
	target := shardIndex(probe)
	planted := 0
	for i := uint32(0); planted < 100; i++ {
		a := auth("jis", t0, i)
		if shardIndex(a) == target {
			c.Seen(a, t0)
			planted++
		}
	}
	s := &c.shards[target]
	s.mu.Lock()
	before := s.idx.count
	s.mu.Unlock()
	if before != 100 {
		t.Fatalf("planted %d entries in shard, want 100", before)
	}
	// One check after everything expired retires at most sweepBatch.
	c.Seen(probe, t0.Add(time.Hour))
	s.mu.Lock()
	after := s.idx.count
	s.mu.Unlock()
	if retired := before - (after - 1); retired > sweepBatch {
		t.Errorf("one check retired %d entries, want <= %d", retired, sweepBatch)
	}
	if after >= before+1 {
		t.Errorf("check retired nothing: %d entries before, %d after", before, after)
	}
}

// TestSweepDoesNotBlockOtherShards pins one shard's lock (standing in
// for a slow sweep or a stuck request) and verifies a request for a
// different shard completes anyway.
func TestSweepDoesNotBlockOtherShards(t *testing.T) {
	c := New()
	a := auth("jis", t0, 0)
	// Find an authenticator living in a different shard.
	var b *core.Authenticator
	for i := uint32(1); ; i++ {
		cand := auth("bcn", t0, i)
		if shardIndex(cand) != shardIndex(a) {
			b = cand
			break
		}
	}
	s := &c.shards[shardIndex(a)]
	s.mu.Lock() // hold a's shard hostage
	done := make(chan bool, 1)
	go func() {
		done <- c.Seen(b, t0)
	}()
	select {
	case dup := <-done:
		if dup {
			t.Error("fresh authenticator flagged as replay")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request on unrelated shard blocked by a locked shard")
	}
	s.mu.Unlock()
}

// TestShardSpread sanity-checks the hash: distinct authenticators must
// not all collapse into one shard.
func TestShardSpread(t *testing.T) {
	used := make(map[int]bool)
	for i := 0; i < 256; i++ {
		a := auth("jis", t0.Add(time.Duration(i)*time.Second), uint32(i))
		used[shardIndex(a)] = true
	}
	if len(used) < shardCount/2 {
		t.Errorf("256 distinct authenticators hit only %d/%d shards", len(used), shardCount)
	}
}

// TestSeenReplayCheckAllocs guards the zero-allocation replay check: a
// duplicate presentation (pure lookup, the common server hot path after
// an attack or a retransmit) must not allocate — the old implementation
// rendered the client principal to a fresh string on every check.
func TestSeenReplayCheckAllocs(t *testing.T) {
	c := New()
	a := auth("jis", t0, 7)
	c.Seen(a, t0)
	allocs := testing.AllocsPerRun(100, func() {
		if !c.Seen(a, t0) {
			t.Fatal("replay not detected")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate check allocates %.1f objects/op, want 0", allocs)
	}
}

// TestQueueCompaction exercises the ring-compaction path: many windows
// of traffic through one cache must not grow the queue without bound.
func TestQueueCompaction(t *testing.T) {
	c := New()
	now := t0
	for round := 0; round < 50; round++ {
		for i := 0; i < 200; i++ {
			c.Seen(auth("jis", now.Add(time.Duration(i)*time.Millisecond), uint32(round)), now)
		}
		now = now.Add(2*core.ClockSkew + time.Minute)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		qlen, slen := s.ring.n, s.idx.count
		s.mu.Unlock()
		if qlen > 4*slen+1024 {
			t.Errorf("shard %d queue grew to %d for %d live entries", i, qlen, slen)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	replays := make([]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// All goroutines share the same 200 authenticators.
				if c.Seen(auth("jis", t0.Add(time.Duration(i)*time.Second), 0), t0.Add(time.Duration(i)*time.Second)) {
					replays[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range replays {
		total += n
	}
	// Each of the 200 authenticators is fresh exactly once: 8*200 total
	// presentations, 200 accepted, 1400 flagged.
	if total != 1400 {
		t.Errorf("replay count = %d, want 1400", total)
	}
}

// BenchmarkReplayCache prices the §4.3 duplicate check that guards every
// authenticated request — an ablation for the "server is also allowed to
// keep track of all past requests" design choice.
func BenchmarkReplayCache(b *testing.B) {
	c := New()
	base := time.Date(1988, 2, 9, 12, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := auth("jis", base.Add(time.Duration(i)*time.Microsecond), uint32(i))
		if c.Seen(a, base) {
			b.Fatal("false replay")
		}
	}
}

// BenchmarkDigest prices the request digest every TGS request pays: a
// SHA-256 over a datagram the size of a typical TGS request.
func BenchmarkDigest(b *testing.B) {
	msg := make([]byte, 170)
	for i := range msg {
		msg[i] = byte(i)
	}
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		Digest(msg)
	}
}

// BenchmarkReplayContention hammers the cache from all cores at once —
// the §9 login-storm shape. With a single global lock this serialized
// every authenticated request in the KDC; sharding lets checks on
// distinct authenticators proceed in parallel.
func BenchmarkReplayContention(b *testing.B) {
	c := New()
	base := time.Date(1988, 2, 9, 12, 0, 0, 0, time.UTC)
	var id atomic.Uint32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct client per goroutine, distinct checksum per op:
		// every presentation is fresh.
		client := core.Principal{
			Name:  "user" + strconv.Itoa(int(id.Add(1))),
			Realm: "ATHENA.MIT.EDU",
		}
		i := uint32(0)
		for pb.Next() {
			i++
			a := core.NewAuthenticator(client, core.Addr{18, 72, 0, 3}, base, i)
			if c.Seen(a, base) {
				b.Fatal("false replay")
			}
		}
	})
}

// memoOf is a memo holding s (truncated to memoSize).
func memoOf(s string) Memo {
	var m Memo
	copy(m[:], s)
	return m
}

// TestRememberedReplyReturned: a byte-identical duplicate (a client
// retransmission after a lost reply) is answered with the remembered
// memo; the same authenticator on a different request body is not.
func TestRememberedReplyReturned(t *testing.T) {
	c := New()
	a := auth("jis", t0, 7)
	req := []byte("the exact request datagram")
	memo := memoOf("the original memo")
	if _, v := c.SeenWithMemo(a, Digest(req), t0); v != Fresh {
		t.Fatal("first presentation flagged")
	}
	c.Remember(a, Digest(req), memo, t0)

	got, v := c.SeenWithMemo(a, Digest(req), t0.Add(time.Second))
	if v != Retransmit {
		t.Fatalf("retransmit verdict = %v, want Retransmit", v)
	}
	if got != memo {
		t.Errorf("retransmit memo = %q, want %q", got[:], memo[:])
	}
	// Same authenticator, different request body: a true replay — seen,
	// but no memo handed out.
	got, v = c.SeenWithMemo(a, Digest([]byte("forged request")), t0.Add(time.Second))
	if v != Replay || got != (Memo{}) {
		t.Errorf("forged duplicate: memo=%q verdict=%v, want zero/Replay", got[:], v)
	}
}

// TestRememberBeforeReplyAttached: a duplicate racing in before the
// server finished the first request finds no remembered memo.
func TestRememberBeforeReplyAttached(t *testing.T) {
	c := New()
	a := auth("jis", t0, 9)
	d := Digest([]byte("req"))
	c.SeenWithMemo(a, d, t0)
	if got, v := c.SeenWithMemo(a, d, t0); v != Replay || got != (Memo{}) {
		t.Errorf("concurrent duplicate: memo=%q verdict=%v, want zero/Replay", got[:], v)
	}
	// Remember for an expired or never-seen authenticator is a no-op.
	c.Remember(auth("ghost", t0, 1), d, memoOf("r"), t0)
	if c.Seen(auth("ghost", t0, 1), t0) {
		t.Error("Remember inserted an unseen authenticator")
	}
}

// TestRememberedReplyExpires: the memo dies with the replay window, so
// a very late duplicate is treated as a fresh presentation again.
func TestRememberedReplyExpires(t *testing.T) {
	c := New()
	a := auth("jis", t0, 11)
	d := Digest([]byte("req"))
	c.SeenWithMemo(a, d, t0)
	c.Remember(a, d, memoOf("memo"), t0)
	late := t0.Add(2*core.ClockSkew + time.Minute)
	if got, v := c.SeenWithMemo(a, d, late); v != Fresh || got != (Memo{}) {
		t.Errorf("expired entry: memo=%q verdict=%v, want zero/Fresh", got[:], v)
	}
}

// TestMemoPathAllocs guards the idempotent-retransmit path: once an
// authenticator's entry exists, attaching a memo and every duplicate
// lookup — memoized or not — allocate nothing.
func TestMemoPathAllocs(t *testing.T) {
	c := New()
	a := auth("jis", t0, 7)
	d := Digest([]byte("req"))
	c.SeenWithMemo(a, d, t0)
	memo := memoOf("memo")
	allocs := testing.AllocsPerRun(100, func() {
		c.Remember(a, d, memo, t0)
		if got, v := c.SeenWithMemo(a, d, t0); v != Retransmit || got != memo {
			t.Fatal("memo not returned")
		}
		if _, v := c.SeenWithMemo(a, d+1, t0); v != Replay {
			t.Fatal("foreign digest not a replay")
		}
	})
	if allocs != 0 {
		t.Errorf("memo path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDigestKnownAnswer pins Digest to the first 8 bytes of SHA-256,
// big-endian, with the FIPS 180-2 test vectors.
func TestDigestKnownAnswer(t *testing.T) {
	for _, tc := range []struct {
		msg  string
		want uint64
	}{
		{"", 0xe3b0c44298fc1c14},
		{"abc", 0xba7816bf8f01cfea},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", 0x248d6a61d20638b8},
	} {
		if got := Digest([]byte(tc.msg)); got != tc.want {
			t.Errorf("Digest(%q) = %#016x, want %#016x", tc.msg, got, tc.want)
		}
	}
}

// TestReplayEntryPointerFree walks the cache's per-entry types and
// fails on any pointer-holding kind: with none, the shard maps and
// queues are noscan memory the collector never walks, and the cache
// cannot retain caller memory.
func TestReplayEntryPointerFree(t *testing.T) {
	for _, v := range []any{key{}, slot{}, Memo{}, uint32(0)} {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ); path != "" {
			t.Errorf("%v holds a pointer at %s", typ, path)
		}
	}
}

// pointerPath returns where t holds a pointer kind, or "" if nowhere.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return t.Kind().String()
	case reflect.Array:
		if p := pointerPath(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
	}
	return ""
}
