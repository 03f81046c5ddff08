package replay

// Property tests for the replay cache. A trivial reference model — one
// map, no shards, no incremental sweeping, no memoization shortcuts —
// defines the correct verdict for every presentation; the sharded cache
// must agree with it across randomized interleavings of fresh requests,
// replays, retransmissions, and clock advances. A second test hammers
// the memoized-reply path concurrently under -race: however the
// goroutines interleave, exactly one wins "fresh" per authenticator and
// every retransmission reads a byte-identical reply.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/testclock"
)

// model is the obviously-correct single-map reference implementation.
// It keys on the exact principal strings rather than the package's
// fingerprinted key, so a fingerprint that confused two authenticators
// would show up as a disagreement.
type model struct {
	window time.Duration
	seen   map[modelKey]modelEntry
}

type modelKey struct {
	name, instance, realm string
	time                  core.KerberosTime
	microSec, checksum    uint32
}

type modelEntry struct {
	deadline time.Time
	digest   uint64
	reply    []byte
}

func newModel() *model {
	return &model{window: 2 * core.ClockSkew, seen: map[modelKey]modelEntry{}}
}

func modelKeyOf(auth *core.Authenticator) modelKey {
	return modelKey{
		name:     auth.Client.Name,
		instance: auth.Client.Instance,
		realm:    auth.Client.Realm,
		time:     auth.Time,
		microSec: auth.MicroSec,
		checksum: auth.Checksum,
	}
}

func (m *model) seenWithReply(auth *core.Authenticator, digest uint64, now time.Time) ([]byte, bool) {
	k := modelKeyOf(auth)
	if got, ok := m.seen[k]; ok && !now.After(got.deadline) {
		if got.reply != nil && got.digest == digest {
			return got.reply, true
		}
		return nil, true
	}
	m.seen[k] = modelEntry{deadline: now.Add(m.window)}
	return nil, false
}

func (m *model) remember(auth *core.Authenticator, digest uint64, reply []byte, now time.Time) {
	k := modelKeyOf(auth)
	if got, ok := m.seen[k]; ok && !now.After(got.deadline) {
		got.digest = digest
		got.reply = reply
		m.seen[k] = got
	}
}

func propAuth(client int, stamp time.Time, seq uint32) *core.Authenticator {
	return &core.Authenticator{
		Client:   core.Principal{Name: fmt.Sprintf("u%03d", client), Realm: "R"},
		Addr:     core.Addr{10, 0, 0, byte(client)},
		Time:     core.TimeFromGo(stamp),
		MicroSec: seq % 3, // small range → frequent deliberate collisions
		Checksum: seq % 5,
	}
}

// TestReplayCacheMatchesModel runs randomized operation sequences and
// demands verdict-for-verdict agreement with the reference model. The
// interleaving mixes re-presentations (replays and retransmits), fresh
// authenticators, reply attachment, and clock advances that expire
// entries mid-sequence.
func TestReplayCacheMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := testclock.New(time.Unix(567705600, 0))
		cache := New()
		ref := newModel()

		var hits, checks uint64
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // present an authenticator (often a repeat: small pools)
				auth := propAuth(rng.Intn(4), clk.Now(), uint32(rng.Intn(6)))
				digest := uint64(rng.Intn(3))
				now := clk.Now()
				gotReply, gotDup := cache.SeenWithReply(auth, digest, now)
				wantReply, wantDup := ref.seenWithReply(auth, digest, now)
				if gotDup != wantDup {
					t.Fatalf("seed %d op %d: verdict = %v, model says %v (auth %+v)",
						seed, op, gotDup, wantDup, auth)
				}
				if !bytes.Equal(gotReply, wantReply) {
					t.Fatalf("seed %d op %d: reply = %q, model says %q", seed, op, gotReply, wantReply)
				}
				checks++
				if gotDup {
					hits++
				}
			case r < 8: // attach a reply to a (probably known) authenticator
				auth := propAuth(rng.Intn(4), clk.Now(), uint32(rng.Intn(6)))
				digest := uint64(rng.Intn(3))
				reply := []byte(fmt.Sprintf("reply-%d-%d", seed, op))
				now := clk.Now()
				cache.Remember(auth, digest, reply, now)
				ref.remember(auth, digest, reply, now)
			case r < 9: // small step — stays inside the window
				clk.Advance(time.Duration(rng.Intn(60)) * time.Second)
			default: // jump past the window — everything expires
				clk.Advance(2*core.ClockSkew + time.Second)
			}
		}
		if got := cache.Metrics().Checks.Load(); got != checks {
			t.Errorf("seed %d: checks counter = %d, want %d", seed, got, checks)
		}
		if got := cache.Metrics().Hits.Load(); got != hits {
			t.Errorf("seed %d: hits counter = %d, want %d", seed, got, hits)
		}
	}
}

// TestReplayCachesAgreeAcrossSeeds: each cache keys its principal
// fingerprint with its own random seed, but the seed must not reach any
// observable: two caches fed one presentation stream give the same
// verdicts, hold the same entries in the same shards, and sweep to the
// same Len.
func TestReplayCachesAgreeAcrossSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clk := testclock.New(time.Unix(567705600, 0))
	a, b := New(), New()
	for op := 0; op < 5000; op++ {
		if rng.Intn(50) == 0 {
			clk.Advance(time.Duration(rng.Intn(4)) * core.ClockSkew / 2)
		}
		auth := propAuth(rng.Intn(40), clk.Now(), uint32(rng.Intn(200)))
		digest := uint64(rng.Intn(3))
		now := clk.Now()
		ra, da := a.SeenWithReply(auth, digest, now)
		rb, db := b.SeenWithReply(auth, digest, now)
		if da != db || !bytes.Equal(ra, rb) {
			t.Fatalf("op %d: caches disagree: (%q, %v) vs (%q, %v)", op, ra, da, rb, db)
		}
		if !da {
			reply := []byte(fmt.Sprintf("reply-%d", op))
			a.Remember(auth, digest, reply, now)
			b.Remember(auth, digest, reply, now)
		}
	}
	for i := range a.shards {
		sa, sb := &a.shards[i], &b.shards[i]
		if len(sa.seen) != len(sb.seen) || len(sa.queue)-sa.head != len(sb.queue)-sb.head {
			t.Errorf("shard %d: %d entries / %d queued vs %d / %d", i,
				len(sa.seen), len(sa.queue)-sa.head, len(sb.seen), len(sb.queue)-sb.head)
		}
	}
	if a.Len() != b.Len() {
		t.Errorf("Len %d vs %d", a.Len(), b.Len())
	}
	if a.Metrics().Swept.Load() == 0 {
		t.Error("stream never swept an entry; the test exercises nothing")
	}
	if a.Metrics().Swept.Load() != b.Metrics().Swept.Load() {
		t.Errorf("swept %d vs %d", a.Metrics().Swept.Load(), b.Metrics().Swept.Load())
	}
}

// TestReplayConcurrentFirstPresentation: for every authenticator, no
// matter how many goroutines race on it, exactly one sees "fresh".
func TestReplayConcurrentFirstPresentation(t *testing.T) {
	cache := New()
	now := time.Unix(567705600, 0)
	const auths, racers = 32, 8

	var fresh [auths]int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < auths; i++ {
				auth := propAuth(i, now, uint32(i))
				if _, dup := cache.SeenWithReply(auth, uint64(i), now); !dup {
					mu.Lock()
					fresh[i]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for i, n := range fresh {
		if n != 1 {
			t.Errorf("authenticator %d: %d goroutines saw it fresh, want exactly 1", i, n)
		}
	}
}

// TestReplayConcurrentMemoizedReplies: concurrent retransmissions of a
// remembered request always read the complete, byte-identical reply —
// never a torn or foreign one — while fresh traffic hashes into the
// same shards.
func TestReplayConcurrentMemoizedReplies(t *testing.T) {
	cache := New()
	now := time.Unix(567705600, 0)
	const auths = 16

	replies := make([][]byte, auths)
	for i := 0; i < auths; i++ {
		auth := propAuth(i, now, uint32(i))
		if _, dup := cache.SeenWithReply(auth, uint64(i), now); dup {
			t.Fatalf("authenticator %d unexpectedly dup", i)
		}
		replies[i] = bytes.Repeat([]byte{byte(i)}, 64)
		cache.Remember(auth, uint64(i), replies[i], now)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := (g + round) % auths
				auth := propAuth(i, now, uint32(i))
				reply, dup := cache.SeenWithReply(auth, uint64(i), now)
				if !dup {
					t.Errorf("remembered authenticator %d reported fresh", i)
					return
				}
				if !bytes.Equal(reply, replies[i]) {
					t.Errorf("authenticator %d: reply corrupted", i)
					return
				}
				// The same authenticator stapled to a different request
				// body is a true replay: dup, but no reply.
				if r, dup := cache.SeenWithReply(auth, uint64(i)+1000, now); !dup || r != nil {
					t.Errorf("authenticator %d: foreign digest got reply %q (dup=%v)", i, r, dup)
					return
				}
				// Unrelated fresh traffic on the same shards.
				noise := propAuth(i, now.Add(time.Duration(g*1000+round)*time.Second), uint32(i))
				cache.SeenWithReply(noise, 0, now)
			}
		}(g)
	}
	wg.Wait()

	if got := cache.Metrics().Memoized.Load(); got < 8*200 {
		t.Errorf("memoized counter = %d, want >= %d", got, 8*200)
	}
}
