package replay

// Property tests for the replay cache. A trivial reference model — one
// map, no shards, no incremental sweeping, no memoization shortcuts —
// defines the correct verdict for every presentation; the sharded cache
// must agree with it across randomized interleavings of fresh requests,
// replays, retransmissions, and clock advances. A second test hammers
// the memoized path concurrently under -race: however the goroutines
// interleave, exactly one wins "fresh" per authenticator and every
// retransmission reads the memo remembered for it.

import (
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
	memo     *Memo // nil until remembered
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

func (m *model) seenWithMemo(auth *core.Authenticator, digest uint64, now time.Time) (Memo, Verdict) {
	k := modelKeyOf(auth)
	if got, ok := m.seen[k]; ok && !now.After(got.deadline) {
		if got.memo != nil && got.digest == digest {
			return *got.memo, Retransmit
		}
		return Memo{}, Replay
	}
	m.seen[k] = modelEntry{deadline: now.Add(m.window)}
	return Memo{}, Fresh
}

func (m *model) remember(auth *core.Authenticator, digest uint64, memo Memo, now time.Time) {
	k := modelKeyOf(auth)
	if got, ok := m.seen[k]; ok && !now.After(got.deadline) {
		got.digest = digest
		got.memo = &memo
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
// authenticators, memo attachment, and clock advances that expire
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
				gotMemo, gotVerdict := cache.SeenWithMemo(auth, digest, now)
				wantMemo, wantVerdict := ref.seenWithMemo(auth, digest, now)
				if gotVerdict != wantVerdict {
					t.Fatalf("seed %d op %d: verdict = %v, model says %v (auth %+v)",
						seed, op, gotVerdict, wantVerdict, auth)
				}
				if gotMemo != wantMemo {
					t.Fatalf("seed %d op %d: memo = %q, model says %q", seed, op, gotMemo[:], wantMemo[:])
				}
				checks++
				if gotVerdict != Fresh {
					hits++
				}
			case r < 8: // attach a memo to a (probably known) authenticator
				auth := propAuth(rng.Intn(4), clk.Now(), uint32(rng.Intn(6)))
				digest := uint64(rng.Intn(3))
				memo := memoOf(fmt.Sprintf("memo-%d-%d", seed, op))
				now := clk.Now()
				cache.Remember(auth, digest, memo, now)
				ref.remember(auth, digest, memo, now)
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
		ma, va := a.SeenWithMemo(auth, digest, now)
		mb, vb := b.SeenWithMemo(auth, digest, now)
		if va != vb || ma != mb {
			t.Fatalf("op %d: caches disagree: (%q, %v) vs (%q, %v)", op, ma[:], va, mb[:], vb)
		}
		if va == Fresh {
			memo := memoOf(fmt.Sprintf("memo-%d", op))
			a.Remember(auth, digest, memo, now)
			b.Remember(auth, digest, memo, now)
		}
	}
	for i := range a.shards {
		sa, sb := &a.shards[i], &b.shards[i]
		if sa.idx.count != sb.idx.count || sa.ring.n != sb.ring.n {
			t.Errorf("shard %d: %d entries / %d queued vs %d / %d", i,
				sa.idx.count, sa.ring.n, sb.idx.count, sb.ring.n)
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
				if _, v := cache.SeenWithMemo(auth, uint64(i), now); v == Fresh {
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
// remembered request always read the complete memo remembered for it —
// never a torn or foreign one — while fresh traffic hashes into the
// same shards.
func TestReplayConcurrentMemoizedReplies(t *testing.T) {
	cache := New()
	now := time.Unix(567705600, 0)
	const auths = 16

	memos := make([]Memo, auths)
	for i := 0; i < auths; i++ {
		auth := propAuth(i, now, uint32(i))
		if _, v := cache.SeenWithMemo(auth, uint64(i), now); v != Fresh {
			t.Fatalf("authenticator %d unexpectedly dup", i)
		}
		for j := range memos[i] {
			memos[i][j] = byte(i)
		}
		cache.Remember(auth, uint64(i), memos[i], now)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := (g + round) % auths
				auth := propAuth(i, now, uint32(i))
				memo, v := cache.SeenWithMemo(auth, uint64(i), now)
				if v != Retransmit {
					t.Errorf("remembered authenticator %d: verdict %v, want Retransmit", i, v)
					return
				}
				if memo != memos[i] {
					t.Errorf("authenticator %d: memo corrupted", i)
					return
				}
				// The same authenticator stapled to a different request
				// body is a true replay: dup, but no memo.
				if m, v := cache.SeenWithMemo(auth, uint64(i)+1000, now); v != Replay || m != (Memo{}) {
					t.Errorf("authenticator %d: foreign digest got memo %q (verdict %v)", i, m[:], v)
					return
				}
				// Unrelated fresh traffic on the same shards.
				noise := propAuth(i, now.Add(time.Duration(g*1000+round)*time.Second), uint32(i))
				cache.SeenWithMemo(noise, 0, now)
			}
		}(g)
	}
	wg.Wait()

	if got := cache.Metrics().Memoized.Load(); got < 8*200 {
		t.Errorf("memoized counter = %d, want >= %d", got, 8*200)
	}
}
