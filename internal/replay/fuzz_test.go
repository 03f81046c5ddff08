package replay

import (
	"testing"
	"time"

	"kerberos/internal/core"
)

// fuzzPrincipals spell the same bytes with different component
// boundaries, so only the length-prefixed fingerprint tells them apart.
var fuzzPrincipals = [4]core.Principal{
	{Name: "jis", Realm: "R"},
	{Name: "ji", Instance: "s", Realm: "R"},
	{Name: "j", Instance: "is", Realm: "R"},
	{Name: "jis", Instance: "R"},
}

// FuzzReplayCache decodes its input, two bytes an operation, into
// presentations, memo attachments, clock steps forward and back, and
// bursts of distinct authenticators that grow the shards' indexes. Every
// verdict and memo must match the reference model, after every
// operation Len must equal the number of keys the shards' indexes hold,
// and at the end each of them must be found from its home slot.
//
// A clock step back makes the model ambiguous in one way only: a key
// that had expired at the latest clock yet seen may or may not have
// been swept, so it is live again in the model but possibly gone from
// the cache. Such a key follows the cache: it leaves the model when no
// shard holds it. Any other disagreement fails.
func FuzzReplayCache(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00})
	f.Add([]byte{0x08, 0x11, 0x03, 0x11, 0x08, 0x11, 0x05, 0x60, 0x08, 0x11, 0x06, 0x80, 0x08, 0x11})
	f.Add([]byte{0x07, 0xff, 0x07, 0xff, 0x05, 0x50, 0x07, 0x10, 0x06, 0xff, 0x00, 0x01})
	f.Add([]byte{0x20, 0x01, 0x23, 0x01, 0x20, 0x01, 0x04, 0xff, 0x20, 0x11, 0x05, 0x4b, 0x20, 0x01})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, ref := New(), newModel()
		base := time.Unix(567705600, 0)
		now, latest := base, base
		bulk := uint32(0)
		for op := 0; op+1 < len(ops); op += 2 {
			b0, b1 := ops[op], ops[op+1]
			a := &core.Authenticator{
				Client:   fuzzPrincipals[b0>>3&3],
				Time:     core.TimeFromGo(base) + core.KerberosTime(b0>>5),
				MicroSec: uint32(b1 & 3),
				Checksum: uint32(b1 >> 2 & 3),
			}
			digest := uint64(b1 >> 4 & 3)
			switch b0 & 7 {
			case 0, 1, 2:
				followSweeps(c, ref, a, latest)
				gotMemo, got := c.SeenWithMemo(a, digest, now)
				wantMemo, want := ref.seenWithMemo(a, digest, now)
				if got != want || gotMemo != wantMemo {
					t.Fatalf("op %d: %+v digest %d: (%q, %v), model says (%q, %v)",
						op/2, a, digest, gotMemo[:], got, wantMemo[:], want)
				}
			case 3:
				followSweeps(c, ref, a, latest)
				memo := Memo{byte(op), byte(op >> 8), b0, b1}
				c.Remember(a, digest, memo, now)
				ref.remember(a, digest, memo, now)
			case 4:
				now = now.Add(time.Duration(b1) * time.Second)
			case 5:
				now = now.Add(time.Duration(b1) * 8 * time.Second)
			case 6:
				now = now.Add(-time.Duration(b1) * 2 * time.Second)
			case 7:
				for range int(b1) {
					bulk++
					a := &core.Authenticator{Client: core.Principal{Name: "bulk", Realm: "R"},
						Time: core.TimeFromGo(now), MicroSec: bulk, Checksum: bulk}
					_, got := c.SeenWithMemo(a, 0, now)
					if _, want := ref.seenWithMemo(a, 0, now); got != want {
						t.Fatalf("op %d: burst authenticator %d: %v, model says %v", op/2, bulk, got, want)
					}
				}
			}
			if now.After(latest) {
				latest = now
			}
			held := 0
			for i := range c.shards {
				held += checkShard(t, &c.hash, &c.shards[i], false)
			}
			if n := c.Len(); n != held {
				t.Fatalf("op %d: Len %d, shards hold %d keys", op/2, n, held)
			}
		}
		for i := range c.shards {
			checkShard(t, &c.hash, &c.shards[i], true)
		}
	})
}

// followSweeps drops a from the model when it had expired by the latest
// clock and the cache has since swept it.
func followSweeps(c *Cache, ref *model, a *core.Authenticator, latest time.Time) {
	mk := modelKeyOf(a)
	e, ok := ref.seen[mk]
	if !ok || !latest.After(e.deadline) {
		return
	}
	k := c.keyOf(a)
	s := &c.shards[shardIndex(a)]
	if _, _, sl := s.idx.find(&s.ring, k, c.hash.sum(k)); sl == nil {
		delete(ref.seen, mk)
	}
}
