package replay

// Tests of a shard's index and ring, driven with synthetic keys.

import (
	"testing"
	"unsafe"
)

// checkShard walks every table of s's index once and returns how many
// keys it holds, failing if that disagrees with the index's counts. With
// probe set, it also fails on a broken probe run: find must reach each
// held position from its key's home slot, which also rules out a key
// held twice.
func checkShard(t *testing.T, hs *hasher, s *shard, probe bool) int {
	t.Helper()
	held := 0
	x := &s.idx
	for i := 0; i < len(x.dir); i += 1 << (x.depth - x.dir[i].depth) {
		tb, used := x.dir[i], 0
		for _, p := range tb.pos {
			if p == 0 {
				continue
			}
			used++
			if !probe {
				continue
			}
			k := s.ring.at(p - 1).key()
			if got, _, sl := x.find(&s.ring, k, hs.sum(k)); sl == nil || got != tb || sl != s.ring.at(p-1) {
				t.Fatalf("key %+v at ring position %d is not found from its home slot", k, p-1)
			}
		}
		if used != tb.used {
			t.Fatalf("table counts %d used slots, holds %d", tb.used, used)
		}
		held += used
	}
	if held != x.count {
		t.Fatalf("index counts %d keys, holds %d", x.count, held)
	}
	if s.ring.n < held {
		t.Fatalf("ring holds %d slots for %d keys", s.ring.n, held)
	}
	return held
}

// TestSlotIsSevenWords pins the slot layout: the key's fields, the
// deadline, the digest, the memo and its flag fill 56 bytes.
func TestSlotIsSevenWords(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 56 {
		t.Errorf("slot is %d bytes, want 56", n)
	}
}

// TestBackwardShiftDeletion fills one home slot's whole probe run in a
// fresh 8-slot table — three keys sharing home H and a fourth whose
// home is H+1, so it sits behind them — and deletes the four in every
// order, for every H (the runs from H = 5 on wrap around the table).
// After each deletion every remaining key must still be found from its
// home slot, with no gap left in its run.
func TestBackwardShiftDeletion(t *testing.T) {
	hs := newHasher()
	for home := uint32(0); home < tableMin; home++ {
		var ks []key
		for i := uint32(0); len(ks) < 4; i++ {
			k := key{who: 42, time: 1, microSec: i, checksum: 9}
			want := home
			if len(ks) == 3 {
				want = (home + 1) % tableMin
			}
			if uint32(hs.sum(k))%tableMin == want {
				ks = append(ks, k)
			}
		}
		for _, order := range permutations(4) {
			var s shard
			for _, k := range ks {
				if _, v := s.seen(&hs, k, hs.sum(k), 0, 0, 1); v != Fresh {
					t.Fatalf("key %+v not fresh", k)
				}
			}
			if len(s.idx.dir) != 1 || len(s.idx.dir[0].pos) != tableMin {
				t.Fatalf("four keys grew the index past one %d-slot table", tableMin)
			}
			for j := range tableMin {
				if p := s.idx.dir[0].pos[(home+uint32(j))%tableMin]; (p != 0) != (j < 4) {
					t.Fatalf("home %d: probe run is not the four slots from the home", home)
				}
			}
			for n, o := range order {
				k := ks[o]
				h := hs.sum(k)
				tb, i, sl := s.idx.find(&s.ring, k, h)
				if sl == nil {
					t.Fatalf("home %d order %v: key %d lost before its deletion", home, order, o)
				}
				if !s.idx.remove(&s.ring, &hs, tb.pos[i]-1, h) {
					t.Fatalf("home %d order %v: key %d not removed", home, order, o)
				}
				if got := checkShard(t, &hs, &s, true); got != 3-n {
					t.Fatalf("home %d order %v: %d keys held after %d deletions", home, order, got, n+1)
				}
				for _, left := range order[n+1:] {
					if _, _, sl := s.idx.find(&s.ring, ks[left], hs.sum(ks[left])); sl == nil {
						t.Fatalf("home %d order %v: key %d lost after deleting key %d", home, order, left, o)
					}
				}
			}
		}
	}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestIndexGrowthIsIncremental fills one shard to 1M keys and watches
// the index's moved counter around every check: growth doubles or
// splits a single table, so no check may rehash more than tableMax
// positions, however large the shard has grown.
func TestIndexGrowthIsIncremental(t *testing.T) {
	const n = 1 << 20
	hs := newHasher()
	var s shard
	var worst uint64
	for i := range uint32(n) {
		k := key{who: uint64(i) * 0x9e3779b97f4a7c15, time: 1, microSec: i, checksum: 3}
		before := s.idx.moved
		s.sweep(&hs, 0)
		if _, v := s.seen(&hs, k, hs.sum(k), 0, 0, 1); v != Fresh {
			t.Fatalf("key %d not fresh", i)
		}
		worst = max(worst, s.idx.moved-before)
	}
	if s.idx.count != n || s.ring.n != n {
		t.Fatalf("shard holds %d keys in %d slots, want %d", s.idx.count, s.ring.n, n)
	}
	t.Logf("%d directory entries; %d positions moved in all, at most %d in one check",
		len(s.idx.dir), s.idx.moved, worst)
	if worst > tableMax {
		t.Errorf("one check moved %d index positions, want <= %d", worst, tableMax)
	}
	if s.idx.depth < 10 {
		t.Errorf("directory depth %d: the index never split its tables", s.idx.depth)
	}
	for i := uint32(0); i < n; i += 997 {
		k := key{who: uint64(i) * 0x9e3779b97f4a7c15, time: 1, microSec: i, checksum: 3}
		if _, v := s.seen(&hs, k, hs.sum(k), 0, 0, 1); v != Replay {
			t.Fatalf("key %d lost after growth", i)
		}
	}
}
