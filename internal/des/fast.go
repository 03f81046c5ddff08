package des

import "math/bits"

// Precomputed lookup tables, built once at init from the FIPS tables in
// tables.go, and the table-driven cipher core that uses them. This is
// the classic software-DES optimization lineage of the 1988 libdes
// generation, taken one step further than SP boxes alone:
//
//   - The P permutation is folded into the S-boxes ("SP boxes"), so a
//     round's nonlinear step is eight table lookups ORed together.
//   - The E expansion is never materialized. E replicates each 4-bit
//     group's neighbours, so its eight overlapping 6-bit windows split
//     into two sets of four *disjoint* windows: the even windows read
//     directly from R rotated right by one bit, the odd windows from
//     that word rotated left four more. Each round therefore XORs two
//     pre-positioned 32-bit key words and extracts eight 6-bit indices
//     with plain shifts — no expansion tables, 8 loads per round
//     instead of 12.
//   - The key schedule is stored only as 32 window-positioned 32-bit
//     words (ks, what the round above consumes), and key expansion is
//     table-driven too: PC-1 is eight byte-indexed lookups, and PC-2,
//     composed with the window split, is eight lookups of 7-bit
//     chunks of C‖D per round. Expanding a key costs 136 loads instead
//     of 824 single-bit steps.
//
// The bit-by-bit transcription of the standard lives in des_test.go as
// the oracle: TestFastMatchesReference and TestExpandKeyMatchesReference
// cross-check the two, and the FIPS/stdlib vectors validate the result.

var (
	// spBox[i][v] is S-box i applied to the 6-bit value v, already run
	// through the round permutation P and positioned in the 32-bit word.
	spBox [8][64]uint32

	// ipTab[b][v] is the contribution of input byte b holding value v to
	// the 64-bit output of the initial permutation; fpTab likewise for
	// the final permutation.
	ipTab [8][256]uint64
	fpTab [8][256]uint64

	// pc1Tab[b][v] is the contribution of key byte b holding value v to
	// C‖D, the 56-bit output of PC-1.
	pc1Tab [8][256]uint64

	// pc2Tab[j][v] is the contribution of 7-bit chunk j of C‖D (chunks
	// 0–3 are C, 4–7 are D, most significant first) holding v to one
	// round's key words: PC-2 followed by the window split of
	// windowWords, the even word in the high half, the odd in the low.
	pc2Tab [8][128]uint64
)

func init() {
	// SP boxes: for each S-box output nibble, apply P.
	for box := 0; box < 8; box++ {
		for v := 0; v < 64; v++ {
			row := (v>>4)&2 | v&1
			col := (v >> 1) & 0xf
			nibble := uint64(sBoxes[box][row*16+col])
			// Position the nibble in the 32-bit pre-P word.
			pre := nibble << uint(28-4*box)
			spBox[box][v] = uint32(permute(pre, 32, roundPermutation[:]))
		}
	}
	// Byte-indexed linear permutations: a permutation distributes over
	// OR across disjoint input bits, so per-byte contributions combine.
	for b := 0; b < 8; b++ {
		for v := 0; v < 256; v++ {
			in := uint64(v) << uint(56-8*b)
			ipTab[b][v] = permute(in, 64, initialPermutation[:])
			fpTab[b][v] = permute(in, 64, finalPermutation[:])
			pc1Tab[b][v] = permute(in, 64, permutedChoice1[:])
		}
	}
	for j := 0; j < 8; j++ {
		for v := 0; v < 128; v++ {
			cd := uint64(v) << uint(49-7*j)
			pc2Tab[j][v] = windowWords(permute(cd, 56, permutedChoice2[:]))
		}
	}
}

// permuteIP applies the initial permutation via tables.
func permuteIP(v uint64) uint64 {
	return ipTab[0][v>>56] | ipTab[1][v>>48&0xff] | ipTab[2][v>>40&0xff] |
		ipTab[3][v>>32&0xff] | ipTab[4][v>>24&0xff] | ipTab[5][v>>16&0xff] |
		ipTab[6][v>>8&0xff] | ipTab[7][v&0xff]
}

// permuteFP applies the final permutation via tables.
func permuteFP(v uint64) uint64 {
	return fpTab[0][v>>56] | fpTab[1][v>>48&0xff] | fpTab[2][v>>40&0xff] |
		fpTab[3][v>>32&0xff] | fpTab[4][v>>24&0xff] | fpTab[5][v>>16&0xff] |
		fpTab[6][v>>8&0xff] | fpTab[7][v&0xff]
}

// windowWords splits a 48-bit round subkey into the two
// window-positioned words of ks, packed even<<32 | odd. E's eight 6-bit
// windows cover, in the cyclic bit sequence (32, 1, 2, ..., 31) of R,
// positions 4j..4j+5 for window j. With R2 = R rotated right by one (so
// R2's MSB is bit 32), the even windows j = 0,2,4,6 are the disjoint
// 6-bit fields of R2 at shifts 26,18,10,2; the odd windows are the same
// fields of R2 rotated left by four. Each round key is split the same
// way so one XOR per word aligns key and data.
func windowWords(k uint64) uint64 {
	even := uint32(k>>42&0x3f)<<26 | uint32(k>>30&0x3f)<<18 |
		uint32(k>>18&0x3f)<<10 | uint32(k>>6&0x3f)<<2
	odd := uint32(k>>36&0x3f)<<26 | uint32(k>>24&0x3f)<<18 |
		uint32(k>>12&0x3f)<<10 | uint32(k&0x3f)<<2
	return uint64(even)<<32 | uint64(odd)
}

// expandKey writes key's schedule into c.ks. Every step is linear in
// the key bits, so the per-byte and per-chunk contributions OR together.
func (c *Cipher) expandKey(key Key) {
	cd := pc1Tab[0][key[0]] | pc1Tab[1][key[1]] | pc1Tab[2][key[2]] |
		pc1Tab[3][key[3]] | pc1Tab[4][key[4]] | pc1Tab[5][key[5]] |
		pc1Tab[6][key[6]] | pc1Tab[7][key[7]]
	ch, dh := cd>>28, cd&0x0fffffff
	for r := 0; r < 16; r++ {
		ch = rotate28(ch, keyRotations[r])
		dh = rotate28(dh, keyRotations[r])
		w := pc2Tab[0][ch>>21&0x7f] | pc2Tab[1][ch>>14&0x7f] |
			pc2Tab[2][ch>>7&0x7f] | pc2Tab[3][ch&0x7f] |
			pc2Tab[4][dh>>21&0x7f] | pc2Tab[5][dh>>14&0x7f] |
			pc2Tab[6][dh>>7&0x7f] | pc2Tab[7][dh&0x7f]
		c.ks[2*r] = uint32(w >> 32)
		c.ks[2*r+1] = uint32(w)
	}
}

// round is one Feistel round on (l, r) with the two window-positioned
// key words, returning the new (l, r).
func round(l, r, ku, kt uint32) (uint32, uint32) {
	r2 := bits.RotateLeft32(r, 31)
	u := r2 ^ ku
	t := bits.RotateLeft32(r2, 4) ^ kt
	f := spBox[0][u>>26] | spBox[2][u>>18&0x3f] |
		spBox[4][u>>10&0x3f] | spBox[6][u>>2&0x3f] |
		spBox[1][t>>26] | spBox[3][t>>18&0x3f] |
		spBox[5][t>>10&0x3f] | spBox[7][t>>2&0x3f]
	return r, l ^ f
}

// cryptFast is the table-driven cipher core used by all block
// operations.
func (c *Cipher) cryptFast(block uint64, decrypt bool) uint64 {
	v := permuteIP(block)
	l := uint32(v >> 32)
	r := uint32(v)
	ks := &c.ks
	if decrypt {
		for i := 30; i >= 0; i -= 2 {
			l, r = round(l, r, ks[i], ks[i+1])
		}
	} else {
		for i := 0; i < 32; i += 2 {
			l, r = round(l, r, ks[i], ks[i+1])
		}
	}
	return permuteFP(uint64(r)<<32 | uint64(l))
}
