package des

import "math/bits"

// Precomputed lookup tables, built once at init from the FIPS tables in
// tables.go, and the table-driven cipher core that uses them. This is
// the classic software-DES optimization lineage of the 1988 libdes
// generation:
//
//   - The core runs in a "domain": a block is taken through IP and each
//     32-bit half is then rotated right by one bit. Everything between
//     IP and FP happens there, and toDomain and fromDomain are the only
//     ways in and out.
//   - The P permutation is folded into the S-boxes ("SP boxes"), and
//     each SP box entry is pre-rotated right by one bit, so a round's
//     nonlinear output lands in the domain as it is: eight table
//     lookups ORed together, XORed into the other half.
//   - The E expansion is never materialized. E replicates each 4-bit
//     group's neighbours, so its eight overlapping 6-bit windows split
//     into two sets of four *disjoint* windows: the even windows read
//     directly from a domain half (R rotated right by one bit), the
//     odd windows from that word rotated left four more. Each round
//     therefore XORs two pre-positioned 32-bit key words and extracts
//     eight 6-bit indices with plain shifts: no expansion tables, no
//     alignment rotate, 8 loads per round.
//   - The core runs two rounds per loop iteration, the second with the
//     halves' roles exchanged, so no l/r swap is ever executed, and the
//     round body is written out in the loop rather than called.
//   - IP and FP are computed by delta swaps (five masked exchanges of
//     bit groups, as crypto/des does) instead of byte-indexed tables.
//   - The domain map is a bit permutation, so it distributes over XOR.
//     The chaining modes (modes.go, key.go) feed the core's output
//     straight back into the next block in the domain; only the
//     plaintext going in and the ciphertext coming out are mapped,
//     and neither mapping sits on the serial chain.
//   - Decryption of a chained message has no serial dependency between
//     blocks' DES operations, only in the XOR chain after them, so
//     decrypt2 runs two blocks' rounds in lockstep and the processor
//     overlaps their table loads.
//   - The key schedule is stored only as 32 window-positioned 32-bit
//     words (ks, what the rounds consume), and key expansion is
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
	// through the round permutation P, positioned in the 32-bit word and
	// rotated right by one bit into the domain. It is reached through a
	// pointer so the core addresses all eight boxes from one base
	// register: indexing the array variable directly, the compiler keeps
	// eight table addresses live across a round and spills to the stack.
	spBox = new([8][64]uint32)

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
	// SP boxes: for each S-box output nibble, apply P, then rotate the
	// result into the domain.
	for box := 0; box < 8; box++ {
		for v := 0; v < 64; v++ {
			row := (v>>4)&2 | v&1
			col := (v >> 1) & 0xf
			nibble := uint64(sBoxes[box][row*16+col])
			// Position the nibble in the 32-bit pre-P word.
			pre := nibble << uint(28-4*box)
			sp := uint32(permute(pre, 32, roundPermutation[:]))
			spBox[box][v] = bits.RotateLeft32(sp, -1)
		}
	}
	// PC-1 is linear: a permutation distributes over OR across disjoint
	// input bits, so per-byte contributions combine.
	for b := 0; b < 8; b++ {
		for v := 0; v < 256; v++ {
			pc1Tab[b][v] = permute(uint64(v)<<uint(56-8*b), 64, permutedChoice1[:])
		}
	}
	for j := 0; j < 8; j++ {
		for v := 0; v < 128; v++ {
			cd := uint64(v) << uint(49-7*j)
			pc2Tab[j][v] = windowWords(permute(cd, 56, permutedChoice2[:]))
		}
	}
}

// toDomain maps a block into the core's domain: IP by delta swaps, then
// each half rotated right by one bit. It is a bit permutation, so
// toDomain(a^b) == toDomain(a)^toDomain(b).
func toDomain(b uint64) uint64 {
	// The exchanges of crypto/des's permuteInitialBlock, in its order.
	t := (b ^ b>>48) & 0xffff
	b ^= t | t<<48
	t = (b>>32 ^ b>>8) & 0x00ff00ff
	b ^= t<<32 | t<<8
	t = (b ^ b>>12) & 0x0000f0f00000f0f0
	b ^= t | t<<12
	t = (b ^ b>>6) & 0x00cc00cc00cc00cc
	b ^= t | t<<6
	t = (b ^ b>>33) & 0x0000000055555555
	b ^= t | t<<33
	return b>>1&0x7fffffff7fffffff | b<<31&0x8000000080000000
}

// fromDomain is the inverse of toDomain: each half rotated left by one
// bit, then FP by the same exchanges in reverse order.
func fromDomain(b uint64) uint64 {
	b = b<<1&0xfffffffefffffffe | b>>31&0x0000000100000001
	t := (b ^ b>>33) & 0x0000000055555555
	b ^= t | t<<33
	t = (b ^ b>>6) & 0x00cc00cc00cc00cc
	b ^= t | t<<6
	t = (b ^ b>>12) & 0x0000f0f00000f0f0
	b ^= t | t<<12
	t = (b>>32 ^ b>>8) & 0x00ff00ff
	b ^= t<<32 | t<<8
	t = (b ^ b>>48) & 0xffff
	b ^= t | t<<48
	return b
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

// core runs the 16 rounds on a block in the domain, with the subkeys
// forward to encrypt or backward to decrypt, and returns the result in
// the domain: fromDomain of it is the output block.
func (c *Cipher) core(v uint64, decrypt bool) uint64 {
	l, r := uint32(v>>32), uint32(v)
	ks, sp := &c.ks, spBox
	// Each iteration runs two rounds; a and b index the first and the
	// second round's key words (masked, so no bounds check is left).
	a, b, step := 0, 2, 4
	if decrypt {
		a, b, step = 30, 28, -4
	}
	for n := 0; n < 8; n++ {
		u := r ^ ks[a&31]
		t := bits.RotateLeft32(r, 4) ^ ks[(a+1)&31]
		l ^= sp[0][u>>26] | sp[2][u>>18&0x3f] |
			sp[4][u>>10&0x3f] | sp[6][u>>2&0x3f] |
			sp[1][t>>26] | sp[3][t>>18&0x3f] |
			sp[5][t>>10&0x3f] | sp[7][t>>2&0x3f]
		u = l ^ ks[b&31]
		t = bits.RotateLeft32(l, 4) ^ ks[(b+1)&31]
		r ^= sp[0][u>>26] | sp[2][u>>18&0x3f] |
			sp[4][u>>10&0x3f] | sp[6][u>>2&0x3f] |
			sp[1][t>>26] | sp[3][t>>18&0x3f] |
			sp[5][t>>10&0x3f] | sp[7][t>>2&0x3f]
		a += step
		b += step
	}
	return uint64(r)<<32 | uint64(l)
}

// cryptFast encrypts or decrypts one block: into the domain, through
// the core and back out.
func (c *Cipher) cryptFast(block uint64, decrypt bool) uint64 {
	return fromDomain(c.core(toDomain(block), decrypt))
}

// decrypt2 decrypts two independent blocks in the domain with their
// rounds interleaved, so the two lanes' table loads overlap.
func (c *Cipher) decrypt2(v0, v1 uint64) (uint64, uint64) {
	l0, r0 := uint32(v0>>32), uint32(v0)
	l1, r1 := uint32(v1>>32), uint32(v1)
	ks, sp := &c.ks, spBox
	for i := 28; i >= 0; i -= 4 {
		ku, kt := ks[i+2], ks[i+3]
		u0, u1 := r0^ku, r1^ku
		t0, t1 := bits.RotateLeft32(r0, 4)^kt, bits.RotateLeft32(r1, 4)^kt
		l0 ^= sp[0][u0>>26] | sp[2][u0>>18&0x3f] |
			sp[4][u0>>10&0x3f] | sp[6][u0>>2&0x3f] |
			sp[1][t0>>26] | sp[3][t0>>18&0x3f] |
			sp[5][t0>>10&0x3f] | sp[7][t0>>2&0x3f]
		l1 ^= sp[0][u1>>26] | sp[2][u1>>18&0x3f] |
			sp[4][u1>>10&0x3f] | sp[6][u1>>2&0x3f] |
			sp[1][t1>>26] | sp[3][t1>>18&0x3f] |
			sp[5][t1>>10&0x3f] | sp[7][t1>>2&0x3f]
		ku, kt = ks[i], ks[i+1]
		u0, u1 = l0^ku, l1^ku
		t0, t1 = bits.RotateLeft32(l0, 4)^kt, bits.RotateLeft32(l1, 4)^kt
		r0 ^= sp[0][u0>>26] | sp[2][u0>>18&0x3f] |
			sp[4][u0>>10&0x3f] | sp[6][u0>>2&0x3f] |
			sp[1][t0>>26] | sp[3][t0>>18&0x3f] |
			sp[5][t0>>10&0x3f] | sp[7][t0>>2&0x3f]
		r1 ^= sp[0][u1>>26] | sp[2][u1>>18&0x3f] |
			sp[4][u1>>10&0x3f] | sp[6][u1>>2&0x3f] |
			sp[1][t1>>26] | sp[3][t1>>18&0x3f] |
			sp[5][t1>>10&0x3f] | sp[7][t1>>2&0x3f]
	}
	return uint64(r0)<<32 | uint64(l0), uint64(r1)<<32 | uint64(l1)
}
