package softcrypto

import "encoding/binary"

// CTAES is a constant-time AES-128: SubBytes is computed arithmetically on
// all 16 state bytes at once (bitsliced GF(2^8) inversion by a fixed
// square-and-multiply chain plus the affine transform) instead of by table
// lookup, and so is the key schedule's SubWord. No branch and no memory
// index depends on the state or the key, so there is nothing for
// Evict+Time / Prime+Probe / Flush+Reload to observe — the software
// countermeasure cited as [3] (Bernstein–Lange–Schwabe) in the paper.
type CTAES struct {
	rk RoundKeys
}

// NewCTAES expands the key for constant-time encryption.
func NewCTAES(key []byte) (*CTAES, error) {
	rk, err := expandKey(key, subWordCT)
	if err != nil {
		return nil, err
	}
	return &CTAES{rk: rk}, nil
}

// subWordCT is the key schedule's SubWord through the bitsliced S-box.
func subWordCT(w *[4]byte) {
	var s [16]byte
	copy(s[:], w[:])
	subBytesCT(&s)
	copy(w[:], s[:4])
}

// planes is a bitsliced vector of 16 GF(2^8) elements: bit i of planes[j]
// is bit j of lane i.
type planes [8]uint16

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x
// (bit c of row r moves to bit r of row c).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// toPlanes slices the 16 state bytes into bit planes.
func toPlanes(s *[16]byte) planes {
	lo := transpose8(binary.LittleEndian.Uint64(s[:8]))
	hi := transpose8(binary.LittleEndian.Uint64(s[8:]))
	var p planes
	for j := range p {
		p[j] = uint16(byte(lo>>(8*j))) | uint16(byte(hi>>(8*j)))<<8
	}
	return p
}

// fromPlanes is the inverse of toPlanes.
func fromPlanes(p *planes, s *[16]byte) {
	var lo, hi uint64
	for j := range p {
		lo |= uint64(byte(p[j])) << (8 * j)
		hi |= uint64(p[j]>>8) << (8 * j)
	}
	binary.LittleEndian.PutUint64(s[:8], transpose8(lo))
	binary.LittleEndian.PutUint64(s[8:], transpose8(hi))
}

// gfMul multiplies lane by lane in GF(2^8) modulo the AES polynomial
// x^8+x^4+x^3+x+1: a schoolbook AND/XOR product, then the degree-8..14
// terms folded down (x^8 = x^4+x^3+x+1) from the top.
func gfMul(a, b *planes) planes {
	var c [15]uint16
	for i := range a {
		for j := range b {
			c[i+j] ^= a[i] & b[j]
		}
	}
	for k := 14; k >= 8; k-- {
		c[k-8] ^= c[k]
		c[k-7] ^= c[k]
		c[k-5] ^= c[k]
		c[k-4] ^= c[k]
	}
	return planes(c[:8])
}

// gfSquare squares lane by lane. Squaring is linear over GF(2), so each
// output plane is a fixed XOR of input planes.
func gfSquare(a *planes) planes {
	return planes{
		a[0] ^ a[4] ^ a[6],
		a[4] ^ a[6] ^ a[7],
		a[1] ^ a[5],
		a[4] ^ a[5] ^ a[6] ^ a[7],
		a[2] ^ a[4] ^ a[7],
		a[5] ^ a[6],
		a[3] ^ a[5],
		a[6] ^ a[7],
	}
}

// subBytesCT applies the AES S-box to all 16 state bytes: x^254 = x^-1
// (0 maps to 0) by the chain x^254 = x^128·x^64·x^32·x^16·x^8·x^4·x^2,
// then the affine transform b ^ rotl1(b) ^ rotl2(b) ^ rotl3(b) ^ rotl4(b)
// ^ 0x63.
func subBytesCT(s *[16]byte) {
	x := toPlanes(s)
	x2 := gfSquare(&x)
	x4 := gfSquare(&x2)
	x8 := gfSquare(&x4)
	x16 := gfSquare(&x8)
	x32 := gfSquare(&x16)
	x64 := gfSquare(&x32)
	x128 := gfSquare(&x64)
	r := gfMul(&x128, &x64)
	r = gfMul(&r, &x32)
	r = gfMul(&r, &x16)
	r = gfMul(&r, &x8)
	r = gfMul(&r, &x4)
	r = gfMul(&r, &x2)
	var out planes
	for j := range out {
		out[j] = r[j] ^ r[(j+7)%8] ^ r[(j+6)%8] ^ r[(j+5)%8] ^ r[(j+4)%8]
		out[j] ^= -uint16(0x63 >> j & 1) // all lanes' bit j of 0x63
	}
	fromPlanes(&out, s)
}

// Encrypt performs one constant-time block encryption.
func (c *CTAES) Encrypt(pt []byte) [16]byte {
	var s [16]byte
	copy(s[:], pt)
	addRoundKey(&s, &c.rk[0])
	for round := 1; round <= 9; round++ {
		subBytesCT(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, &c.rk[round])
	}
	subBytesCT(&s)
	shiftRows(&s)
	addRoundKey(&s, &c.rk[10])
	return s
}
