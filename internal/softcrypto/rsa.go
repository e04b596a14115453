package softcrypto

import (
	"fmt"
	"io"
	"math/big"
)

// This file implements the RSA victims of Section 5: modular
// exponentiation with a data-dependent timing model (Kocher's timing
// attack, [23]), a Montgomery-ladder countermeasure with constant per-bit
// cost, and CRT signing with a fault hook (the Boneh–DeMillo–Lipton
// "Bellcore" attack, [5]).

// ExpTiming records the simulated execution time of a modular
// exponentiation. PerBit holds the cost of each key-bit iteration, MSB
// first; Total is their sum.
type ExpTiming struct {
	Total  int
	PerBit []int
}

// Cost model constants (cycles): a modular squaring, a modular multiply,
// and the data-dependent extra reduction that fires when an intermediate
// exceeds half the modulus (the Montgomery-reduction artifact Kocher's
// attack conditions on).
const (
	costSquare   = 10
	costMultiply = 10
	costExtraRed = 3
)

// extraReduction models the conditional final subtraction of a modular
// reduction: present when the pre-reduction value's low half exceeds the
// modulus half. The predicate must be computable by an attacker simulating
// the algorithm, which this one is.
func extraReduction(v, mod *big.Int) bool {
	half := new(big.Int).Rsh(mod, 1)
	return v.Cmp(half) > 0
}

// ModExpSquareMultiply computes base^exp mod m by left-to-right square-
// and-multiply, returning the data-dependent timing trace. The multiply is
// executed only for 1-bits — the timing channel.
func ModExpSquareMultiply(base, exp, m *big.Int) (*big.Int, ExpTiming) {
	result := big.NewInt(1)
	b := new(big.Int).Mod(base, m)
	bits := exp.BitLen()
	t := ExpTiming{PerBit: make([]int, 0, bits)}
	for i := bits - 1; i >= 0; i-- {
		cost := 0
		result.Mul(result, result)
		result.Mod(result, m)
		cost += costSquare
		if extraReduction(result, m) {
			cost += costExtraRed
		}
		if exp.Bit(i) == 1 {
			result.Mul(result, b)
			result.Mod(result, m)
			cost += costMultiply
			if extraReduction(result, m) {
				cost += costExtraRed
			}
		}
		t.PerBit = append(t.PerBit, cost)
		t.Total += cost
	}
	return result, t
}

// ModExpLadder computes base^exp mod m with the Montgomery ladder: every
// iteration performs exactly one square and one multiply regardless of the
// key bit, and the extra-reduction cost is charged unconditionally —
// constant-time per bit.
func ModExpLadder(base, exp, m *big.Int) (*big.Int, ExpTiming) {
	r0 := big.NewInt(1)
	r1 := new(big.Int).Mod(base, m)
	bits := exp.BitLen()
	t := ExpTiming{PerBit: make([]int, 0, bits)}
	for i := bits - 1; i >= 0; i-- {
		if exp.Bit(i) == 0 {
			r1.Mul(r1, r0)
			r1.Mod(r1, m)
			r0.Mul(r0, r0)
			r0.Mod(r0, m)
		} else {
			r0.Mul(r0, r1)
			r0.Mod(r0, m)
			r1.Mul(r1, r1)
			r1.Mod(r1, m)
		}
		// Constant cost: one multiply + one square + worst-case reduction.
		cost := costSquare + costMultiply + 2*costExtraRed
		t.PerBit = append(t.PerBit, cost)
		t.Total += cost
	}
	return r0, t
}

// RSAKey is an RSA private key with CRT parameters exposed for the fault
// experiments.
type RSAKey struct {
	N, E, D *big.Int
	P, Q    *big.Int
	DP, DQ  *big.Int // d mod p-1, d mod q-1
	QInv    *big.Int // q^-1 mod p
}

// primeFrom draws random odd candidates of exactly the given bit length
// from r until one passes ProbablyPrime. Unlike crypto/rand.Prime it
// consumes nothing but the reader's bytes (and ProbablyPrime is
// deterministic for a given input), so the result is reproducible for a
// deterministic reader.
func primeFrom(r io.Reader, bits int) (*big.Int, error) {
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("softcrypto: prime candidate: %w", err)
		}
		p.SetBytes(buf)
		// Trim to size, then force the top bit (full bit length) and the
		// low bit (odd).
		p.SetBit(p, bits, 0)
		for b := p.BitLen(); b > bits; b = p.BitLen() {
			p.SetBit(p, b-1, 0)
		}
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, 0, 1)
		if p.ProbablyPrime(32) {
			return new(big.Int).Set(p), nil
		}
	}
}

// GenerateRSAFrom creates an RSA key of the given bit size drawing all
// randomness from r, and is deterministic for a deterministic reader —
// unlike crypto/rsa.GenerateKey and crypto/rand.Prime, which both
// intentionally defeat deterministic use. Experiment victims use it with
// the engine's per-job RNG so results are reproducible under any
// parallelism.
func GenerateRSAFrom(r io.Reader, bits int) (*RSAKey, error) {
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		p, err := primeFrom(r, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := primeFrom(r, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue // gcd(e, phi) != 1: re-draw the primes
		}
		return &RSAKey{
			N: new(big.Int).Mul(p, q), E: new(big.Int).Set(e), D: d,
			P: p, Q: q,
			DP:   new(big.Int).Mod(d, pm1),
			DQ:   new(big.Int).Mod(d, qm1),
			QInv: new(big.Int).ModInverse(q, p),
		}, nil
	}
}

// CRTFault lets a fault campaign corrupt one of the two half
// exponentiations of a CRT signature. Half is 0 for the mod-p part, 1 for
// mod-q; XORMask is applied to the half result.
type CRTFault struct {
	Half    int
	XORMask uint
}

// SignCRT computes m^d mod n via the Chinese Remainder Theorem — the
// standard 4x speedup — optionally injecting a computation fault. A single
// faulty half-exponentiation makes the signature correct modulo one prime
// and wrong modulo the other, which is everything the Bellcore attack
// needs.
func (k *RSAKey) SignCRT(msg *big.Int, fault *CRTFault) *big.Int {
	sp := new(big.Int).Exp(msg, k.DP, k.P)
	sq := new(big.Int).Exp(msg, k.DQ, k.Q)
	if fault != nil {
		if fault.Half == 0 {
			sp.Xor(sp, new(big.Int).SetUint64(uint64(fault.XORMask)))
			sp.Mod(sp, k.P)
		} else {
			sq.Xor(sq, new(big.Int).SetUint64(uint64(fault.XORMask)))
			sq.Mod(sq, k.Q)
		}
	}
	// s = sq + q * ((sp - sq) * qInv mod p)
	h := new(big.Int).Sub(sp, sq)
	h.Mul(h, k.QInv)
	h.Mod(h, k.P)
	s := new(big.Int).Mul(k.Q, h)
	s.Add(s, sq)
	return s
}

// SignCRTChecked is SignCRT with the verify-before-release fault check
// (Shamir's countermeasure family, paper §5): the signer re-verifies the
// CRT result against the public exponent and withholds it when the check
// trips. A Bellcore attacker therefore never observes the faulty
// signature it needs — ok reports whether a signature was released.
func (k *RSAKey) SignCRTChecked(msg *big.Int, fault *CRTFault) (*big.Int, bool) {
	s := k.SignCRT(msg, fault)
	if !k.Verify(msg, s) {
		return nil, false
	}
	return s, true
}

// Verify checks s^e == m mod n.
func (k *RSAKey) Verify(msg, sig *big.Int) bool {
	v := new(big.Int).Exp(sig, k.E, k.N)
	return v.Cmp(new(big.Int).Mod(msg, k.N)) == 0
}
