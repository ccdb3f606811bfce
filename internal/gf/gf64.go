// Package gf implements arithmetic over the finite field GF(2^64) of
// characteristic two, together with univariate polynomial arithmetic over
// that field.
//
// The field is the quotient ring GF(2)[z] / (z^64 + z^4 + z^3 + z + 1); an
// element is the uint64 whose bit i is the coefficient of z^i. Addition is
// bitwise XOR. The package is the algebraic substrate of the Reed–Solomon
// syndrome sketches in internal/rs (paper §4.2, §7.4): the edge-ID domain of
// the outdetect labeling scheme is embedded into the nonzero elements of
// this field.
package gf

import "math/bits"

// reduction is the low part of the irreducible modulus
// z^64 + z^4 + z^3 + z + 1: when a product overflows past z^63, z^64 is
// replaced by z^4 + z^3 + z + 1 = 0x1B.
const reduction uint64 = 0x1B

// Add returns a + b in GF(2^64). Subtraction is identical because the field
// has characteristic two.
func Add(a, b uint64) uint64 { return a ^ b }

// Mul returns the product a·b in GF(2^64).
//
// The carry-less product is formed with ordinary integer multiplications
// (clmulLo), branch-free and constant-bounded, so that decoding costs
// measured in field multiplications are stable across inputs. Its high half
// is the low half of the product of the bit-reversed operands, reversed
// back and shifted down one bit: the reversed operands' product holds the
// 127 product coefficients in reverse order.
// Where one multiplicand is fixed across a long chain of products, a
// gf.Table can still be cheaper.
func Mul(a, b uint64) uint64 {
	lo := clmulLo(a, b)
	hi := bits.Reverse64(clmulLo(bits.Reverse64(a), bits.Reverse64(b))) >> 1
	return reduce128(hi, lo)
}

// Lane masks for clmulLo: lane r holds the bits at positions ≡ r (mod 4).
const (
	lane0 uint64 = 0x1111111111111111
	lane1 uint64 = 0x2222222222222222
	lane2 uint64 = 0x4444444444444444
	lane3 uint64 = 0x8888888888888888
)

// clmulLo returns the low 64 bits of the carry-less product x·y in GF(2)[z].
//
// Each operand is split into four lanes of bits spaced four apart, so an
// integer product of two lanes only has partial products at positions of one
// residue mod 4, and the position-k sum counts at most 16 of them. Below
// bit 60 that count is at most 15 and fits in the three-bit hole above
// position k, so no carry reaches the next position of the lane; bit 60
// carries only past bit 63. The lowest bit of each count is the XOR of the
// partial products — the carry-less coefficient — and the output lane mask
// keeps exactly those bits.
func clmulLo(x, y uint64) uint64 {
	x0, x1, x2, x3 := x&lane0, x&lane1, x&lane2, x&lane3
	y0, y1, y2, y3 := y&lane0, y&lane1, y&lane2, y&lane3
	z0 := x0*y0 ^ x1*y3 ^ x2*y2 ^ x3*y1
	z1 := x0*y1 ^ x1*y0 ^ x2*y3 ^ x3*y2
	z2 := x0*y2 ^ x1*y1 ^ x2*y0 ^ x3*y3
	z3 := x0*y3 ^ x1*y2 ^ x2*y1 ^ x3*y0
	return z0&lane0 | z1&lane1 | z2&lane2 | z3&lane3
}

// reduce128 reduces a 128-bit carry-less product (hi·2^64 + lo) modulo the
// field polynomial. z^64 ≡ z^4 + z^3 + z + 1, so hi folds in as four
// shift-XORs; the ≤4 bits that spill past z^63 (from the z^4/z^3/z shifts)
// fold once more, branchlessly — this sits on every product and squaring.
func reduce128(hi, lo uint64) uint64 {
	lo ^= hi<<4 ^ hi<<3 ^ hi<<1 ^ hi
	spill := hi>>60 ^ hi>>61 ^ hi>>63
	return lo ^ spill<<4 ^ spill<<3 ^ spill<<1 ^ spill
}

// Sqr returns a² in GF(2^64). Squaring is GF(2)-linear (the Frobenius
// endomorphism): it interleaves the bits of a with zeros and reduces.
func Sqr(a uint64) uint64 {
	lo := spreadBits(uint32(a))
	hi := spreadBits(uint32(a >> 32))
	return reduce128(hi, lo)
}

// spreadBits inserts a zero bit between consecutive bits of a
// (carry-less squaring of a 32-bit value).
func spreadBits(a uint32) uint64 {
	x := uint64(a)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Pow returns a^e in GF(2^64) by square-and-multiply.
func Pow(a uint64, e uint64) uint64 {
	var r uint64 = 1
	base := a
	for e != 0 {
		if e&1 != 0 {
			r = Mul(r, base)
		}
		base = Sqr(base)
		e >>= 1
	}
	return r
}

// Inv returns the multiplicative inverse of a. Inv(0) returns 0; callers
// that must distinguish this case check for zero first (the Reed–Solomon
// decoder never inverts zero on valid inputs and treats a zero root as a
// decoding failure).
//
// The multiplicative group has order 2^64 − 1, so a⁻¹ = a^(2^64−2) =
// (a^(2^63−1))². The inner power is an Itoh–Tsujii addition chain over
// a_k = a^(2^k−1), using a_(j+k) = a_j^(2^k)·a_k along k = 1, 2, 3, 6, 12,
// 15, 30, 60, 63: 8 products and 62 squarings, plus the final squaring —
// against 63 products and 64 squarings for Pow(a, 2^64−2).
func Inv(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	a2 := Mul(sqrN(a, 1), a)     // a^(2^2−1)
	a3 := Mul(sqrN(a2, 1), a)    // a^(2^3−1)
	a6 := Mul(sqrN(a3, 3), a3)   // a^(2^6−1)
	a12 := Mul(sqrN(a6, 6), a6)  // a^(2^12−1)
	a15 := Mul(sqrN(a12, 3), a3) // a^(2^15−1)
	a30 := Mul(sqrN(a15, 15), a15)
	a60 := Mul(sqrN(a30, 30), a30)
	a63 := Mul(sqrN(a60, 3), a3)
	return Sqr(a63)
}

// sqrN returns a^(2^n): n successive squarings.
func sqrN(a uint64, n int) uint64 {
	for ; n > 0; n-- {
		a = Sqr(a)
	}
	return a
}
