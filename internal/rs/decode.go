// Package rs implements the paper's first key technique (§4.2, §7.4,
// Appendix B): a deterministic k-threshold outdetect labeling scheme derived
// from the parity-check matrix of a Reed–Solomon code over GF(2^64).
//
// Every edge e carries a nonzero field element α_e (its edge ID). The sketch
// of e is the vector of its first 2k powers (α_e, α_e², …, α_e^2k) — the
// row of the parity-check matrix C_2k indexed by e. The sketch of a vertex
// is the XOR (field sum) of its incident edges' sketches, so the sketch of a
// vertex set S telescopes to the power sums S_j = Σ_{e∈∂(S)} α_e^j of the
// outgoing edges. Recovering ∂(S) from those power sums is exactly syndrome
// decoding of a weight-≤k binary error vector: Berlekamp–Massey produces the
// error-locator polynomial and the Berlekamp trace algorithm finds its roots
// in time polynomial in k and the field degree — never in the (astronomical)
// codeword length, which is the property Proposition 2 requires.
//
// The prefix property of Proposition 6 (Appendix B) holds by construction:
// the first 2k′ coordinates of a 2k-sketch are precisely the 2k′-sketch, so
// decoding can adapt its budget to the actual cut size.
package rs

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/gf"
)

// ErrOverload is returned when the syndrome does not correspond to any edge
// set of size at most the decoding budget. Per Proposition 2 the decoder's
// output is unspecified when |∂(S)| exceeds the threshold; this
// implementation detects (rather than silently mis-reports) that case by
// re-encoding verification.
var ErrOverload = errors.New("rs: syndrome is not a consistent ≤k-edge sketch")

// Sketch is the power-sum syndrome vector of an edge set. Sketch[j] holds
// S_{j+1} = Σ_e α_e^{j+1}. The zero value (or any all-zero vector) encodes
// the empty edge set. Sketches of equal length form a GF(2)-linear space
// under XOR, which is what lets vertex labels aggregate over any vertex set.
type Sketch []uint64

// NewSketch returns an all-zero sketch with threshold k (length 2k).
func NewSketch(k int) Sketch { return make(Sketch, 2*k) }

// K returns the threshold the sketch was sized for.
func (s Sketch) K() int { return len(s) / 2 }

// AddEdge folds edge ID alpha into the sketch. alpha must be nonzero; a zero
// ID would be indistinguishable from absence.
func (s Sketch) AddEdge(alpha uint64) {
	PowerSums(s, alpha)
}

// PowerSums XORs the first len(dst) power sums of alpha — the Reed–Solomon
// parity-check row (α, α², …, α^len(dst)) — into dst. This is the batched
// accumulation kernel: the window table of α is built once (gf.Table) and
// reused across the whole Horner chain, instead of once per gf.Mul. A zero
// alpha is a no-op, matching the AddEdge contract that IDs are nonzero.
func PowerSums(dst []uint64, alpha uint64) {
	if alpha == 0 {
		return
	}
	tab := gf.NewTable(alpha)
	pow := alpha
	for j := range dst {
		dst[j] ^= pow
		pow = tab.Mul(pow)
	}
}

// PowerRow overwrites dst with the full parity-check row: dst[j] = α^(j+1).
// Unlike PowerSums it owns dst, which lets it use the Frobenius shortcut:
// odd exponents come from a Horner chain in α² (one cached-table product
// each) and even exponents are squares of already-computed entries (Sqr is
// several times cheaper than a product). This is the construction-arena
// kernel of core.Build — len(dst)/2 products + len(dst)/2 squarings instead
// of len(dst) products.
func PowerRow(dst []uint64, alpha uint64) {
	if len(dst) == 0 {
		return
	}
	if alpha == 0 {
		clear(dst)
		return
	}
	dst[0] = alpha
	if len(dst) == 1 {
		return
	}
	a2 := gf.Sqr(alpha)
	dst[1] = a2
	tab := gf.NewTable(a2)
	pow := alpha
	for j := 2; j < len(dst); j += 2 {
		pow = tab.Mul(pow) // α^(j+1) = α^(j-1)·α², odd exponents
		dst[j] = pow
	}
	for j := 3; j < len(dst); j += 2 {
		dst[j] = gf.Sqr(dst[(j-1)/2]) // α^(j+1) = (α^((j+1)/2))², even exponents
	}
}

// Xor folds another sketch of the same length into s. Adding a sketch twice
// cancels it — that cancellation is the telescoping at the heart of the
// scheme.
func (s Sketch) Xor(o Sketch) {
	if len(o) != len(s) {
		panic(fmt.Sprintf("rs: sketch length mismatch %d vs %d", len(s), len(o)))
	}
	for i, v := range o {
		s[i] ^= v
	}
}

// Clone returns an independent copy.
func (s Sketch) Clone() Sketch {
	c := make(Sketch, len(s))
	copy(c, s)
	return c
}

// IsZero reports whether every syndrome is zero (the sketch of the empty
// set; also the sketch of any set whose characteristic vector happens to be
// a codeword, which requires weight ≥ 2k+1 and is therefore impossible under
// the threshold guarantee).
func (s Sketch) IsZero() bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// Decode recovers the edge IDs whose sketch equals s, assuming at most
// budget of them. budget ≤ K(); budget < K() performs adaptive prefix
// decoding (Appendix B): only the first 2·budget syndromes drive the
// decoder, but the full vector is still used for verification. Returns the
// sorted edge IDs, a nil slice for the empty set, or ErrOverload.
func (s Sketch) Decode(budget int) ([]uint64, error) {
	if budget > s.K() {
		budget = s.K()
	}
	if budget <= 0 {
		if s.IsZero() {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: zero budget with nonzero syndrome", ErrOverload)
	}
	if s.IsZero() {
		return nil, nil
	}
	// One scratch allocation serves Berlekamp–Massey's three registers and
	// the re-encoding check.
	syn := s[:2*budget]
	regs := 3 * (len(syn) + 1)
	work := make([]uint64, regs+len(s))
	locator := berlekampMassey(syn, work[:regs])
	t := locator.Deg()
	if t == 0 || t > budget {
		return nil, fmt.Errorf("%w: locator degree %d outside (0,%d]", ErrOverload, t, budget)
	}
	// The roots of Λ(x) = Π(1 − α_e·x) are the inverses of the edge IDs, so
	// its reversal x^t·Λ(1/x) = Π(x − α_e) has the IDs themselves as roots.
	// Λ(0) = 1, so the reversal is already monic.
	reversed := make(gf.Poly, t+1)
	for i := range reversed {
		reversed[i] = locator[t-i]
	}
	ids, ok := findRoots(reversed)
	if !ok || len(ids) != t {
		return nil, fmt.Errorf("%w: locator does not split into %d distinct nonzero roots", ErrOverload, t)
	}
	// Re-encoding verification against the FULL syndrome vector: the
	// decoded set must reproduce every stored power sum, not just the
	// prefix that drove Berlekamp–Massey.
	if !s.consistentWith(ids, work[regs:]) {
		return nil, fmt.Errorf("%w: re-encoding check failed for %d candidates", ErrOverload, len(ids))
	}
	return ids, nil
}

// consistentWith checks that ids re-encode exactly to s, accumulating the
// re-encoding in check (len(s) words, overwritten).
func (s Sketch) consistentWith(ids []uint64, check []uint64) bool {
	clear(check)
	for _, id := range ids {
		if id == 0 {
			return false
		}
		PowerSums(check, id)
	}
	for i := range s {
		if check[i] != s[i] {
			return false
		}
	}
	return true
}

// berlekampMassey returns the minimal connection polynomial
// Λ(x) = 1 + λ₁x + … + λ_t x^t of the syndrome sequence: the unique monic
// (constant term 1) polynomial of minimal degree with
// Σ_i Λ_i · S_{j-i} = 0 for all j > t. For syndromes that are power sums of
// t ≤ len(syn)/2 distinct points, Λ's roots are the points' inverses.
//
// regs is scratch for the three registers (current, previous and the copy
// taken on a length change), at least 3·(len(syn)+1) words; the result
// aliases it. deg Λ never exceeds the register length l ≤ len(syn), so no
// update spills past len(syn)+1 coefficients.
func berlekampMassey(syn []uint64, regs []uint64) gf.Poly {
	size := len(syn) + 1
	clear(regs[:3*size])
	c := gf.Poly(regs[:size])         // current connection polynomial
	b := gf.Poly(regs[size : 2*size]) // previous connection polynomial
	tmp := gf.Poly(regs[2*size : 3*size])
	c[0], b[0] = 1, 1
	var l, bl int            // register lengths of c and b
	var m = 1                // steps since last length change
	var bDeltaInv uint64 = 1 // inverse of b's discrepancy
	for n := 0; n < len(syn); n++ {
		// Discrepancy d = S_n + Σ_{i=1..l} c_i S_{n-i}.
		d := syn[n]
		for i := 1; i <= l; i++ {
			if c[i] != 0 {
				d ^= gf.Mul(c[i], syn[n-i])
			}
		}
		if d == 0 {
			m++
			continue
		}
		coef := gf.Mul(d, bDeltaInv)
		lengthChange := 2*l <= n
		if lengthChange {
			copy(tmp, c)
		}
		// c ← c − coef · x^m · b
		for i, bc := range b[:bl+1] {
			if bc != 0 {
				c[i+m] ^= gf.Mul(coef, bc)
			}
		}
		if lengthChange {
			b, tmp = tmp, b
			bl = l
			bDeltaInv = gf.Inv(d)
			l = n + 1 - l
			m = 1
		} else {
			m++
		}
	}
	return gf.PolyTrim(c[:l+1])
}

// splitScramble is the dense field element γ that scales the monomial basis
// into findRoots' splitting directions γ·z^b (the 64-bit golden-ratio
// constant; any element whose trace functional reads many bits would do).
const splitScramble uint64 = 0x9E3779B97F4A7C15

// findRoots returns all distinct roots of p in GF(2^64) via the Berlekamp
// trace algorithm, reporting ok=false if p does not split into distinct
// nonzero linear factors (which signals an inconsistent syndrome). The roots
// come back sorted.
//
// Everything is computed modulo p once. The Frobenius table
// frob[i] = x^(2^i) mod p (63 squarings) first decides splitting outright:
// p divides x^(2^64) − x = Π_{a ∈ GF(2^64)} (x − a) exactly when it is a
// product of distinct linear factors. For each basis element β the trace
// map is then a linear combination of the table,
//
//	Tr(βx) mod p = Σ_{i<64} β^(2^i) · frob[i],
//
// and a pending factor q | p splits as gcd(q, Tr(βx) mod p), which equals
// gcd(q, Tr(βx) mod q). Tr takes values in {0, 1} on the roots, and for
// distinct roots some basis direction separates them, so the 64 basis
// elements peel every factor down to degree one.
//
// The basis is β_b = γ·z^b (see splitScramble), not the monomials z^b.
// Under this field's sparse modulus Tr(z^j) vanishes for every j < 64 but
// 61 and 63, so Tr(z^b·r) reads only bits 61−b, 63−b and a few wrapped ones
// of r: edge IDs, which pack two small preorders into the low bits of each
// 32-bit word, split nothing in the first ~18 monomial directions. Scaling
// by a dense γ keeps a basis — multiplication by γ ≠ 0 is invertible — and
// makes each Tr(β_b·r) a parity of about half of r's bits.
func findRoots(p gf.Poly) ([]uint64, bool) {
	p = gf.PolyMonic(p)
	t := p.Deg()
	if t < 1 {
		return nil, false
	}
	// A constant term 0 means root 0, which is not a valid edge ID.
	if p[0] == 0 {
		return nil, false
	}
	if t == 1 {
		return []uint64{p[0]}, true // x + c has root c in characteristic two
	}
	frob := make([]gf.Poly, 64)
	frob[0] = gf.Poly{0, 1} // x mod p, as t ≥ 2
	for i := 1; i < 64; i++ {
		frob[i] = gf.PolySqrMod(frob[i-1], p)
	}
	if xq := gf.PolySqrMod(frob[63], p); len(xq) != 2 || xq[0] != 0 || xq[1] != 1 {
		// x^(2^64) ≢ x (mod p): a repeated root or an irreducible factor
		// of degree ≥ 2, i.e. roots outside GF(2^64).
		return nil, false
	}
	roots := make([]uint64, 0, t)
	pending := []gf.Poly{p}
	var next []gf.Poly
	tr := make(gf.Poly, t)
	for basis := 0; basis < 64 && len(pending) > 0; basis++ {
		clear(tr)
		beta := gf.Mul(splitScramble, uint64(1)<<uint(basis))
		for _, f := range frob {
			for j, c := range f {
				if c != 0 {
					tr[j] ^= gf.Mul(beta, c)
				}
			}
			beta = gf.Sqr(beta)
		}
		next = next[:0]
		for _, q := range pending {
			d := gf.PolyGCD(q, tr)
			if d.Deg() <= 0 || d.Deg() >= q.Deg() {
				// This basis element does not split q; try the next.
				next = append(next, q)
				continue
			}
			for _, f := range [2]gf.Poly{d, gf.PolyDivExact(q, d)} {
				if f.Deg() == 1 {
					roots = append(roots, f[0])
				} else {
					next = append(next, f)
				}
			}
		}
		pending, next = next, pending
	}
	if len(pending) > 0 {
		// A factor of degree ≥ 2 survived all 64 basis elements: p has
		// roots outside GF(2^64) ⇒ not a valid locator of field elements.
		return nil, false
	}
	// Distinctness: a repeated root would mean a repeated edge ID, which
	// cannot arise from a set.
	slices.Sort(roots)
	for i, r := range roots {
		if r == 0 || (i > 0 && r == roots[i-1]) {
			return nil, false
		}
	}
	return roots, true
}
