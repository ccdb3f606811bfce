package rs

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
)

// randomIDs returns count distinct nonzero edge IDs.
func randomIDs(rng *rand.Rand, count int) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, count)
	for len(out) < count {
		id := rng.Uint64()
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

func sketchOf(k int, ids []uint64) Sketch {
	s := NewSketch(k)
	for _, id := range ids {
		s.AddEdge(id)
	}
	return s
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[uint64]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func TestDecodeEmpty(t *testing.T) {
	s := NewSketch(4)
	ids, err := s.Decode(4)
	if err != nil || ids != nil {
		t.Fatalf("empty sketch: ids=%v err=%v", ids, err)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 24; k++ {
		for trial := 0; trial < 10; trial++ {
			count := 1 + rng.Intn(k)
			ids := randomIDs(rng, count)
			s := sketchOf(k, ids)
			got, err := s.Decode(k)
			if err != nil {
				t.Fatalf("k=%d count=%d: decode error: %v", k, count, err)
			}
			if !sameSet(got, ids) {
				t.Fatalf("k=%d count=%d: got %v, want %v", k, count, got, ids)
			}
		}
	}
}

func TestDecodeExactlyK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k = 12
	ids := randomIDs(rng, k)
	s := sketchOf(k, ids)
	got, err := s.Decode(k)
	if err != nil {
		t.Fatalf("decode at capacity: %v", err)
	}
	if !sameSet(got, ids) {
		t.Fatal("decode at capacity returned wrong set")
	}
}

// TestOverloadDetected: with more than k edges the output is allowed to be
// arbitrary per Proposition 2, but this implementation must flag it (or, in
// rare aliasing cases that require weight ≥ 2k+1, return a set that
// re-encodes identically — which cannot happen for weight ≤ 2k).
func TestOverloadDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 6
	for trial := 0; trial < 50; trial++ {
		count := k + 1 + rng.Intn(k) // k+1 .. 2k, below the aliasing bound
		ids := randomIDs(rng, count)
		s := sketchOf(k, ids)
		got, err := s.Decode(k)
		if err == nil {
			// Any accepted answer must re-encode to the same sketch,
			// which for weight ≤ 2k distinct-from-truth sets is
			// impossible (min distance 2k+1).
			t.Fatalf("overload accepted: count=%d got=%v", count, got)
		}
		if !errors.Is(err, ErrOverload) {
			t.Fatalf("unexpected error type: %v", err)
		}
	}
}

// TestPrefixProperty verifies Proposition 6: the 2k′-prefix of a k-threshold
// sketch is exactly the k′-threshold sketch, and adaptive decoding with a
// smaller budget succeeds whenever the true set is small.
func TestPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k = 16
	for trial := 0; trial < 20; trial++ {
		ids := randomIDs(rng, 3)
		full := sketchOf(k, ids)
		short := sketchOf(4, ids)
		for i := range short {
			if full[i] != short[i] {
				t.Fatalf("prefix property violated at coordinate %d", i)
			}
		}
		got, err := full.Decode(4)
		if err != nil {
			t.Fatalf("adaptive decode failed: %v", err)
		}
		if !sameSet(got, ids) {
			t.Fatal("adaptive decode returned wrong set")
		}
	}
}

// TestPrefixBudgetTooSmall: when the true set exceeds the adaptive budget,
// the decoder must not silently return a wrong answer.
func TestPrefixBudgetTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 16
	for trial := 0; trial < 30; trial++ {
		ids := randomIDs(rng, 7)
		full := sketchOf(k, ids)
		got, err := full.Decode(3)
		if err == nil && !sameSet(got, ids) {
			t.Fatalf("undersized budget returned wrong set %v", got)
		}
	}
}

func TestXorCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const k = 8
	// Sketch(A) xor Sketch(B) = Sketch(A △ B).
	a := randomIDs(rng, 5)
	shared := a[:2]
	b := append([]uint64{}, shared...)
	b = append(b, randomIDs(rng, 3)...)
	sa, sb := sketchOf(k, a), sketchOf(k, b)
	sa.Xor(sb)
	var want []uint64
	want = append(want, a[2:]...)
	want = append(want, b[2:]...)
	got, err := sa.Decode(k)
	if err != nil {
		t.Fatalf("decode of symmetric difference: %v", err)
	}
	if !sameSet(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAddEdgeTwiceCancels(t *testing.T) {
	s := NewSketch(5)
	s.AddEdge(0xABCDEF)
	s.AddEdge(0xABCDEF)
	if !s.IsZero() {
		t.Fatal("adding an edge twice must cancel")
	}
}

func TestBerlekampMasseyKnown(t *testing.T) {
	// Single edge α: syndromes α, α², …; locator must be 1 + α⁻¹·... —
	// roots of Λ are inverses of IDs, so Λ = 1 + α·x? No: root is α⁻¹,
	// Λ(x) = 1 + αx (Λ(α⁻¹) = 1 + α·α⁻¹ = 0). Verify.
	alpha := uint64(0x123456789)
	s := sketchOf(3, []uint64{alpha})
	loc := berlekampMassey(s, make([]uint64, 3*(len(s)+1)))
	if loc.Deg() != 1 {
		t.Fatalf("locator degree = %d, want 1", loc.Deg())
	}
	if gf.PolyEval(loc, gf.Inv(alpha)) != 0 {
		t.Fatal("α⁻¹ is not a root of the locator")
	}
}

func TestFindRootsProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		roots := randomIDs(rng, 1+rng.Intn(10))
		p := gf.Poly{1}
		for _, r := range roots {
			p = gf.PolyMul(p, gf.Poly{r, 1})
		}
		got, ok := findRoots(p)
		if !ok {
			t.Fatalf("findRoots failed on split polynomial of degree %d", len(roots))
		}
		if !sameSet(got, roots) {
			t.Fatalf("got %v, want %v", got, roots)
		}
	}
}

// fieldTrace computes Tr(a) = Σ_{i<64} a^(2^i) ∈ {0, 1}.
func fieldTrace(a uint64) uint64 {
	var acc uint64
	x := a
	for i := 0; i < 64; i++ {
		acc ^= x
		x = gf.Sqr(x)
	}
	return acc
}

func TestFindRootsRejectsIrreducible(t *testing.T) {
	// x² + x + c is irreducible over GF(2^64) exactly when Tr(c) = 1.
	rng := rand.New(rand.NewSource(9))
	rejected, accepted := 0, 0
	for trial := 0; trial < 40; trial++ {
		c := rng.Uint64()
		p := gf.Poly{c, 1, 1}
		roots, ok := findRoots(p)
		if fieldTrace(c) == 1 {
			if ok {
				t.Fatalf("accepted irreducible quadratic with c=%#x, roots=%v", c, roots)
			}
			rejected++
			continue
		}
		if !ok {
			t.Fatalf("rejected reducible quadratic with c=%#x", c)
		}
		accepted++
		for _, r := range roots {
			if gf.PolyEval(p, r) != 0 {
				t.Fatalf("claimed root %#x does not vanish", r)
			}
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("degenerate sample: rejected=%d accepted=%d", rejected, accepted)
	}
}

// findRootsReference is the per-factor Berlekamp trace splitter the
// Frobenius-table findRoots replaced: for every basis element and every
// pending factor q it recomputes Tr(βx) mod q by 63 squarings modulo q. It
// is kept here as an independent oracle.
func findRootsReference(p gf.Poly) ([]uint64, bool) {
	p = gf.PolyMonic(p)
	if p.Deg() < 1 || p[0] == 0 {
		return nil, false
	}
	var roots []uint64
	pending := []gf.Poly{p}
	for basis := 0; basis < 64 && len(pending) > 0; basis++ {
		beta := uint64(1) << uint(basis)
		var next []gf.Poly
		for _, q := range pending {
			if q.Deg() == 1 {
				roots = append(roots, gf.PolyMonic(q)[0])
				continue
			}
			term := gf.PolyMod(gf.Poly{0, beta}, q)
			tr := term.Clone()
			for i := 1; i < 64; i++ {
				term = gf.PolySqrMod(term, q)
				tr = gf.PolyAdd(tr, term)
			}
			d := gf.PolyGCD(q, tr)
			if d.Deg() <= 0 || d.Deg() >= q.Deg() {
				next = append(next, q)
				continue
			}
			next = append(next, d, gf.PolyMonic(gf.PolyDivExact(q, d)))
		}
		pending = next
	}
	for _, q := range pending {
		if q.Deg() != 1 {
			return nil, false
		}
		roots = append(roots, gf.PolyMonic(q)[0])
	}
	seen := make(map[uint64]bool, len(roots))
	for _, r := range roots {
		if r == 0 || seen[r] {
			return nil, false
		}
		seen[r] = true
	}
	return roots, true
}

// productOfLinear returns Π (x + r) over roots.
func productOfLinear(roots []uint64) gf.Poly {
	p := gf.Poly{1}
	for _, r := range roots {
		p = gf.PolyMul(p, gf.Poly{r, 1})
	}
	return p
}

// TestFindRootsMatchesReference compares findRoots with the per-factor
// reference splitter on split locators of every degree the serving
// instance produces (up to K = 148), and on the three shapes of locator
// both must reject: a repeated root, a zero root, and an irreducible
// quadratic factor.
func TestFindRootsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, deg := range []int{1, 2, 3, 8, 32, 74, 148} {
		roots := randomIDs(rng, deg)
		p := productOfLinear(roots)
		got, ok := findRoots(p)
		want, wantOK := findRootsReference(p)
		if !ok || !wantOK {
			t.Fatalf("t=%d: findRoots ok=%v, reference ok=%v", deg, ok, wantOK)
		}
		if !sameSet(got, want) || !sameSet(got, roots) {
			t.Fatalf("t=%d: findRoots and reference disagree", deg)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("t=%d: roots not sorted and distinct at %d", deg, i)
			}
		}
	}

	// x² + x + c is irreducible over GF(2^64) exactly when Tr(c) = 1.
	c := rng.Uint64()
	for fieldTrace(c) != 1 {
		c = rng.Uint64()
	}
	base := randomIDs(rng, 5)
	reject := map[string]gf.Poly{
		"repeated root":         productOfLinear(append(slices.Clone(base), base[2])),
		"root zero":             productOfLinear(append(slices.Clone(base), 0)),
		"irreducible quadratic": gf.PolyMul(productOfLinear(base), gf.Poly{c, 1, 1}),
	}
	for name, p := range reject {
		if roots, ok := findRoots(p); ok {
			t.Errorf("%s: findRoots accepted, roots=%v", name, roots)
		}
		if roots, ok := findRootsReference(p); ok {
			t.Errorf("%s: reference accepted, roots=%v", name, roots)
		}
	}
}

func TestDecodeZeroBudgetNonzero(t *testing.T) {
	s := sketchOf(4, []uint64{5})
	if _, err := s.Decode(0); !errors.Is(err, ErrOverload) {
		t.Fatalf("zero budget on nonzero sketch: err = %v", err)
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, k := range []int{8, 32, 128} {
		rng := rand.New(rand.NewSource(8))
		ids := randomIDs(rng, k/2)
		s := sketchOf(k, ids)
		b.Run(benchName("k", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decode(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestPowerKernels cross-checks the two construction kernels against the
// definitional per-step gf.Mul chain: PowerSums must XOR the row into
// existing content, PowerRow must overwrite with the exact row.
func TestPowerKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(65)
		alpha := rng.Uint64()
		if trial%10 == 0 {
			alpha = 0
		}
		want := make([]uint64, n)
		pow := alpha
		for j := range want {
			want[j] = pow
			pow = gf.Mul(pow, alpha)
		}
		if alpha == 0 {
			for j := range want {
				want[j] = 0
			}
		}

		row := make([]uint64, n)
		for j := range row {
			row[j] = rng.Uint64() // PowerRow must overwrite stale content
		}
		PowerRow(row, alpha)
		for j := range row {
			if row[j] != want[j] {
				t.Fatalf("PowerRow(α=%#x)[%d] = %#x, want %#x", alpha, j, row[j], want[j])
			}
		}

		base := make([]uint64, n)
		sum := make([]uint64, n)
		for j := range base {
			base[j] = rng.Uint64()
			sum[j] = base[j]
		}
		PowerSums(sum, alpha)
		for j := range sum {
			if sum[j] != base[j]^want[j] {
				t.Fatalf("PowerSums(α=%#x)[%d] = %#x, want %#x", alpha, j, sum[j], base[j]^want[j])
			}
		}
	}
}
