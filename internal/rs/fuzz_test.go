package rs

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// FuzzSketchDecode feeds arbitrary syndrome words to Decode. Whatever the
// input, Decode must either report ErrOverload or return a sorted set of
// distinct nonzero IDs, no larger than the budget, that re-encodes to
// exactly the input. The seeds are true sketches of small ID sets, so
// mutations explore near-consistent syndromes as well as noise.
func FuzzSketchDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ k, ids, budget int }{
		{1, 1, 1}, {2, 2, 2}, {4, 3, 2}, {4, 5, 4}, {8, 6, 8}, {16, 9, 4}, {16, 16, 16},
	} {
		s := sketchOf(c.k, randomIDs(rng, c.ids))
		buf := make([]byte, 8*len(s))
		for i, w := range s {
			binary.LittleEndian.PutUint64(buf[8*i:], w)
		}
		f.Add(buf, uint8(c.budget))
	}
	f.Fuzz(func(t *testing.T, data []byte, budget uint8) {
		// Capping the input at 32 words (K = 16) keeps each execution fast.
		words := min(len(data)/8, 32) &^ 1
		s := make(Sketch, words)
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		input := s.Clone()
		ids, err := s.Decode(int(budget))
		for i := range s {
			if s[i] != input[i] {
				t.Fatalf("Decode modified its input at word %d", i)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrOverload) {
				t.Fatalf("Decode error %v is not ErrOverload", err)
			}
			return
		}
		if len(ids) > min(int(budget), s.K()) {
			t.Fatalf("decoded %d IDs under budget %d (K=%d)", len(ids), budget, s.K())
		}
		for i, id := range ids {
			if id == 0 {
				t.Fatalf("decoded the zero ID: %v", ids)
			}
			if i > 0 && ids[i-1] >= id {
				t.Fatalf("IDs not sorted and distinct: %v", ids)
			}
		}
		re := sketchOf(s.K(), ids)
		for i := range s {
			if re[i] != s[i] {
				t.Fatalf("IDs %v re-encode to a different sketch at word %d", ids, i)
			}
		}
	})
}
