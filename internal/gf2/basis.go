package gf2

import "math/bits"

// Basis is an incrementally built echelon basis of a subspace of
// GF(2)^n. Each stored row has a pivot bit that is clear in every row
// stored after it, so reducing a vector against the rows in insertion
// order clears every pivot. Adding a vector costs O(rank · n/64), where
// re-running RowReduce on the whole span would cost O(rank² · n/64).
type Basis struct {
	n      int
	rows   []Vec
	pivots []int
}

// NewBasis returns the empty basis of a subspace of GF(2)^n.
func NewBasis(n int) *Basis {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	return &Basis{n: n}
}

// reduce XORs the stored rows into w (in place) until every pivot bit is
// clear.
func (b *Basis) reduce(w Vec) {
	if w.n != b.n {
		panic("gf2: length mismatch in Basis")
	}
	for i, r := range b.rows {
		p := b.pivots[i]
		if w.words[p/wordBits]>>(uint(p)%wordBits)&1 == 1 {
			for j := range w.words {
				w.words[j] ^= r.words[j]
			}
		}
	}
}

// Add extends the span by v and reports whether v was independent of it.
// v itself is not modified.
func (b *Basis) Add(v Vec) bool {
	w := v.Clone()
	b.reduce(w)
	for wi, word := range w.words {
		if word != 0 {
			b.rows = append(b.rows, w)
			b.pivots = append(b.pivots, wi*wordBits+bits.TrailingZeros64(word))
			return true
		}
	}
	return false
}
