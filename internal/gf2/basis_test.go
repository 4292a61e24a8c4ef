package gf2

import (
	"math/rand"
	"testing"
)

// basisOps decodes fuzz bytes into a vector length and a sequence of
// vectors to add. The first byte picks n in [1,130]; after that each
// op byte either reads a fresh vector from the following bytes (even
// op) or XORs two earlier vectors (odd op), so dependent additions are
// common.
func basisOps(data []byte) (int, []Vec) {
	if len(data) == 0 {
		return 0, nil
	}
	n := 1 + int(data[0])%130
	data = data[1:]
	nb := (n + 7) / 8
	var vs []Vec
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		if op%2 == 1 && len(vs) > 0 && len(data) >= 2 {
			v := vs[int(data[0])%len(vs)].Clone()
			v.Xor(vs[int(data[1])%len(vs)])
			vs = append(vs, v)
			data = data[2:]
			continue
		}
		v := NewVec(n)
		for i := 0; i < n && i/8 < len(data); i++ {
			if data[i/8]>>(uint(i)%8)&1 == 1 {
				v.Set(i, true)
			}
		}
		vs = append(vs, v)
		data = data[min(nb, len(data)):]
	}
	return n, vs
}

// inSpan reports whether v lies in b's span.
func inSpan(b *Basis, v Vec) bool {
	w := v.Clone()
	b.reduce(w)
	return w.IsZero()
}

// checkBasis adds vs one by one and compares every step with a full
// RowReduce of the vectors added so far.
func checkBasis(t *testing.T, n int, vs []Vec) {
	t.Helper()
	b := NewBasis(n)
	for i, v := range vs {
		before := len(b.rows)
		added := b.Add(v)
		e := RowReduce(MatrixFromRows(vs[:i+1], n))
		if len(b.rows) != e.Rank {
			t.Fatalf("step %d: Rank = %d, RowReduce rank = %d", i, len(b.rows), e.Rank)
		}
		if added != (len(b.rows) == before+1) {
			t.Fatalf("step %d: Add = %v but rank went %d -> %d", i, added, before, len(b.rows))
		}
		for j, u := range vs {
			if got, want := inSpan(b, u), e.InRowSpace(u); got != want {
				t.Fatalf("step %d: inSpan(vs[%d]) = %v, InRowSpace = %v", i, j, got, want)
			}
		}
	}
}

func FuzzBasis(f *testing.F) {
	f.Add([]byte{7, 0, 0xff, 0, 0x0f, 1, 0, 1, 0, 0xf0})
	f.Add([]byte{129, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1, 0, 0})
	f.Add([]byte{63, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, vs := basisOps(data)
		if n == 0 || len(vs) > 64 {
			return
		}
		checkBasis(t, n, vs)
	})
}

func TestBasisRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 1+rng.Intn(200))
		rng.Read(data)
		n, vs := basisOps(data)
		if len(vs) > 40 {
			vs = vs[:40]
		}
		checkBasis(t, n, vs)
	}
}

func TestBasisAddDoesNotMutate(t *testing.T) {
	b := NewBasis(10)
	b.Add(VecFromSupport(10, []int{1, 2}))
	v := VecFromSupport(10, []int{1, 3})
	if !b.Add(v) {
		t.Fatal("independent vector rejected")
	}
	if !v.Equal(VecFromSupport(10, []int{1, 3})) {
		t.Fatalf("Add mutated its argument: %v", v)
	}
	if !inSpan(b, VecFromSupport(10, []int{2, 3})) || inSpan(b, VecFromSupport(10, []int{4})) {
		t.Fatal("membership wrong")
	}
}
