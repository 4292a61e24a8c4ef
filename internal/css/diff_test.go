package css

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/gf2"
)

// randomCSS returns a random commuting pair (hx, hz) on n qubits: hx has
// mx random rows and hz has mz random combinations of ker(hx)'s basis.
func randomCSS(rng *rand.Rand, n, mx, mz int) (hx, hz *gf2.Matrix) {
	hx = gf2.NewMatrix(mx, n)
	for i := 0; i < mx; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				hx.Set(i, j, true)
			}
		}
	}
	ns := gf2.NullspaceBasis(hx)
	hz = gf2.NewMatrix(mz, n)
	for i := 0; i < mz && len(ns) > 0; i++ {
		for _, v := range ns {
			if rng.Intn(4) == 0 {
				hz.Row(i).Xor(v)
			}
		}
	}
	return hx, hz
}

func sameVecs(a, b []gf2.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestLogicalBasisMatchesReference checks that the incremental echelon
// picks exactly the logicals the per-candidate RowReduce picked.
func TestLogicalBasisMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(60)
		hx, hz := randomCSS(rng, n, rng.Intn(n/2+1), rng.Intn(n/2+1))
		k := n - gf2.Rank(hx) - gf2.Rank(hz)
		for _, pair := range [][2]*gf2.Matrix{{hx, hz}, {hz, hx}} {
			got := logicalBasis(pair[0], pair[1], k)
			want := refLogicalBasis(pair[0], pair[1], k)
			if !sameVecs(got, want) {
				t.Fatalf("trial %d (n=%d k=%d): logicals differ:\n got %v\nwant %v", trial, n, k, got, want)
			}
		}
	}
}

// TestMinLogicalExactMatchesReference sweeps weights and budgets,
// including budgets that run out mid-layer, so the unrolled leaves must
// spend exactly the reference's budget steps.
func TestMinLogicalExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type pair struct {
		name   string
		hk, hm *gf2.Matrix
	}
	c := steane(t)
	pairs := []pair{{"steane", c.CheckMatrix(X), c.CheckMatrix(Z)}}
	for _, l := range []int{3, 4} {
		hx, hz := toric(l)
		if d := MinLogicalExact(hx, hz, l, 1_000_000); d.D != l || !d.Exact {
			t.Fatalf("toric %d: distance %+v, want exactly %d", l, d, l)
		}
		pairs = append(pairs, pair{fmt.Sprintf("toric%d", l), hx, hz})
	}
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(18)
		hx, hz := randomCSS(rng, n, n/2, n/3)
		pairs = append(pairs,
			pair{fmt.Sprintf("random%d-z", trial), hx, hz},
			pair{fmt.Sprintf("random%d-x", trial), hz, hx})
	}
	exact, exhausted := 0, 0
	for _, p := range pairs {
		for _, wmax := range []int{1, 2, 3, 5} {
			for _, budget := range []int64{0, 1, 2, 5, 17, 100, 1000, 50_000} {
				got := MinLogicalExact(p.hk, p.hm, wmax, budget)
				want := refMinLogicalExact(p.hk, p.hm, wmax, budget)
				if got != want {
					t.Fatalf("%s wmax=%d budget=%d: got %+v, want %+v", p.name, wmax, budget, got, want)
				}
				if got.Exact {
					exact++
				} else if got.LowerBound < wmax {
					exhausted++
				}
			}
		}
	}
	if exact == 0 || exhausted == 0 {
		t.Fatalf("sweep too narrow: %d exact, %d budget-exhausted results", exact, exhausted)
	}
	t.Logf("%d exact, %d budget-exhausted results agree", exact, exhausted)
}

// toric returns the check matrices of the l×l toric code: qubits are
// the 2l² edges, X checks the vertex stars, Z checks the plaquettes.
func toric(l int) (hx, hz *gf2.Matrix) {
	h := func(x, y int) int { return ((y+l)%l)*l + (x+l)%l }
	v := func(x, y int) int { return l*l + h(x, y) }
	hx, hz = gf2.NewMatrix(l*l, 2*l*l), gf2.NewMatrix(l*l, 2*l*l)
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			for _, q := range []int{h(x, y), h(x-1, y), v(x, y), v(x, y-1)} {
				hx.Set(h(x, y), q, true)
			}
			for _, q := range []int{h(x, y), h(x, y+1), v(x, y), v(x+1, y)} {
				hz.Set(h(x, y), q, true)
			}
		}
	}
	return hx, hz
}
