package css

import (
	"math/rand"

	"github.com/fpn/flagproxy/internal/gf2"
)

// DistanceResult is the outcome of a distance computation. D is an upper
// bound on the true distance when Exact is false (0 means no logical
// found); LowerBound is the largest weight w such that no logical of
// weight ≤ w exists (certified by exhaustive search).
type DistanceResult struct {
	D          int
	Exact      bool
	LowerBound int
}

// MinLogicalExact searches exhaustively for the minimum-weight vector in
// ker(hKer) \ rowspace(hMod) of weight at most wmax, subject to a budget
// of at most maxCombos enumeration steps. If the weight-w layer completes
// without exceeding the budget and finds a logical, the result is exact.
func MinLogicalExact(hKer, hMod *gf2.Matrix, wmax int, maxCombos int64) DistanceResult {
	n := hKer.Cols()
	mod := gf2.RowReduce(hMod)
	kerT := hKer.Transpose() // row q = syndrome of single qubit q
	var budget int64
	support := make([]int, 0, wmax)
	syn := gf2.NewVec(hKer.Rows())
	found := false

	// search returns true to abort the whole enumeration (found a logical
	// at this weight, or budget exhausted).
	var search func(start, remaining int) bool
	search = func(start, remaining int) bool {
		if budget++; budget > maxCombos {
			return true
		}
		if remaining == 1 {
			// The leaves, unrolled: each still costs one budget step, but
			// syn + row(q) = 0 is tested as an equality instead of an
			// XOR in and out.
			for q := start; q < n; q++ {
				if budget++; budget > maxCombos {
					return true
				}
				if syn.Equal(kerT.Row(q)) &&
					!mod.InRowSpace(gf2.VecFromSupport(n, append(support, q))) {
					found = true
					return true
				}
			}
			return false
		}
		for q := start; q <= n-remaining; q++ {
			syn.Xor(kerT.Row(q))
			support = append(support, q)
			stop := search(q+1, remaining-1)
			support = support[:len(support)-1]
			syn.Xor(kerT.Row(q))
			if stop {
				return true
			}
		}
		return false
	}

	res := DistanceResult{}
	for w := 1; w <= wmax; w++ {
		found = false
		stopped := search(0, w)
		if found {
			return DistanceResult{D: w, Exact: true, LowerBound: w - 1}
		}
		if stopped {
			// Budget exhausted mid-layer: weight w not fully excluded.
			res.LowerBound = w - 1
			return res
		}
		res.LowerBound = w
	}
	return res
}

// MinLogicalSample estimates an upper bound on the minimum logical weight
// by information-set sampling: random column permutations of a basis of
// ker(hKer) are Gaussian-reduced, and low-weight rows (and pairwise sums)
// outside rowspace(hMod) are recorded.
func MinLogicalSample(hKer, hMod *gf2.Matrix, rounds int, rng *rand.Rand) DistanceResult {
	n := hKer.Cols()
	ns := gf2.NullspaceBasis(hKer)
	if len(ns) == 0 {
		return DistanceResult{}
	}
	mod := gf2.RowReduce(hMod)
	best := 0
	consider := func(v gf2.Vec) {
		w := v.Weight()
		if w == 0 || (best != 0 && w >= best) {
			return
		}
		if !mod.InRowSpace(v) {
			best = w
		}
	}
	for _, v := range ns {
		consider(v)
	}
	basis := make([]gf2.Vec, len(ns))
	for round := 0; round < rounds; round++ {
		perm := rng.Perm(n)
		for i, v := range ns {
			basis[i] = permuteVec(v, perm)
		}
		m := gf2.MatrixFromRows(basis, n)
		e := gf2.RowReduce(m)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		reduced := make([]gf2.Vec, 0, e.Rank)
		for i := 0; i < e.Rank; i++ {
			orig := permuteVec(e.M.Row(i), inv)
			reduced = append(reduced, orig)
			consider(orig)
		}
		// Pairwise sums of systematic rows often reveal lower weights.
		for i := 0; i < len(reduced); i++ {
			for j := i + 1; j < len(reduced); j++ {
				v := reduced[i].Clone()
				v.Xor(reduced[j])
				consider(v)
			}
		}
	}
	return DistanceResult{D: best, Exact: false}
}

// permuteVec returns w with w[perm[i]] = v[i].
func permuteVec(v gf2.Vec, perm []int) gf2.Vec {
	w := gf2.NewVec(v.Len())
	for _, i := range v.Support() {
		w.Set(perm[i], true)
	}
	return w
}

// minLogical combines exhaustive search and sampling: exact if either the
// exhaustive layer found the minimum, or the sampled upper bound meets
// the certified lower bound.
func minLogical(hKer, hMod *gf2.Matrix, exactWeight int, budget int64, sampleRounds int, rng *rand.Rand) DistanceResult {
	ex := MinLogicalExact(hKer, hMod, exactWeight, budget)
	if ex.Exact {
		return ex
	}
	s := MinLogicalSample(hKer, hMod, sampleRounds, rng)
	if s.D != 0 && s.D == ex.LowerBound+1 {
		return DistanceResult{D: s.D, Exact: true, LowerBound: ex.LowerBound}
	}
	s.LowerBound = ex.LowerBound
	return s
}

// ComputeDistances fills in DX/DZ using exhaustive search up to
// exactWeight (with the given enumeration budget) combined with
// information-set sampling bounds.
func (c *Code) ComputeDistances(exactWeight int, budget int64, sampleRounds int, rng *rand.Rand) {
	hx := c.CheckMatrix(X)
	hz := c.CheckMatrix(Z)
	// dZ: min weight of a Z logical = vector in ker(HX) \ row(HZ).
	dz := minLogical(hx, hz, exactWeight, budget, sampleRounds, rng)
	c.DZ, c.DZExact = dz.D, dz.Exact
	dx := minLogical(hz, hx, exactWeight, budget, sampleRounds, rng)
	c.DX, c.DXExact = dx.D, dx.Exact
}
