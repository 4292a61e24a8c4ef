package css

// Naive references: copies of the pre-optimization logicalBasis (a full
// RowReduce of the stabilizer span per candidate) and MinLogicalExact
// (every leaf XORs its qubit's syndrome in and out). The differential
// tests assert the optimized versions return the same vectors and the
// same results, including where the enumeration budget runs out.

import "github.com/fpn/flagproxy/internal/gf2"

func refLogicalBasis(hKer, hMod *gf2.Matrix, k int) []gf2.Vec {
	ns := gf2.NullspaceBasis(hKer)
	mod := gf2.RowReduce(hMod)
	var logicals []gf2.Vec
	span := hMod.Clone()
	for _, v := range ns {
		if mod.InRowSpace(v) {
			continue
		}
		spanEch := gf2.RowReduce(span)
		if spanEch.InRowSpace(v) {
			continue
		}
		logicals = append(logicals, v)
		rows := make([]gf2.Vec, 0, span.Rows()+1)
		for i := 0; i < span.Rows(); i++ {
			rows = append(rows, span.Row(i))
		}
		rows = append(rows, v)
		span = gf2.MatrixFromRows(rows, hMod.Cols())
		if len(logicals) == k {
			break
		}
	}
	return logicals
}

func refMinLogicalExact(hKer, hMod *gf2.Matrix, wmax int, maxCombos int64) DistanceResult {
	n := hKer.Cols()
	mod := gf2.RowReduce(hMod)
	kerT := hKer.Transpose()
	var budget int64
	support := make([]int, 0, wmax)
	syn := gf2.NewVec(hKer.Rows())
	found := false
	var search func(start, remaining int) bool
	search = func(start, remaining int) bool {
		if budget++; budget > maxCombos {
			return true
		}
		if remaining == 0 {
			if syn.IsZero() {
				v := gf2.VecFromSupport(n, support)
				if !mod.InRowSpace(v) {
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
			res.LowerBound = w - 1
			return res
		}
		res.LowerBound = w
	}
	return res
}
