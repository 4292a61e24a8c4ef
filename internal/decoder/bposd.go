package decoder

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/gf2"
)

// BPOSD is a belief-propagation + ordered-statistics decoder operating
// directly on the projected detector error model: variables are the
// error mechanisms (equivalence-class members kept separate, so flag
// bits participate as ordinary checks), and the parity checks are the
// syndrome and flag detectors. This is the modern general-QLDPC
// decoding stack (Panteleev–Kalachev / Roffe style) included as an
// extension: unlike matching it needs no graph-like structure, so it
// also applies to the hypergraph-product codes of §VII-A.
//
// The Tanner-graph structure (check-major message slots, per-variable
// slot lists, prior LLRs, per-variable row bitsets) is fixed per run
// and precomputed at construction; every per-shot buffer — BP messages,
// the incremental syndrome check and the OSD-0 echelon — comes out of a
// DecodeScratch, so DecodeWith is allocation-free on every shot,
// including the ones that reach OSD.
type BPOSD struct {
	Basis css.Basis
	// Iters is the number of min-sum iterations before OSD (default 30).
	Iters int

	numObs int
	id     string  // kind+config tag attached to decode errors
	dets   []int   // row order: detector ids (syndrome + flag)
	varDet [][]int // variable -> row indices
	varObs [][]int // variable -> observables flipped
	prior  []float64
	h      *gf2.Matrix // rows = dets, cols = variables; the test reference's OSD input

	// Message slots are the Tanner edges numbered in row order, so the
	// check update walks contiguous memory.
	rowOff   []int32   // row -> first slot (len rows+1)
	rowVar   []int32   // slot -> variable
	varOff   []int32   // variable -> first entry of varSlot (len nv+1)
	varSlot  []int32   // variable's k-th row entry -> its slot
	priorLLR []float64 // log((1-p)/p) per variable

	words int      // uint64 words per row bitset
	cols  []uint64 // variable -> its row set (words per variable), for OSD-0
}

// NewBPOSD builds the decoder for one syndrome basis; flag detectors are
// included as checks so the flag protocol is used implicitly.
func NewBPOSD(model *dem.Model, basis css.Basis, iters int) (*BPOSD, error) {
	if iters <= 0 {
		iters = 30
	}
	events := model.Project(basis)
	d := &BPOSD{Basis: basis, Iters: iters, numObs: len(model.Circuit.Observables)}
	d.id = fmt.Sprintf("bp-osd(basis=%c iters=%d)", basis, iters)
	rowOf := map[int]int{}
	addRow := func(det int) int {
		if r, ok := rowOf[det]; ok {
			return r
		}
		r := len(d.dets)
		rowOf[det] = r
		d.dets = append(d.dets, det)
		return r
	}
	for _, ev := range events {
		var rows []int
		for _, det := range ev.Dets {
			rows = append(rows, addRow(det))
		}
		for _, f := range ev.Flags {
			rows = append(rows, addRow(f))
		}
		d.varDet = append(d.varDet, rows)
		d.varObs = append(d.varObs, append([]int(nil), ev.Obs...))
		p := ev.P
		if p < 1e-12 {
			p = 1e-12
		}
		if p > 0.49 {
			p = 0.49
		}
		d.prior = append(d.prior, p)
	}
	nr, nv := len(d.dets), len(d.varDet)
	d.h = gf2.MatrixFromSupports(nr, nv, transposeSupports(nr, d.varDet))
	d.words = (nr + 63) / 64
	d.cols = make([]uint64, nv*d.words)
	d.varOff = make([]int32, nv+1)
	d.priorLLR = make([]float64, nv)
	counts := make([]int32, nr)
	for v, rows := range d.varDet {
		d.varOff[v+1] = d.varOff[v] + int32(len(rows))
		d.priorLLR[v] = math.Log((1 - d.prior[v]) / d.prior[v])
		for _, r := range rows {
			counts[r]++
			// A repeated row entry sets its bit once, as in the dense
			// matrix; BP still sees both edges.
			d.cols[v*d.words+r/64] |= 1 << (r % 64)
		}
	}
	d.rowOff = make([]int32, nr+1)
	for r, c := range counts {
		d.rowOff[r+1] = d.rowOff[r] + c
	}
	slots := d.rowOff[nr]
	d.rowVar = make([]int32, slots)
	d.varSlot = make([]int32, slots)
	fill := append([]int32(nil), d.rowOff[:nr]...)
	for v, rows := range d.varDet {
		for k, r := range rows {
			d.rowVar[fill[r]] = int32(v)
			d.varSlot[int(d.varOff[v])+k] = fill[r]
			fill[r]++
		}
	}
	return d, nil
}

// transposeSupports turns per-variable row lists into per-row variable
// lists.
func transposeSupports(rows int, varDet [][]int) [][]int {
	out := make([][]int, rows)
	for v, rs := range varDet {
		for _, r := range rs {
			out[r] = append(out[r], v)
		}
	}
	return out
}

// Decode runs min-sum BP on the Tanner graph of (detectors × error
// mechanisms); if the hard decision does not reproduce the syndrome, an
// OSD-0 pass solves for the most reliable consistent error set. It
// allocates a private scratch per call; hot loops should hold a
// DecodeScratch and call DecodeWith.
func (d *BPOSD) Decode(detBit func(int) bool) ([]bool, error) {
	return d.DecodeWith(NewScratch(), detBit)
}

// DecodeWith is Decode drawing every per-shot buffer from sc. The
// returned slice aliases sc and is valid until sc's next use. Internal
// panics are recovered into returned errors.
//
//fpn:hotpath
func (d *BPOSD) DecodeWith(sc *DecodeScratch, detBit func(int) bool) (corr []bool, err error) {
	defer annotateErr(d.id, &err)
	defer Recover(&err)
	sc.reset(d.numObs)
	switch d.propagate(&sc.bp, detBit) {
	case bpConverged:
		d.applyHard(sc.bp.hard, sc.correction)
	case bpStalled:
		d.osd0(&sc.bp, sc.correction)
	}
	return sc.correction, nil
}

// bpOutcome is how the BP stage of one shot ended.
type bpOutcome uint8

const (
	bpEmpty     bpOutcome = iota // no detector fired
	bpConverged                  // the hard decision reproduces the syndrome
	bpStalled                    // Iters ran out; OSD-0 decides
)

// propagate reads the syndrome into bp and runs up to Iters min-sum
// iterations, leaving the posteriors and hard decisions in bp.
func (d *BPOSD) propagate(bp *bpScratch, detBit func(int) bool) bpOutcome {
	nr, nv := len(d.dets), len(d.varDet)
	bp.ensure(nr, nv, len(d.rowVar), d.words)
	syndrome := bp.syndrome
	unsat := 0
	for r, det := range d.dets {
		syndrome[r] = detBit(det)
		if syndrome[r] {
			unsat++
		}
	}
	if unsat == 0 {
		return bpEmpty
	}
	v2c, c2v := bp.v2c, bp.c2v
	for e, v := range d.rowVar {
		v2c[e] = d.priorLLR[v]
	}
	// Incremental syndrome check: mismatch[r] is whether row r's parity
	// under the hard decision differs from the syndrome, unsat counts
	// the mismatched rows. Every hard decision starts false, so the rows
	// start mismatched exactly where the syndrome fires; a repeated row
	// entry flips its row twice, as a full parity re-scan would count it.
	mismatch := bp.mismatch
	copy(mismatch, syndrome)
	hard := bp.hard
	clear(hard)
	posterior := bp.posterior
	for iter := 0; iter < d.Iters; iter++ {
		// Check update (normalized min-sum with sign from syndrome). The
		// per-row outputs ±(0.75·prod)·min are exact negations of the
		// per-edge (0.75·s)·min products they replace.
		for r := 0; r < nr; r++ {
			lo, hi := d.rowOff[r], d.rowOff[r+1]
			in, out := v2c[lo:hi], c2v[lo:hi]
			prod := 1.0
			if syndrome[r] {
				prod = -1.0
			}
			min1, min2 := math.Inf(1), math.Inf(1)
			arg1 := -1
			for i, m := range in {
				if m < 0 {
					prod = -prod
				}
				a := math.Abs(m)
				if a < min1 {
					min2 = min1
					min1 = a
					arg1 = i
				} else if a < min2 {
					min2 = a
				}
			}
			out1, out2 := 0.75*prod*min1, 0.75*prod*min2
			for i, m := range in {
				c := out1
				if i == arg1 {
					c = out2
				}
				if m < 0 {
					c = -c
				}
				out[i] = c
			}
		}
		// Variable update in each variable's own row-list order, so every
		// sum keeps its summation order; hard-decision flips update the
		// syndrome check.
		for v := 0; v < nv; v++ {
			slots := d.varSlot[d.varOff[v]:d.varOff[v+1]]
			total := d.priorLLR[v]
			for _, e := range slots {
				total += c2v[e]
			}
			posterior[v] = total
			for _, e := range slots {
				v2c[e] = total - c2v[e]
			}
			if h := total < 0; h != hard[v] {
				hard[v] = h
				for _, r := range d.varDet[v] {
					mismatch[r] = !mismatch[r]
					if mismatch[r] {
						unsat++
					} else {
						unsat--
					}
				}
			}
		}
		if unsat == 0 {
			return bpConverged
		}
	}
	return bpStalled
}

// applyHard flips the observables of every variable the hard decision
// sets.
func (d *BPOSD) applyHard(hard []bool, correction []bool) {
	for v, h := range hard {
		if h {
			for _, o := range d.varObs[v] {
				correction[o] = !correction[o]
			}
		}
	}
}

// osd0 is the ordered-statistics fallback for BP non-convergence: order
// variables by reliability (most-likely-error first) and solve H·e = s
// on the reliable information set.
//
// The columns enter a column echelon one at a time in that order. A
// column independent of the earlier ones is a pivot — exactly the pivot
// columns Gaussian elimination of the reordered matrix picks — and the
// syndrome is reduced against each new pivot as it arrives. Once it
// reaches zero, the combination of pivot columns it recorded is its
// unique expansion over independent columns, i.e. the solution a full
// elimination returns, so the remaining columns are never touched.
//
// It reports false when the syndrome lies outside the column space and
// the BP hard decision was applied instead.
func (d *BPOSD) osd0(bp *bpScratch, correction []bool) bool {
	w := d.words
	ord := &bp.order
	for v := range ord.vars {
		ord.vars[v] = int32(v)
	}
	ord.post = bp.posterior
	sort.Sort(ord)
	// syn is the reduced syndrome, synComb the pivots it has absorbed.
	syn, synComb := bp.syn[:w], bp.syn[w:]
	clear(bp.syn)
	for r, s := range bp.syndrome {
		if s {
			syn[r/64] |= 1 << (r % 64)
		}
	}
	// Pivot k stores its reduced column then its combination mask over
	// pivots 0..k, 2w words in all.
	piv := 0
	for _, v := range ord.vars {
		vec := bp.echelon[2*piv*w : (2*piv+1)*w]
		comb := bp.echelon[(2*piv+1)*w : (2*piv+2)*w]
		copy(vec, d.cols[int(v)*w:(int(v)+1)*w])
		clear(comb)
		for k := 0; k < piv; k++ {
			r := bp.pivRow[k]
			if vec[r/64]>>(r%64)&1 != 0 {
				xorWords(vec, bp.echelon[2*k*w:(2*k+1)*w])
				xorWords(comb, bp.echelon[(2*k+1)*w:(2*k+2)*w])
			}
		}
		r := lowestBit(vec)
		if r < 0 {
			continue // dependent on the earlier columns
		}
		comb[piv/64] ^= 1 << (piv % 64)
		bp.pivRow[piv], bp.pivVar[piv] = int32(r), v
		piv++
		if syn[r/64]>>(r%64)&1 == 0 {
			continue
		}
		xorWords(syn, vec)
		xorWords(synComb, comb)
		if lowestBit(syn) < 0 {
			for k, pv := range bp.pivVar[:piv] {
				if synComb[k/64]>>(k%64)&1 != 0 {
					for _, o := range d.varObs[pv] {
						correction[o] = !correction[o]
					}
				}
			}
			return true
		}
	}
	// The syndrome is outside the column space (should not happen for a
	// complete error model); return the BP hard decision.
	d.applyHard(bp.hard, correction)
	return false
}

// osdOrder sorts variables by posterior LLR, most likely error first.
// It lives in the scratch and is sorted through a pointer, so sort.Sort
// allocates nothing.
type osdOrder struct {
	vars []int32
	post []float64
}

func (o *osdOrder) Len() int           { return len(o.vars) }
func (o *osdOrder) Less(i, j int) bool { return o.post[o.vars[i]] < o.post[o.vars[j]] }
func (o *osdOrder) Swap(i, j int)      { o.vars[i], o.vars[j] = o.vars[j], o.vars[i] }

// xorWords adds src into dst (equal lengths).
func xorWords(dst, src []uint64) {
	for i, x := range src {
		dst[i] ^= x
	}
}

// lowestBit returns the index of the lowest set bit, or -1 when every
// word is zero.
func lowestBit(ws []uint64) int {
	for i, x := range ws {
		if x != 0 {
			return i*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}
