package sim

// Naive reference sampler: byte-for-byte copies of the lane scan before
// the per-circuit scan constants and the first-draw threshold
// (math.Log1p(-p) on every call, math.Log on every draw, the skip
// converted to int before the window test). The differential tests and
// FuzzGeomScan assert the fast scan is bit-identical to these wherever
// the old conversion did not overflow.

import (
	"math"
	"math/rand"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/seedmix"
)

// refGeomScan is the old geomScan.
func refGeomScan(rng *rand.Rand, logq float64, lo, hi int, f func(lane int)) {
	l := lo
	for {
		u := rng.Float64()
		skip := int(math.Log(1-u) / logq)
		l += skip
		if l >= hi {
			return
		}
		f(l)
		l++
	}
}

// refForEachLane is the old frameSim.forEachLane.
func refForEachLane(fs *frameSim, p float64, f func(lane int)) {
	if p <= 0 {
		return
	}
	if fs.wordRngs == nil {
		if p >= 1 {
			for l := 0; l < fs.shots; l++ {
				f(l)
			}
			return
		}
		refGeomScan(fs.rng, math.Log1p(-p), 0, fs.shots, f)
		return
	}
	if p >= 1 {
		for wi := 0; wi < fs.words; wi++ {
			fs.cur = fs.wordRngs[wi]
			hi := wi*64 + 64
			if hi > fs.shots {
				hi = fs.shots
			}
			for l := wi * 64; l < hi; l++ {
				f(l)
			}
		}
		return
	}
	logq := math.Log1p(-p)
	for wi := 0; wi < fs.words; wi++ {
		lo := wi * 64
		hi := lo + 64
		if hi > fs.shots {
			hi = fs.shots
		}
		fs.cur = fs.wordRngs[wi]
		refGeomScan(fs.cur, logq, lo, hi, f)
	}
}

// blockFrameSim builds a block-mode simulator for shots lanes whose
// word wi draws from the stream seedmix.Derive(base, firstBlock+wi),
// with no scan constants: only the reference scan samples a circuit on
// it.
func blockFrameSim(c *circuit.Circuit, firstBlock, shots int, base int64) *frameSim {
	fs := newFrameSim(c, shots, 0)
	fs.wordSrcs = make([]rand.Source, fs.words)
	fs.wordRngs = make([]*rand.Rand, fs.words)
	for wi := range fs.wordSrcs {
		fs.wordSrcs[wi] = rand.NewSource(seedmix.Derive(base, uint64(firstBlock+wi)))
		fs.wordRngs[wi] = rand.New(fs.wordSrcs[wi])
	}
	return fs
}

// refSample is the old noisy run on a fresh simulator, classic or block
// mode. Each op runs its noiseless action through frameSim.apply
// (shared, not under test), then samples its noise channels with the
// reference scan in the old order. A measurement flip lands on the
// measurement record, so sampling it after apply's post-measurement
// reset changes nothing.
func refSample(fs *frameSim) *Result {
	for oi, op := range fs.c.Ops {
		fs.apply(oi, op, false)
		refNoise(fs, oi, op)
	}
	return fs.result()
}

// refBlockRun is the old BlockSampler.Run.
func refBlockRun(c *circuit.Circuit, firstBlock, shots int, base int64) *Result {
	return refSample(blockFrameSim(c, firstBlock, shots, base))
}

// refNoise is the noisy half of the old frameSim.apply.
func refNoise(fs *frameSim, opIndex int, op circuit.Op) {
	switch op.Kind {
	case circuit.OpMR, circuit.OpM:
		meas := fs.measBase(opIndex)
		for i := range op.Qubits {
			m := meas + i
			if op.FlipProb > 0 {
				refForEachLane(fs, op.FlipProb, func(l int) { setBit(fs.meas[m], l) })
			}
		}
	case circuit.OpPauli1:
		for _, q := range op.Qubits {
			refForEachLane(fs, op.PX, func(l int) { setBit(fs.fx[q], l) })
			refForEachLane(fs, op.PY, func(l int) { setBit(fs.fx[q], l); setBit(fs.fz[q], l) })
			refForEachLane(fs, op.PZ, func(l int) { setBit(fs.fz[q], l) })
		}
	case circuit.OpDepol1:
		for _, q := range op.Qubits {
			refForEachLane(fs, op.P, func(l int) {
				switch fs.cur.Intn(3) {
				case 0:
					setBit(fs.fx[q], l)
				case 1:
					setBit(fs.fx[q], l)
					setBit(fs.fz[q], l)
				case 2:
					setBit(fs.fz[q], l)
				}
			})
		}
	case circuit.OpDepol2:
		for _, pr := range op.Pairs {
			a, b := pr[0], pr[1]
			refForEachLane(fs, op.P, func(l int) {
				k := 1 + fs.cur.Intn(15)
				pa, pb := k/4, k%4
				fs.injectPauliIndex(a, pa, l)
				fs.injectPauliIndex(b, pb, l)
			})
		}
	case circuit.OpXFlip:
		for _, q := range op.Qubits {
			refForEachLane(fs, op.P, func(l int) { setBit(fs.fx[q], l) })
		}
	}
}

// refRunDeterministic is the old RunDeterministic: a fresh simulator
// that executes every op from the first, plants each Pauli injection
// right after its op and each measurement flip after the whole circuit.
func refRunDeterministic(c *circuit.Circuit, shots int, inj []Injection) *Result {
	fs := newFrames(c, shots)
	for oi, op := range c.Ops {
		fs.apply(oi, op, false)
		for _, in := range inj {
			if in.IsMeasFlip || in.OpIndex != oi {
				continue
			}
			for _, p := range in.Paulis {
				if p.X {
					setBit(fs.fx[p.Qubit], in.Lane)
				}
				if p.Z {
					setBit(fs.fz[p.Qubit], in.Lane)
				}
			}
		}
	}
	for _, in := range inj {
		if in.IsMeasFlip {
			setBit(fs.meas[in.FlipMeas], in.Lane)
		}
	}
	return fs.result()
}
