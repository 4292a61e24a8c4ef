// Package sim is the Pauli-frame sampler (the Stim substitute): it
// propagates X/Z error frames through Clifford circuits with 64 shots
// bit-packed per machine word, samples the paper's noise channels with
// geometric skip-sampling, and reads out detector and observable flips.
// Injector, the deterministic mode, runs a circuit noiselessly with
// planted faults on reused buffers; it drives the detector-error-model
// extraction in package dem, 64 faults (one per lane) per run.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/fpn/flagproxy/internal/circuit"
)

// Result holds per-shot detector and observable flip bits, packed 64
// shots per word.
//
// Whole-word readers (the batch decode path) rely on two guarantees
// that resultInto enforces on every materialization: lanes at or past
// Shots in the final active word are zero, and — because a reused
// Result's rows keep the capacity of the largest run they ever held —
// words at or past Words are zero too. Nothing past Shots is ever
// garbage, whether the row is read bit-by-bit or word-by-word.
type Result struct {
	Shots       int
	Words       int
	Detectors   [][]uint64 // [detector][word]
	Observables [][]uint64
	MeasFlips   [][]uint64 // [measurement][word]
}

// DetectorBit reports whether detector d fired in shot s. Shot indexes
// outside [0, Shots) are a caller bug — typically an off-by-one against
// a partial tail block — and panic with the offending index rather than
// silently reading a masked (or stale) lane.
func (r *Result) DetectorBit(d, s int) bool {
	if uint(s) >= uint(r.Shots) {
		panic(fmt.Sprintf("sim: DetectorBit(%d, %d): shot %d outside [0, %d)", d, s, s, r.Shots))
	}
	return r.Detectors[d][s/64]>>(uint(s)%64)&1 == 1
}

// ObservableBit reports whether observable o flipped in shot s. Like
// DetectorBit it panics, naming the shot index, when s is out of range.
func (r *Result) ObservableBit(o, s int) bool {
	if uint(s) >= uint(r.Shots) {
		panic(fmt.Sprintf("sim: ObservableBit(%d, %d): shot %d outside [0, %d)", o, s, s, r.Shots))
	}
	return r.Observables[o][s/64]>>(uint(s)%64)&1 == 1
}

// DetectorWord returns the 64-lane word w of detector d's row. Lanes at
// or past Shots are guaranteed zero (see the Result contract).
func (r *Result) DetectorWord(d, w int) uint64 { return r.Detectors[d][w] }

// ObservableWord returns the 64-lane word w of observable o's row, with
// the same tail-lane guarantee as DetectorWord.
func (r *Result) ObservableWord(o, w int) uint64 { return r.Observables[o][w] }

type frameSim struct {
	c        *circuit.Circuit
	words    int // words active in the current run
	capWords int // words allocated (capacity ceiling)
	shots    int
	fx, fz   [][]uint64
	meas     [][]uint64
	src      rand.Source
	rng      *rand.Rand

	// Block mode (BlockSampler): every 64-shot word consumes its own
	// RNG stream so a block's outcome is independent of how blocks are
	// batched into passes. nil in classic whole-run mode.
	wordSrcs []rand.Source
	wordRngs []*rand.Rand
	// cur is the stream noise channels must draw from: the run-wide rng
	// in classic mode, the active word's rng in block mode.
	cur *rand.Rand

	measBases []int // lazily computed first-measurement index per op

	// noise[oi] holds the skip-sampling constants of op oi's noise
	// channels, fixed when a noisy simulator is built. nil in
	// deterministic (injection) mode, which samples no noise.
	noise []opNoise
}

// geom holds the geometric skip-sampling constants of one noise
// probability p, computed once per circuit so the scan loop never
// re-derives them.
type geom struct {
	p    float64
	logq float64 // log(1-p)
	// uNone is the first-draw threshold: a first draw u >= uNone skips
	// past every lane of a full 64-lane word, so the word has no hit and
	// the exact Log path can be skipped. Above 1 (never drawn) when the
	// construction check fails, which disables the test for this p.
	uNone float64
}

// opNoise holds one op's scan constants per noise field of circuit.Op.
type opNoise struct{ p, flip, px, py, pz geom }

// noneMargin is the relative safety margin of the first-draw threshold:
// uNone targets a skip of 64·(1+2·noneMargin) lanes and must be checked
// to give at least 64·(1+noneMargin). The exact skip expression is
// monotone in u up to the last-ulp error of math.Log and one rounding in
// each of the subtraction and the division, all far below the margin,
// so every draw u >= uNone takes a skip of at least 64 in the exact
// path too. The margin only sends a negligible sliver of no-hit words
// (relative width ~1e-6) down the exact path.
const noneMargin = 1e-6

// newGeom precomputes the scan constants of probability p. Values the
// scan never reaches (p <= 0, p >= 1) keep uNone above 1.
func newGeom(p float64) geom {
	g := geom{p: p, logq: math.Log1p(-p), uNone: 2}
	if !(p > 0 && p < 1) {
		return g
	}
	u := -math.Expm1(64 * (1 + 2*noneMargin) * g.logq)
	if math.Log(1-u)/g.logq >= 64*(1+noneMargin) {
		g.uNone = u
	}
	return g
}

// noiseTable computes the scan constants of every noisy op of c, once
// per distinct probability.
func noiseTable(c *circuit.Circuit) []opNoise {
	seen := map[float64]geom{}
	get := func(p float64) geom {
		g, ok := seen[p]
		if !ok {
			g = newGeom(p)
			seen[p] = g
		}
		return g
	}
	tab := make([]opNoise, len(c.Ops))
	for i, op := range c.Ops {
		tab[i] = opNoise{p: get(op.P), flip: get(op.FlipProb), px: get(op.PX), py: get(op.PY), pz: get(op.PZ)}
	}
	return tab
}

// Run samples the circuit with its annotated noise for the given number
// of shots.
func Run(c *circuit.Circuit, shots int, seed int64) *Result {
	fs := newFrameSim(c, shots, seed)
	fs.noise = noiseTable(c)
	for oi, op := range c.Ops {
		fs.apply(oi, op, true)
	}
	return fs.result()
}

// newFrameSim builds a sampling simulator: zeroed frames for shots
// lanes and a run-wide RNG seeded seed.
func newFrameSim(c *circuit.Circuit, shots int, seed int64) *frameSim {
	fs := newFrames(c, shots)
	fs.src = rand.NewSource(seed)
	fs.rng = rand.New(fs.src)
	fs.cur = fs.rng
	return fs
}

// newFrames allocates zeroed frame and measurement rows for shots lanes
// and no RNG: the deterministic (injection) simulator.
func newFrames(c *circuit.Circuit, shots int) *frameSim {
	words := (shots + 63) / 64
	fs := &frameSim{c: c, words: words, capWords: words, shots: shots}
	fs.fx = make([][]uint64, c.NumQubits)
	fs.fz = make([][]uint64, c.NumQubits)
	for q := range fs.fx {
		fs.fx[q] = make([]uint64, words)
		fs.fz[q] = make([]uint64, words)
	}
	fs.meas = make([][]uint64, c.NumMeas)
	for m := range fs.meas {
		fs.meas[m] = make([]uint64, words)
	}
	return fs
}

// reset rewinds the simulator for a fresh run of shots lanes (at most
// the allocated capacity) with a new RNG seed, reusing every buffer.
func (fs *frameSim) reset(shots int, seed int64) {
	fs.clearFrames(shots)
	fs.src.Seed(seed)
}

// clearFrames zeroes every frame row and sizes the run to shots lanes.
func (fs *frameSim) clearFrames(shots int) {
	fs.shots = shots
	fs.words = (shots + 63) / 64
	for q := range fs.fx {
		clear(fs.fx[q])
		clear(fs.fz[q])
	}
}

func (fs *frameSim) result() *Result {
	r := &Result{}
	fs.resultInto(r)
	return r
}

// resultInto accumulates detector and observable rows into r, reusing
// r's buffers when it has been filled by this frameSim before. The
// result aliases fs.meas.
func (fs *frameSim) resultInto(r *Result) {
	r.Shots = fs.shots
	r.Words = fs.words
	r.MeasFlips = fs.meas
	if r.Detectors == nil {
		r.Detectors = make([][]uint64, len(fs.c.Detectors))
		for d := range r.Detectors {
			r.Detectors[d] = make([]uint64, fs.capWords)
		}
		r.Observables = make([][]uint64, len(fs.c.Observables))
		for o := range r.Observables {
			r.Observables[o] = make([]uint64, fs.capWords)
		}
	}
	for d, det := range fs.c.Detectors {
		acc := r.Detectors[d][:fs.words]
		clear(acc)
		for _, m := range det.Meas {
			row := fs.meas[m]
			for w := range acc {
				acc[w] ^= row[w]
			}
		}
	}
	for o, obs := range fs.c.Observables {
		acc := r.Observables[o][:fs.words]
		clear(acc)
		for _, m := range obs {
			row := fs.meas[m]
			for w := range acc {
				acc[w] ^= row[w]
			}
		}
	}
	// Tail-lane guarantee: a reused Result's rows keep the capacity of
	// the largest run they ever held, so a shorter run would otherwise
	// leave the previous run's bits in the words past fs.words — garbage
	// a whole-word reader (the batch decode path, or anything ranging
	// over a full row) would see past Shots. Mask the unused high lanes
	// of the final active word and zero every capacity word beyond it.
	if fs.words == 0 {
		return
	}
	tailMask := ^uint64(0)
	if tail := uint(fs.shots) % 64; tail != 0 {
		tailMask = (uint64(1) << tail) - 1
	}
	for d := range r.Detectors {
		row := r.Detectors[d]
		row[fs.words-1] &= tailMask
		clear(row[fs.words:])
	}
	for o := range r.Observables {
		row := r.Observables[o]
		row[fs.words-1] &= tailMask
		clear(row[fs.words:])
	}
}

// forEachLane visits lanes selected i.i.d. with probability g.p, using
// geometric skip-sampling so the cost is proportional to the number of
// hits rather than the number of shots. In block mode every 64-lane
// word is scanned with its own RNG stream, and a full word whose first
// draw reaches g.uNone is known to have no hit without taking the Log.
func (fs *frameSim) forEachLane(g *geom, f func(lane int)) {
	if g.p <= 0 {
		return
	}
	if fs.wordRngs == nil {
		if g.p >= 1 {
			for l := 0; l < fs.shots; l++ {
				f(l)
			}
			return
		}
		geomScan(fs.rng, fs.rng.Float64(), g.logq, 0, fs.shots, f)
		return
	}
	if g.p >= 1 {
		for wi := 0; wi < fs.words; wi++ {
			fs.cur = fs.wordRngs[wi]
			hi := min(wi*64+64, fs.shots)
			for l := wi * 64; l < hi; l++ {
				f(l)
			}
		}
		return
	}
	for wi := 0; wi < fs.words; wi++ {
		lo := wi * 64
		hi := min(lo+64, fs.shots)
		rng := fs.wordRngs[wi]
		u := rng.Float64()
		if u >= g.uNone && hi-lo == 64 {
			continue
		}
		fs.cur = rng
		geomScan(rng, u, g.logq, lo, hi, f)
	}
}

// geomScan visits lanes of [lo, hi) selected i.i.d. with hit
// probability p = 1 - exp(logq) by geometric skip-sampling, starting
// from the already drawn u and drawing every later u from rng. The
// float skip is compared with the remaining window before it is
// converted, so a skip too large for an int (p below ~1e-19) ends the
// scan instead of wrapping to a negative lane.
func geomScan(rng *rand.Rand, u, logq float64, lo, hi int, f func(lane int)) {
	l := lo
	for {
		skip := math.Log(1-u) / logq
		if skip >= float64(hi-l) {
			return
		}
		l += int(skip)
		f(l)
		l++
		u = rng.Float64()
	}
}

func setBit(row []uint64, lane int) { row[lane/64] ^= 1 << (uint(lane) % 64) }

// apply executes op: its Clifford action and, when noisy, its noise
// channels. Deterministic mode (noisy false) plants no fault here; the
// Injector does that between ops.
func (fs *frameSim) apply(opIndex int, op circuit.Op, noisy bool) {
	var nz *opNoise
	if noisy {
		nz = &fs.noise[opIndex]
	}
	switch op.Kind {
	case circuit.OpCX:
		for _, p := range op.Pairs {
			c, t := p[0], p[1]
			for w := 0; w < fs.words; w++ {
				fs.fx[t][w] ^= fs.fx[c][w]
				fs.fz[c][w] ^= fs.fz[t][w]
			}
		}
	case circuit.OpH:
		for _, q := range op.Qubits {
			fs.fx[q], fs.fz[q] = fs.fz[q], fs.fx[q]
		}
	case circuit.OpReset:
		for _, q := range op.Qubits {
			for w := 0; w < fs.words; w++ {
				fs.fx[q][w] = 0
				fs.fz[q][w] = 0
			}
		}
	case circuit.OpMR, circuit.OpM:
		meas := fs.measBase(opIndex)
		for i, q := range op.Qubits {
			m := meas + i
			copy(fs.meas[m], fs.fx[q])
			if noisy && op.FlipProb > 0 {
				fs.forEachLane(&nz.flip, func(l int) { setBit(fs.meas[m], l) })
			}
			if op.Kind == circuit.OpMR {
				for w := 0; w < fs.words; w++ {
					fs.fx[q][w] = 0
					fs.fz[q][w] = 0
				}
			} else {
				// Terminal measurement: frame beyond is irrelevant.
				for w := 0; w < fs.words; w++ {
					fs.fz[q][w] = 0
				}
			}
		}
	case circuit.OpPauli1:
		if noisy {
			for _, q := range op.Qubits {
				fs.forEachLane(&nz.px, func(l int) { setBit(fs.fx[q], l) })
				fs.forEachLane(&nz.py, func(l int) { setBit(fs.fx[q], l); setBit(fs.fz[q], l) })
				fs.forEachLane(&nz.pz, func(l int) { setBit(fs.fz[q], l) })
			}
		}
	case circuit.OpDepol1:
		if noisy {
			for _, q := range op.Qubits {
				fs.forEachLane(&nz.p, func(l int) {
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
		}
	case circuit.OpDepol2:
		if noisy {
			for _, pr := range op.Pairs {
				a, b := pr[0], pr[1]
				fs.forEachLane(&nz.p, func(l int) {
					k := 1 + fs.cur.Intn(15) // 2-qubit Pauli index, base 4, skipping II
					pa, pb := k/4, k%4
					fs.injectPauliIndex(a, pa, l)
					fs.injectPauliIndex(b, pb, l)
				})
			}
		}
	case circuit.OpXFlip:
		if noisy {
			for _, q := range op.Qubits {
				fs.forEachLane(&nz.p, func(l int) { setBit(fs.fx[q], l) })
			}
		}
	}
}

// injectPauliIndex applies Pauli index 0=I,1=X,2=Y,3=Z to lane l.
func (fs *frameSim) injectPauliIndex(q, idx, l int) {
	switch idx {
	case 1:
		setBit(fs.fx[q], l)
	case 2:
		setBit(fs.fx[q], l)
		setBit(fs.fz[q], l)
	case 3:
		setBit(fs.fz[q], l)
	}
}

// measBase returns the measurement index of the first measurement of the
// op at opIndex, caching the scan.
func (fs *frameSim) measBase(opIndex int) int {
	if fs.measBases == nil {
		fs.measBases = make([]int, len(fs.c.Ops))
		n := 0
		for i, op := range fs.c.Ops {
			fs.measBases[i] = n
			if op.Kind == circuit.OpMR || op.Kind == circuit.OpM {
				n += len(op.Qubits)
			}
		}
	}
	return fs.measBases[opIndex]
}
