package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
)

// diffPs is the differential p grid: the practical range, the two
// extremes where the first-draw test is vacuous (p=0.5 puts uNone at
// 1.0, p=1 bypasses the scan), and deep-tail rates.
var diffPs = []float64{1e-9, 1e-6, 1e-3, 0.05, 0.5, 1}

// boundaryPs returns probabilities whose uNone sits on a float
// boundary of the draw: 1/2 and 1/4 (where the spacing of 1-u
// changes), powers of two down to 2⁻⁵⁴ (below which 1-u rounds to 1),
// and 1-2⁻⁵³ (the largest draw). For each it also returns the
// neighbouring representable probabilities.
func boundaryPs() []float64 {
	var ps []float64
	for _, t := range []float64{0.5, 0.25, 0x1p-10, 0x1p-30, 0x1p-40, 0x1p-50, 0x1p-54, 1 - 0x1p-53} {
		p := -math.Expm1(math.Log1p(-t) / (64 * (1 + 2*noneMargin)))
		ps = append(ps, math.Nextafter(p, 0), p, math.Nextafter(p, 1))
	}
	return ps
}

// synthCircuit exercises every noise channel of the sampler at the
// same probability p: single- and two-qubit depolarizing, X flips,
// all three Pauli-twirl components, and misread measurements with and
// without reset, over three rounds with one detector per measurement.
func synthCircuit(p float64) *circuit.Circuit {
	c := &circuit.Circuit{NumQubits: 4}
	c.AddOp(circuit.Op{Kind: circuit.OpReset, Qubits: []int{0, 1, 2, 3}})
	for r := 0; r < 3; r++ {
		c.AddOp(circuit.Op{Kind: circuit.OpH, Qubits: []int{0}})
		c.AddOp(circuit.Op{Kind: circuit.OpDepol1, Qubits: []int{0, 1}, P: p})
		c.AddOp(circuit.Op{Kind: circuit.OpCX, Pairs: [][2]int{{0, 1}, {2, 3}}})
		c.AddOp(circuit.Op{Kind: circuit.OpDepol2, Pairs: [][2]int{{0, 1}, {2, 3}}, P: p})
		c.AddOp(circuit.Op{Kind: circuit.OpXFlip, Qubits: []int{2}, P: p})
		c.AddOp(circuit.Op{Kind: circuit.OpPauli1, Qubits: []int{1, 3}, PX: p, PY: p, PZ: p})
		c.AddOp(circuit.Op{Kind: circuit.OpH, Qubits: []int{0}})
		c.AddOp(circuit.Op{Kind: circuit.OpMR, Qubits: []int{1, 3}, FlipProb: p})
	}
	c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{0, 2}, FlipProb: p})
	for m := 0; m < c.NumMeas; m++ {
		c.Detectors = append(c.Detectors, circuit.Detector{Meas: []int{m}})
	}
	c.Observables = [][]int{{c.NumMeas - 2, c.NumMeas - 1}}
	return c
}

// sameResult reports the first difference between two results in any
// row the sampler produces: detectors, observables, measurement flips.
func sameResult(got, want *Result) error {
	if got.Shots != want.Shots || got.Words != want.Words {
		return fmt.Errorf("shape %d shots/%d words, want %d/%d", got.Shots, got.Words, want.Shots, want.Words)
	}
	for _, rows := range []struct {
		name      string
		got, want [][]uint64
	}{
		{"detector", got.Detectors, want.Detectors},
		{"observable", got.Observables, want.Observables},
		{"measurement", got.MeasFlips, want.MeasFlips},
	} {
		for i := range rows.want {
			for w := 0; w < want.Words; w++ {
				if g, x := rows.got[i][w], rows.want[i][w]; g != x {
					return fmt.Errorf("%s %d word %d: %#x, want %#x", rows.name, i, w, g, x)
				}
			}
		}
	}
	return nil
}

// TestBlockSamplerMatchesNaiveReference is the differential test of the
// fast scan: BlockSampler must reproduce the pre-threshold sampler bit
// for bit over the p grid and the float-boundary probabilities, on the
// synthetic all-channel circuit and a planar memory circuit, in
// single-block passes, 16-block passes and passes ending in a partial
// tail word. The classic whole-run Sampler, which shares the scan
// constants but not the first-draw test, must match too.
func TestBlockSamplerMatchesNaiveReference(t *testing.T) {
	ps := append(append([]float64(nil), diffPs...), boundaryPs()...)
	const base = int64(11)
	for _, p := range ps {
		if p < 1e-17 {
			// A draw near 1 overflows the reference's skip conversion
			// here; TestGeomScanNoOverflow and FuzzGeomScan cover it.
			continue
		}
		circuits := map[string]*circuit.Circuit{"synth": synthCircuit(p), "planar-d3": planarCircuit(t, 3, p)}
		for name, c := range circuits {
			label := fmt.Sprintf("%s p=%g", name, p)
			single := NewBlockSampler(c, 1)
			for b := 0; b < 4; b++ {
				if err := sameResult(single.Run(b, 64, base), refBlockRun(c, b, 64, base)); err != nil {
					t.Fatalf("%s single block %d: %v", label, b, err)
				}
			}
			if err := sameResult(NewSampler(c, 300).Run(300, base), refSample(newFrameSim(c, 300, base))); err != nil {
				t.Fatalf("%s classic Sampler: %v", label, err)
			}
			wide := NewBlockSampler(c, 16)
			for _, pass := range []struct{ first, shots int }{
				{0, 16 * 64},       // full pass
				{16, 16 * 64},      // next pass, reused buffers
				{32, 15*64 + 37},   // partial tail word
				{47, 1},            // one-lane pass
				{1 << 20, 16 * 64}, // deep block index
			} {
				if err := sameResult(wide.Run(pass.first, pass.shots, base), refBlockRun(c, pass.first, pass.shots, base)); err != nil {
					t.Fatalf("%s pass (first=%d shots=%d): %v", label, pass.first, pass.shots, err)
				}
			}
		}
	}
}

// scriptedSource replays fixed Int63 values, then falls through to a
// seeded source. rand.Rand.Float64 returns Int63()/2⁶³, so a script
// pins the exact draws the scan sees.
type scriptedSource struct {
	draws []int64
	rand.Source
}

func (s *scriptedSource) Int63() int64 {
	if len(s.draws) > 0 {
		n := s.draws[0]
		s.draws = s.draws[1:]
		return n
	}
	return s.Source.Int63()
}

// drawOf returns the Int63 value whose Float64 draw is u; u must be a
// multiple of 2⁻⁶³ in [0, 1).
func drawOf(u float64) int64 { return int64(u * (1 << 63)) }

// TestFirstDrawThresholdConservative checks the threshold directly:
// every draw at or above uNone, including the first representable ones
// and the largest draw, must take an exact skip of at least 64, so the
// fast path never drops a hit. It also pins that the test is enabled
// across the practical range, so the speed-up is not silently lost.
func TestFirstDrawThresholdConservative(t *testing.T) {
	ps := append(append([]float64(nil), diffPs...), boundaryPs()...)
	for e := -20.0; e <= -0.2; e += 0.1 {
		ps = append(ps, math.Pow(10, e))
	}
	for _, p := range ps {
		g := newGeom(p)
		if p > 0 && p < 1 && p >= 1e-12 && p <= 0.3 && g.uNone >= 1 {
			t.Errorf("p=%g: first-draw test disabled (uNone=%v)", p, g.uNone)
		}
		if g.uNone > 1 {
			continue
		}
		check := func(u float64) {
			if u < g.uNone || u >= 1 {
				return
			}
			if skip := math.Log(1-u) / g.logq; !(skip >= 64) {
				t.Fatalf("p=%g: draw u=%v >= uNone=%v takes exact skip %v < 64", p, u, g.uNone, skip)
			}
		}
		u := g.uNone
		for i := 0; i < 4096 && u < 1; i++ {
			check(u)
			u = math.Nextafter(u, 1)
		}
		for k := 0; k <= 1000; k++ {
			check(g.uNone + (1-g.uNone)*float64(k)/1000)
		}
		check(1 - 0x1p-53)
	}
}

// TestGeomScanNoOverflow is the regression test for the float→int
// overflow: for p at or below ~1e-19 a draw near 1 gives a skip above
// 2⁶³, which the old conversion wrapped to a negative lane. Full and
// tail words must end the scan instead, at the sampler level and with
// the largest draw scripted at every position of the scan.
func TestGeomScanNoOverflow(t *testing.T) {
	for _, p := range []float64{1e-19, 1e-25, 1e-300} {
		c := synthCircuit(p)
		s := NewBlockSampler(c, 16)
		for _, pass := range []struct{ first, shots int }{{0, 16 * 64}, {16, 3*64 + 5}} {
			res := s.Run(pass.first, pass.shots, 3)
			for d, row := range res.Detectors {
				for w, word := range row[:res.Words] {
					if word != 0 {
						t.Fatalf("p=%g pass %d: detector %d word %d = %#x, want no hit", p, pass.first, d, w, word)
					}
				}
			}
		}

		g := newGeom(p)
		for _, win := range []struct{ lo, hi int }{{0, 64}, {128, 192}, {64, 69}} {
			for _, script := range [][]int64{
				{drawOf(1 - 0x1p-53)},             // overflowing first draw
				{0, drawOf(1 - 0x1p-53)},          // a hit at lo (1-u rounds to 1), then overflow
				{0, 0, drawOf(0.5), drawOf(0.75)}, // two hits, then large skips
				{0, 0, 0, 0, 0, 0},                // hits filling a 5-lane tail, then a zero skip at hi
			} {
				src := &scriptedSource{draws: append([]int64(nil), script...), Source: rand.NewSource(1)}
				rng := rand.New(src)
				var lanes []int
				geomScan(rng, rng.Float64(), g.logq, win.lo, win.hi, func(l int) { lanes = append(lanes, l) })
				// A zero draw hits the next lane (1-u rounds to 1); every
				// scripted nonzero draw and every seeded one skips past hi.
				hits := 0
				for hits < len(script) && script[hits] == 0 && hits < win.hi-win.lo {
					hits++
				}
				if len(lanes) != hits {
					t.Fatalf("p=%g window %v script %v: visited %v, want %d hits from lo", p, win, script, lanes, hits)
				}
				for i, l := range lanes {
					if l != win.lo+i {
						t.Fatalf("p=%g window %v script %v: visited %v, want consecutive lanes from %d", p, win, script, lanes, win.lo)
					}
				}
				if want := max(len(script)-hits-1, 0); len(src.draws) != want {
					t.Fatalf("p=%g window %v script %v: %d scripted draws left, want %d", p, win, script, len(src.draws), want)
				}
			}
		}
	}
}

// FuzzGeomScan drives both scans — geomScan over an arbitrary window
// and the block-mode forEachLane over whole and partial words — against
// the naive reference from the same seed, and requires the same visited
// lanes and the same next draw on every stream. Where the reference's
// skip conversion overflows (it then visits a lane outside the window,
// which panicked the old sampler), the fast scan must visit the same
// in-window prefix and stop.
func FuzzGeomScan(f *testing.F) {
	for _, p := range append(append([]float64(nil), diffPs...), boundaryPs()...) {
		f.Add(p, int64(1), 0, 64)
		f.Add(p, int64(7), 64, 64+37)
		f.Add(p, int64(-3), 1000, 1000+300)
	}
	f.Add(1e-19, int64(5), 0, 64)
	f.Add(1e-300, int64(9), 3, 200)
	f.Fuzz(func(t *testing.T, p float64, seed int64, lo, hi int) {
		if !(p > 0 && p < 1) {
			return
		}
		lo = int(uint(lo) % (1 << 20))
		width := int(uint(hi) % 320)
		g := newGeom(p)

		var got, want []int
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		geomScan(rngGot, rngGot.Float64(), g.logq, lo, lo+width, func(l int) { got = append(got, l) })
		overflow := refScan(func(visit func(int)) {
			refGeomScan(rngWant, math.Log1p(-p), lo, lo+width, visit)
		}, lo, lo+width, &want)
		compareScans(t, "geomScan", got, want, overflow, lo, lo+width, []*rand.Rand{rngGot}, []*rand.Rand{rngWant})

		shots := 1 + width
		c := &circuit.Circuit{NumQubits: 1}
		fsGot := blockFrameSim(c, lo, shots, seed)
		fsWant := blockFrameSim(c, lo, shots, seed)
		got, want = nil, nil
		fsGot.forEachLane(&g, func(l int) { got = append(got, l) })
		overflow = refScan(func(visit func(int)) { refForEachLane(fsWant, p, visit) }, 0, shots, &want)
		compareScans(t, "forEachLane", got, want, overflow, 0, shots, fsGot.wordRngs, fsWant.wordRngs)
	})
}

// refScan runs a reference scan, recording its lanes into out, and
// reports whether it visited a lane outside [lo, hi) — the old
// overflow — at which point it is stopped, as the old sampler's index
// panic stopped it.
func refScan(scan func(visit func(int)), lo, hi int, out *[]int) (overflow bool) {
	type escaped struct{}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(escaped); !ok {
				panic(r)
			}
			overflow = true
		}
	}()
	scan(func(l int) {
		if l < lo || l >= hi {
			panic(escaped{})
		}
		*out = append(*out, l)
	})
	return false
}

// compareScans requires the fast scan's lanes got to equal the
// reference's lanes want (only the in-window prefix, and every lane in
// [lo, hi), when the reference overflowed) and, without overflow, every
// stream's next draw to agree.
func compareScans(t *testing.T, name string, got, want []int, overflow bool, lo, hi int, rngGot, rngWant []*rand.Rand) {
	t.Helper()
	for _, l := range got {
		if l < lo || l >= hi {
			t.Fatalf("%s: visited lane %d outside [%d, %d)", name, l, lo, hi)
		}
	}
	if overflow {
		if len(got) < len(want) {
			t.Fatalf("%s: visited %v, want the reference's in-window prefix %v", name, got, want)
		}
		got = got[:len(want)]
	} else if len(got) != len(want) {
		t.Fatalf("%s: visited %v, want %v", name, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: visited %v, want %v", name, got, want)
		}
	}
	if overflow {
		return
	}
	for i := range rngWant {
		if g, w := rngGot[i].Int63(), rngWant[i].Int63(); g != w {
			t.Fatalf("%s: stream %d next draw %d, want %d", name, i, g, w)
		}
	}
}
