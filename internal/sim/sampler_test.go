package sim

import (
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/seedmix"
)

// A reused Sampler must be bit-identical to a fresh one: same circuit,
// shots and seed give the same detector words, no matter what ran on
// the buffers before.
func TestSamplerReuseReproducible(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{UseFlags: true}, css.Z, 3, 0.01)
	fresh := NewSampler(c, 64)
	first := snapshot(fresh.Run(64, 5))

	reused := NewSampler(c, 64)
	reused.Run(64, 99) // dirty the buffers with a different stream
	reused.Run(17, 3)  // and with a partial block
	again := snapshot(reused.Run(64, 5))

	if len(first) != len(again) {
		t.Fatalf("detector row count changed: %d vs %d", len(first), len(again))
	}
	for d := range first {
		for w := range first[d] {
			if first[d][w] != again[d][w] {
				t.Fatalf("detector %d word %d differs after reuse", d, w)
			}
		}
	}
}

// Sampler runs must match the one-shot Run entry point for a full
// block: both seed a fresh stream the same way.
func TestSamplerMatchesRun(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.02)
	want := Run(c, 64, 9)
	got := NewSampler(c, 64).Run(64, 9)
	for d := range want.Detectors {
		if want.Detectors[d][0] != got.Detectors[d][0] {
			t.Fatalf("detector %d differs between Run and Sampler", d)
		}
	}
	for o := range want.Observables {
		if want.Observables[o][0] != got.Observables[o][0] {
			t.Fatalf("observable %d differs between Run and Sampler", o)
		}
	}
}

// Partial blocks must confine noise to the active lanes.
func TestSamplerPartialBlockLanes(t *testing.T) {
	c := &circuit.Circuit{NumQubits: 1}
	c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{0}, FlipProb: 1})
	c.Detectors = append(c.Detectors, circuit.Detector{Meas: []int{0}})
	res := NewSampler(c, 64).Run(20, 1)
	if res.Shots != 20 {
		t.Fatalf("Shots = %d, want 20", res.Shots)
	}
	for s := 0; s < 20; s++ {
		if !res.DetectorBit(0, s) {
			t.Fatalf("lane %d: FlipProb=1 did not flip", s)
		}
	}
	if res.Detectors[0][0]>>20 != 0 {
		t.Fatalf("noise leaked beyond the 20 active lanes: %#x", res.Detectors[0][0])
	}
}

// The block-mode contract: a block's outcome must not depend on how
// blocks are grouped into passes. Sixteen blocks sampled in one pass,
// in four 4-block passes, and in sixteen single-block passes must agree
// word for word — and the single-block pass must equal a classic
// Sampler run seeded with the block's derived seed.
func TestBlockSamplerGroupingInvariance(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{UseFlags: true}, css.Z, 3, 0.01)
	const base = int64(42)
	const blocks = 16

	one := NewBlockSampler(c, blocks)
	whole := snapshot(one.Run(0, blocks*64, base))

	quarters := NewBlockSampler(c, 4)
	singles := NewBlockSampler(c, 1)
	for g := 0; g < 4; g++ {
		part := quarters.Run(g*4, 4*64, base)
		for d := range whole {
			for w := 0; w < 4; w++ {
				if part.Detectors[d][w] != whole[d][g*4+w] {
					t.Fatalf("4-block pass %d: detector %d word %d differs from the 16-block pass", g, d, w)
				}
			}
		}
	}
	smp := NewSampler(c, 64)
	for b := 0; b < blocks; b++ {
		single := singles.Run(b, 64, base)
		classic := smp.Run(64, seedmix.Derive(base, uint64(b)))
		for d := range whole {
			if single.Detectors[d][0] != whole[d][b] {
				t.Fatalf("single-block pass %d: detector %d differs from the 16-block pass", b, d)
			}
			if classic.Detectors[d][0] != whole[d][b] {
				t.Fatalf("block %d detector %d: classic Sampler with the derived seed differs from block mode", b, d)
			}
		}
	}
}

// A partial trailing block must behave the same batched or alone.
func TestBlockSamplerPartialTail(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.02)
	const base = int64(7)
	batched := snapshot(NewBlockSampler(c, 3).Run(0, 2*64+20, base))
	tail := NewBlockSampler(c, 1).Run(2, 20, base)
	if tail.Shots != 20 {
		t.Fatalf("tail Shots = %d, want 20", tail.Shots)
	}
	for d := range batched {
		if tail.Detectors[d][0] != batched[d][2] {
			t.Fatalf("detector %d: partial tail differs batched vs alone", d)
		}
	}
}

func snapshot(r *Result) [][]uint64 {
	out := make([][]uint64, len(r.Detectors))
	for d := range r.Detectors {
		out[d] = append([]uint64(nil), r.Detectors[d]...)
	}
	return out
}

// Validate must accept exactly the (0, max] shot range and reject the
// boundary violations on either side, for both sampler flavours.
func TestSamplerValidateBoundaries(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.01)
	s := NewSampler(c, 128)
	for _, tc := range []struct {
		name  string
		shots int
		ok    bool
	}{
		{"zero", 0, false},
		{"negative", -1, false},
		{"one", 1, true},
		{"max", 128, true},
		{"max-plus-one", 129, false},
	} {
		err := s.Validate(tc.shots)
		if (err == nil) != tc.ok {
			t.Errorf("Sampler.Validate(%s=%d): err=%v, want ok=%v", tc.name, tc.shots, err, tc.ok)
		}
	}
}

func TestBlockSamplerValidateBoundaries(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.01)
	s := NewBlockSampler(c, 2) // capacity 128 shots
	for _, tc := range []struct {
		name       string
		firstBlock int
		shots      int
		ok         bool
	}{
		{"zero-shots", 0, 0, false},
		{"negative-shots", 0, -64, false},
		{"one-shot", 0, 1, true},
		{"max-shots", 0, 128, true},
		{"max-plus-one", 0, 129, false},
		{"negative-block", -1, 64, false},
		{"deep-block", 1 << 30, 64, true},
	} {
		err := s.Validate(tc.firstBlock, tc.shots)
		if (err == nil) != tc.ok {
			t.Errorf("BlockSampler.Validate(%s: first=%d shots=%d): err=%v, want ok=%v",
				tc.name, tc.firstBlock, tc.shots, err, tc.ok)
		}
	}
}

// Run must refuse out-of-range counts loudly (panic with the Validate
// error) rather than silently sampling garbage lanes.
func TestSamplerRunPanicsOutOfRange(t *testing.T) {
	code := steane(t)
	c := memoryCircuitWithNoise(t, code, fpn.Options{}, css.Z, 2, 0.01)
	s := NewSampler(c, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Run(65) on a 64-lane sampler did not panic")
		}
	}()
	s.Run(65, 1)
}

// TestBlockSamplerSteadyStateZeroAlloc gates the sampler hot path at
// exactly zero allocations per pass after warm-up: the scan constants
// are fixed at construction, and full passes, partial tails, the
// first-draw fast path and the exact scan must all stay off the heap.
func TestBlockSamplerSteadyStateZeroAlloc(t *testing.T) {
	const blocks = 16
	for _, p := range []float64{1e-3, 0.05} {
		s := NewBlockSampler(planarCircuit(t, 5, p), blocks)
		s.Run(0, blocks*64, 1)
		for _, shots := range []int{blocks * 64, 5*64 + 9} {
			first := blocks
			allocs := testing.AllocsPerRun(20, func() {
				s.Run(first, shots, 1)
				first += blocks
			})
			if allocs != 0 {
				t.Errorf("p=%g shots=%d: %v allocs per BlockSampler.Run, want 0", p, shots, allocs)
			}
		}
	}
}
