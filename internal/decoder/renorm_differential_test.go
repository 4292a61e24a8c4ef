package decoder

import (
	"fmt"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/sim"
)

// TestDisableRenormDifferential holds the Equation 9 ablation
// (MWPM.DisableRenorm) to the naive reference on the flagged
// [[30,8,3,3]] code: it fills the full per-shot weight overlay while
// representatives stay lazy, a path the catalog matrix does not reach.
func TestDisableRenormDifferential(t *testing.T) {
	model, c := buildModel(t, hyper55(t), diffOptions, css.Z, diffRounds, 3e-3)
	dec, err := NewMWPM(model, css.Z, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	dec.DisableRenorm = true
	dd := diffDecoder{"mwpm-norenorm", dec,
		func(bit func(int) bool) ([]bool, error) { return naiveMWPMDecode(dec, bit) }}
	sc := NewScratch()
	const shots = 256
	res := sim.Run(c, shots, 55)
	for s := 0; s < shots; s++ {
		s := s
		assertSameDecode(t, dd, sc, func(d int) bool { return res.DetectorBit(d, s) }, fmt.Sprintf("shot=%d", s))
	}
	for ei, ev := range model.Events {
		assertSameDecode(t, dd, sc, combinedDetBit(ev), fmt.Sprintf("single-fault=%d", ei))
	}
}
