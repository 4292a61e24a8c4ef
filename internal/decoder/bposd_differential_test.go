package decoder

// BP+OSD differential coverage where the decoder runs in production:
// the hypergraph-product code of perfbench's hgp-bposd workload, random
// detector subsets that reach OSD-0's no-solution fallback, and
// duplicate columns whose tied posteriors leave the correction to the
// sort order. Every case compares DecodeWith with naiveBPOSDDecode.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/hgp"
	"github.com/fpn/flagproxy/internal/sim"
)

// hgpWorkloadModel builds the hgp-bposd workload's circuit: the
// hypergraph product of hgp.RandomLDPC(6,3,4) (construction seed 12)
// with itself, bare architecture, Z basis, 2 rounds.
func hgpWorkloadModel(t *testing.T, p float64) (*dem.Model, *circuit.Circuit) {
	t.Helper()
	c1, err := hgp.RandomLDPC(6, 3, 4, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	code, err := hgp.Product(c1, c1, "hgp-6-3-4")
	if err != nil {
		t.Fatal(err)
	}
	return buildModel(t, code, fpn.Options{}, css.Z, 2, p)
}

// bposdDiff pairs a BPOSD decoder with its naive reference.
func bposdDiff(d *BPOSD) diffDecoder {
	return diffDecoder{"bposd", d, func(bit func(int) bool) ([]bool, error) { return naiveBPOSDDecode(d, bit) }}
}

// bpPaths counts how a set of shots leaves the BP stage.
type bpPaths struct{ empty, converged, osd, fallback int }

// classify runs the BP stage (and OSD-0 on a stall) on its own scratch
// and records the path the shot takes.
func (n *bpPaths) classify(d *BPOSD, sc *DecodeScratch, bit func(int) bool) {
	sc.reset(d.numObs)
	switch d.propagate(&sc.bp, bit) {
	case bpEmpty:
		n.empty++
	case bpConverged:
		n.converged++
	case bpStalled:
		n.osd++
		if !d.osd0(&sc.bp, sc.correction) {
			n.fallback++
		}
	}
}

// TestBPOSDDifferentialHGP decodes sampled shots of the hgp-bposd
// workload at its rate and at ten times it, and requires the fixture to
// reach every BP outcome.
func TestBPOSDDifferentialHGP(t *testing.T) {
	for _, tc := range []struct {
		p     float64
		shots int
	}{{1e-3, 512}, {1e-2, 128}} {
		t.Run(fmt.Sprintf("p=%g", tc.p), func(t *testing.T) {
			model, c := hgpWorkloadModel(t, tc.p)
			d, err := NewBPOSD(model, css.Z, 30)
			if err != nil {
				t.Fatal(err)
			}
			dd := bposdDiff(d)
			res := sim.Run(c, tc.shots, 91)
			sc, probe := NewScratch(), NewScratch()
			var paths bpPaths
			for s := 0; s < tc.shots; s++ {
				s := s
				bit := func(det int) bool { return res.DetectorBit(det, s) }
				paths.classify(d, probe, bit)
				assertSameDecode(t, dd, sc, bit, fmt.Sprintf("shot=%d", s))
			}
			t.Logf("p=%g: %+v", tc.p, paths)
			if paths.converged == 0 || paths.osd == 0 {
				t.Fatalf("fixture misses a BP outcome: %+v", paths)
			}
			if tc.p == 1e-3 && paths.empty == 0 {
				t.Fatalf("fixture has no empty-syndrome shot: %+v", paths)
			}
		})
	}
}

// TestBPOSDDifferentialRandomSubsets decodes syndromes that are random
// detector subsets rather than fault footprints. A subset outside the
// column space sends OSD-0 to its BP-hard-decision fallback. The flagged
// [[30,8,3,3]] model's check matrix is rank-deficient, so its fixture
// must reach the fallback; the HGP model's has full row rank, so its
// fixture must never reach it.
func TestBPOSDDifferentialRandomSubsets(t *testing.T) {
	model, _ := buildModel(t, hyper55(t), diffOptions, css.Z, diffRounds, 1e-3)
	hmodel, _ := hgpWorkloadModel(t, 1e-3)
	for _, m := range []struct {
		name  string
		model *dem.Model
	}{{"hysc-30", model}, {"hgp-6-3-4", hmodel}} {
		t.Run(m.name, func(t *testing.T) {
			d, err := NewBPOSD(m.model, css.Z, 30)
			if err != nil {
				t.Fatal(err)
			}
			dd := bposdDiff(d)
			rng := rand.New(rand.NewSource(5))
			sc, probe := NewScratch(), NewScratch()
			var paths bpPaths
			fired := map[int]bool{}
			bit := func(det int) bool { return fired[det] }
			for i := 0; i < 96; i++ {
				clear(fired)
				// Sparse and dense subsets alike.
				k := 1 + rng.Intn(len(d.dets))
				if i%2 == 0 {
					k = 1 + rng.Intn(6)
				}
				for _, r := range rng.Perm(len(d.dets))[:k] {
					fired[d.dets[r]] = true
				}
				paths.classify(d, probe, bit)
				assertSameDecode(t, dd, sc, bit, fmt.Sprintf("subset=%d", i))
			}
			fullRank := gf2.Rank(d.h) == len(d.dets)
			t.Logf("%s: full row rank %v, %+v", m.name, fullRank, paths)
			if fullRank != (paths.fallback == 0) {
				t.Fatalf("full row rank %v but %d fallbacks: %+v", fullRank, paths.fallback, paths)
			}
		})
	}
}

// handModel wraps hand-built events in a model over numDets Z-basis
// detectors and numObs observables.
func handModel(numDets, numObs int, events []dem.Event) *dem.Model {
	c := &circuit.Circuit{Detectors: make([]circuit.Detector, numDets), Observables: make([][]int, numObs)}
	for i := range c.Detectors {
		c.Detectors[i] = circuit.Detector{Check: i, Flag: -1, Basis: css.Z, Color: -1}
	}
	return &dem.Model{Circuit: c, Events: events}
}

// TestBPOSDTiedDuplicateColumns builds a repetition chain in which every
// edge appears twice with equal priors, once flipping the observable
// and once not. Duplicates always tie in posterior and move together in
// BP, so these shots stall into OSD-0, and the order the sort leaves
// the tied columns in picks the correction.
func TestBPOSDTiedDuplicateColumns(t *testing.T) {
	const n = 24 // detectors; > 12 columns, so the sort leaves insertion sort
	var events []dem.Event
	for i := 0; i+1 < n; i++ {
		events = append(events,
			dem.Event{Dets: []int{i, i + 1}, P: 0.01},
			dem.Event{Dets: []int{i, i + 1}, Obs: []int{0}, P: 0.01})
	}
	events = append(events, dem.Event{Dets: []int{0}, P: 0.02}, dem.Event{Dets: []int{n - 1}, Obs: []int{0}, P: 0.02})
	d, err := NewBPOSD(handModel(n, 1, events), css.Z, 30)
	if err != nil {
		t.Fatal(err)
	}
	dd := bposdDiff(d)
	sc, probe := NewScratch(), NewScratch()
	var paths bpPaths
	fired := map[int]bool{}
	bit := func(det int) bool { return fired[det] }
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		clear(fired)
		for _, det := range rng.Perm(n)[:1+rng.Intn(5)] {
			fired[det] = true
		}
		paths.classify(d, probe, bit)
		assertSameDecode(t, dd, sc, bit, fmt.Sprintf("syndrome=%d", i))
	}
	t.Logf("%+v", paths)
	if paths.osd == 0 {
		t.Fatalf("no shot reached OSD-0: %+v", paths)
	}
}

// randomBPOSDModel draws a small model from rng: up to 12 detectors,
// events of 1–3 detector entries (repeats allowed), priors from a small
// set so posteriors tie, and random observables.
func randomBPOSDModel(rng *rand.Rand) *dem.Model {
	nd := 2 + rng.Intn(11)
	nobs := 1 + rng.Intn(3)
	priors := []float64{1e-3, 1e-2, 0.1}
	events := make([]dem.Event, 1+rng.Intn(30))
	for i := range events {
		dets := make([]int, 1+rng.Intn(3))
		for j := range dets {
			dets[j] = rng.Intn(nd)
		}
		sort.Ints(dets)
		var obs []int
		for o := 0; o < nobs; o++ {
			if rng.Intn(2) == 0 {
				obs = append(obs, o)
			}
		}
		events[i] = dem.Event{Dets: dets, Obs: obs, P: priors[rng.Intn(len(priors))]}
	}
	return handModel(nd, nobs, events)
}

// FuzzBPOSD decodes a syndrome bitmask on a seed-drawn small model
// through DecodeWith and the naive reference; the corrections must
// match bit for bit.
func FuzzBPOSD(f *testing.F) {
	f.Add(int64(1), uint64(0b1011))
	f.Add(int64(7), uint64(0xfff))
	f.Add(int64(42), uint64(0b100000000001))
	f.Add(int64(-3), uint64(1))
	f.Fuzz(func(t *testing.T, seed int64, mask uint64) {
		rng := rand.New(rand.NewSource(seed))
		model := randomBPOSDModel(rng)
		d, err := NewBPOSD(model, css.Z, 1+rng.Intn(30))
		if err != nil {
			t.Fatal(err)
		}
		bit := func(det int) bool { return mask>>(det%64)&1 != 0 }
		// Twice on one scratch: the second decode catches state leaking
		// from the first.
		sc := NewScratch()
		assertSameDecode(t, bposdDiff(d), sc, bit, "first")
		assertSameDecode(t, bposdDiff(d), sc, bit, "again")
	})
}
