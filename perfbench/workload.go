package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/fpn/flagproxy/internal/catalog"
	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/hgp"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/seedmix"
	"github.com/fpn/flagproxy/internal/sim"
	"github.com/fpn/flagproxy/internal/surface"
)

// physP is every workload's physical error rate.
const physP = 1e-3

// fpnArch is the FPN architecture `ber -fig 19` uses: flags, flag
// sharing, degree at most 4.
var fpnArch = fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}

// workload is one named, seeded input to the benchmark. A run is a sweep
// of fixed-size points (the unit `ber` runs and checkpoints), each with
// its own seed derived from the workload seed, repeated until the
// measured time is used up.
type workload struct {
	name string
	why  string
	// pointShots is the shot budget of one sweep point.
	pointShots int
	// fabric runs the points through a coordinator and one worker over
	// loopback HTTP instead of the single-machine engine.
	fabric bool
	// canonical marks a pipeline built from the canonical rotated
	// schedule; its configs carry the schedule.
	canonical bool
	// base carries Basis, P, Rounds (0: the code distance), Decoder and
	// Arch; Code and Schedule come from the pipeline.
	base experiment.Config
	// lookup runs once per process: the part of set-up a process can
	// only pay once (the catalog is a process-wide cache).
	lookup func() (*css.Code, error)
	// pipeline builds the p-independent pipeline; it runs on every
	// set-up repeat.
	pipeline func(code *css.Code) (*experiment.Pipeline, error)
}

var workloads = []*workload{
	{
		name: "flagged-30",
		why:  "the paper's headline decoder: flagged MWPM on the [[30,8,3,3]] {5,5} hyperbolic code, FPN architecture, greedy schedule",
		// 2^18 shots ≈ 2 s: long enough that the per-point tail rebuild
		// (DEM extraction, decoder) stays a few percent.
		pointShots: 1 << 18,
		base:       experiment.Config{Arch: fpnArch, Basis: css.Z, P: physP, Decoder: experiment.FlaggedMWPM},
		lookup:     catalogCode30,
		pipeline:   func(code *css.Code) (*experiment.Pipeline, error) { return experiment.NewPipeline(code, fpnArch) },
	},
	{
		name:       "planar-d7",
		why:        "sampler-heavy plain MWPM on rotated planar d=7 with the canonical schedule; no flags, so a flagged-Dijkstra change must leave it unchanged",
		pointShots: 1 << 19,
		canonical:  true,
		base:       experiment.Config{Basis: css.Z, P: physP, Decoder: experiment.PlainMWPM},
		lookup:     noLookup,
		pipeline:   func(*css.Code) (*experiment.Pipeline, error) { return canonicalPipeline(7) },
	},
	{
		name:       "hgp-bposd",
		why:        "BP+OSD on a hypergraph-product code: the scalar DecodeWith path with no batch and no memo",
		pointShots: 1 << 13,
		base:       experiment.Config{Basis: css.Z, P: physP, Rounds: 2, Decoder: experiment.BPOSD},
		lookup:     noLookup,
		pipeline:   hgpPipeline,
	},
	{
		name: "fabric-1",
		why:  "a coordinator and one worker over loopback HTTP with a checkpoint ledger on planar d=3: the wire and the ledger dominate",
		// 2^18 shots = 256 default-sized shards per point.
		pointShots: 1 << 18,
		fabric:     true,
		canonical:  true,
		base:       experiment.Config{Basis: css.Z, P: physP, Decoder: experiment.PlainMWPM},
		lookup:     noLookup,
		pipeline:   func(*css.Code) (*experiment.Pipeline, error) { return canonicalPipeline(3) },
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func noLookup() (*css.Code, error) { return nil, nil }

// catalogCode30 finds the [[30,8,3,3]] code through catalog.Standard(),
// exactly as `ber -fig 19` does.
func catalogCode30() (*css.Code, error) {
	for _, e := range catalog.Standard() {
		if e.Family == "surface" && e.Code.N == 30 {
			return e.Code, nil
		}
	}
	return nil, fmt.Errorf("no [[30,8,3,3]] code in the catalogue")
}

func canonicalPipeline(d int) (*experiment.Pipeline, error) {
	l, err := surface.Rotated(d)
	if err != nil {
		return nil, err
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		return nil, err
	}
	return experiment.NewPipelineFromSchedule(l.Code, s)
}

// hgpPipeline builds the hypergraph product of hgp.RandomLDPC(6,3,4)
// (construction seed 12) with itself, on the bare architecture.
func hgpPipeline(*css.Code) (*experiment.Pipeline, error) {
	c, err := hgp.RandomLDPC(6, 3, 4, rand.New(rand.NewSource(12)))
	if err != nil {
		return nil, err
	}
	code, err := hgp.Product(c, c, "hgp-6-3-4")
	if err != nil {
		return nil, err
	}
	return experiment.NewPipeline(code, fpn.Options{})
}

// pointConfig is sweep point i of a run seeded seed.
func (w *workload) pointConfig(pl *experiment.Pipeline, seed int64, i int) experiment.Config {
	cfg := w.base
	cfg.Code = pl.Code
	if w.canonical {
		// Carry the schedule so the fabric's wire rebuilds the canonical
		// circuit, not a greedy one.
		cfg.Schedule = pl.Sched
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = min(cfg.Code.DX, cfg.Code.DZ)
	}
	cfg.Shots = w.pointShots
	cfg.Seed = seedmix.Derive(seed, seedmix.String(w.name), uint64(i))
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

// tail is the p-dependent part of a point's stack, built from public
// constructors exactly as the engine builds it: circuit, detector error
// model, decoder (lifted to the 64-shot batch path except for BP+OSD).
type tail struct {
	circ  *circuit.Circuit
	dec   decoder.ScratchDecoder
	batch *decoder.Batch // nil on the scalar path
}

func buildTail(cfg experiment.Config, pl *experiment.Pipeline, l *lane) (*tail, error) {
	nm := &noise.Model{P: cfg.P, FixedIdle: cfg.FixedIdle}
	t0 := l.now()
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: pl.Plan, Basis: cfg.Basis, Rounds: cfg.Rounds, Noise: nm})
	if err != nil {
		return nil, err
	}
	t1 := l.add(layerSetup, "circuit.BuildMemory", t0)
	model, err := dem.Extract(c)
	if err != nil {
		return nil, err
	}
	t2 := l.add(layerSetup, "dem.Extract", t1)
	tl := &tail{circ: c}
	switch cfg.Decoder {
	case experiment.FlaggedMWPM, experiment.PlainMWPM:
		m, err := decoder.NewMWPM(model, cfg.Basis, nm.MeasFlip(), cfg.Decoder == experiment.FlaggedMWPM)
		if err != nil {
			return nil, err
		}
		tl.dec, tl.batch = m, decoder.NewBatch(m)
	case experiment.BPOSD:
		b, err := decoder.NewBPOSD(model, cfg.Basis, 30)
		if err != nil {
			return nil, err
		}
		tl.dec = b
	default:
		return nil, fmt.Errorf("decoder %s is not benchmarked", cfg.Decoder)
	}
	l.add(layerSetup, "decoder.New", t2)
	return tl, nil
}

// setupTimes is one set-up repeat, split by layer.
type setupTimes struct {
	pipeline, circuit, dem, decoder, sample time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.pipeline + s.circuit + s.dem + s.decoder + s.sample
}

// setUp builds the whole stack once — pipeline, circuit, DEM, decoder —
// and samples the first 64-shot block, timing each step. It returns the
// pipeline for the run to use.
func (w *workload) setUp(code *css.Code, seed int64) (*experiment.Pipeline, setupTimes, error) {
	var st setupTimes
	tr := newTracer("setup")
	l := tr.openLane(0)
	t0 := time.Now()
	pl, err := w.pipeline(code)
	if err != nil {
		return nil, st, err
	}
	st.pipeline = time.Since(t0)
	cfg := w.pointConfig(pl, seed, 0)
	tl, err := buildTail(cfg, pl, l)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	sim.NewBlockSampler(tl.circ, 1).Run(0, 64, cfg.Seed)
	st.sample = time.Since(t1)
	for _, s := range l.spans {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "circuit.BuildMemory":
			st.circuit = d
		case "dem.Extract":
			st.dem = d
		case "decoder.New":
			st.decoder = d
		}
	}
	return pl, st, nil
}
