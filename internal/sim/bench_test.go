package sim

import (
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// planarCircuit builds the rotated planar memory circuit of distance d
// under the canonical schedule, d rounds, Z basis, with the standard
// noise model at physical rate p.
func planarCircuit(tb testing.TB, d int, p float64) *circuit.Circuit {
	tb.Helper()
	l, err := surface.Rotated(d)
	if err != nil {
		tb.Fatal(err)
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: css.Z, Rounds: d, Noise: &noise.Model{P: p}})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

var benchSink *Result

// BenchmarkBlockSampler measures BlockSampler.Run on the planar d=7
// memory circuit at p=1e-3 in 16-block passes, the engine's default
// shard. Every pass samples fresh blocks.
func BenchmarkBlockSampler(b *testing.B) {
	const blocks = 16
	c := planarCircuit(b, 7, 1e-3)
	s := NewBlockSampler(c, blocks)
	s.Run(0, blocks*64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = s.Run(i*blocks, blocks*64, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks*64), "ns/shot")
}
