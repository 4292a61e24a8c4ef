package dem

import (
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/noise"
)

var benchModel *Model

// BenchmarkExtract measures one whole Extract, the per-point DEM
// rebuild, on the circuits of the three local benchmark workloads at
// p=1e-3, Z basis: rotated planar d=7 under the canonical schedule (7
// rounds), the HGP(RandomLDPC(6,3,4)) code on the bare architecture (2
// rounds), and the [[30,8,3,3]] {5,5} code on the flag-sharing FPN
// architecture (3 rounds).
func BenchmarkExtract(b *testing.B) {
	mp := plans(b)
	nm := &noise.Model{P: 1e-3}
	for _, bc := range []namedCircuit{
		{"planar-d7", memory(b, mp.planar[7], css.Z, 7, nm)},
		{"hgp-bposd", memory(b, mp.hgp634, css.Z, 2, nm)},
		{"flagged-30", memory(b, mp.hysc30, css.Z, 3, nm)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := Extract(bc.c)
				if err != nil {
					b.Fatal(err)
				}
				benchModel = m
			}
		})
	}
}
