package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

// updateStream rewrites testdata/stream.digest from the current
// sampler:
//
//	go test ./internal/sim -run TestBlockSamplerStreamDigest -update
//
// Only do this deliberately, next to an EngineVersion bump: the digest
// pins every bit BlockSampler draws, so a drift means checkpoints and
// fingerprints of earlier sweeps no longer describe the same shots.
var updateStream = flag.Bool("update", false, "rewrite testdata/stream.digest")

var streamPath = filepath.Join("testdata", "stream.digest")

// streamPasses are the BlockSampler passes each digest line hashes: two
// full 16-block passes on reused buffers, a pass ending in a partial
// tail word, and a single block deep in the stream.
var streamPasses = []struct{ blocks, first, shots int }{
	{16, 0, 16 * 64},
	{16, 16, 16 * 64},
	{16, 32, 15*64 + 37},
	{1, 1 << 20, 64},
}

// passDigest hashes every word a pass produced: detector, observable
// and measurement rows, in order, up to the pass's active words.
func passDigest(h hash.Hash, r *Result) {
	var buf [8]byte
	for _, rows := range [][][]uint64{r.Detectors, r.Observables, r.MeasFlips} {
		for _, row := range rows {
			for _, w := range row[:r.Words] {
				binary.LittleEndian.PutUint64(buf[:], w)
				h.Write(buf[:])
			}
		}
	}
}

// streamDigest renders one "circuit p digest" line per (circuit, p),
// followed by a digest of those lines.
func streamDigest(t *testing.T) string {
	circuits := []struct {
		name  string
		build func(p float64) *circuit.Circuit
	}{
		{"synth", synthCircuit},
		{"steane-flags", func(p float64) *circuit.Circuit {
			return memoryCircuitWithNoise(t, steane(t), fpn.Options{UseFlags: true}, css.Z, 3, p)
		}},
		{"planar-d3", func(p float64) *circuit.Circuit { return planarCircuit(t, 3, p) }},
		{"planar-d5", func(p float64) *circuit.Circuit { return planarCircuit(t, 5, p) }},
	}
	var sb strings.Builder
	for _, c := range circuits {
		for _, p := range []float64{1e-4, 1e-3, 1e-2, 0.1} {
			circ := c.build(p)
			h := sha256.New()
			for _, pass := range streamPasses {
				passDigest(h, NewBlockSampler(circ, pass.blocks).Run(pass.first, pass.shots, 2024))
			}
			fmt.Fprintf(&sb, "%s p=%g %s\n", c.name, p, hex.EncodeToString(h.Sum(nil)))
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	fmt.Fprintf(&sb, "total %s\n", hex.EncodeToString(sum[:]))
	return sb.String()
}

// TestBlockSamplerStreamDigest pins the sampled bits of BlockSampler
// per (circuit, p): a faster scan must reproduce every one of them.
func TestBlockSamplerStreamDigest(t *testing.T) {
	got := streamDigest(t)
	if *updateStream {
		if err := os.MkdirAll(filepath.Dir(streamPath), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamPath, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatalf("%v (run TestBlockSamplerStreamDigest with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("sampler stream drifted:\n--- got\n%s--- want\n%s", got, want)
	}
}
