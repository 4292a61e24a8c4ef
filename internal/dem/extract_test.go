package dem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/hgp"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// namedCircuit is one circuit of the extraction matrix.
type namedCircuit struct {
	name string
	c    *circuit.Circuit
}

// planSet holds the p-independent round plans of the extraction matrix.
type planSet struct {
	once                     sync.Once
	planar                   map[int]*schedule.RoundPlan
	hysc30, color666, hgp634 *schedule.RoundPlan
	err                      error
}

// matrixPlans is built once per test binary.
var matrixPlans planSet

func canonicalPlan(d int) (*schedule.RoundPlan, error) {
	l, err := surface.Rotated(d)
	if err != nil {
		return nil, err
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		return nil, err
	}
	return schedule.BuildRoundPlan(s)
}

func greedyPlan(code *css.Code, opt fpn.Options) (*schedule.RoundPlan, error) {
	net, err := fpn.Build(code, opt)
	if err != nil {
		return nil, err
	}
	s, err := schedule.Greedy(net)
	if err != nil {
		return nil, err
	}
	return schedule.BuildRoundPlan(s)
}

// hgpCode is the hypergraph product of hgp.RandomLDPC(6,3,4) with
// itself (construction seed 12), the code of the hgp-bposd workload.
func hgpCode() (*css.Code, error) {
	c, err := hgp.RandomLDPC(6, 3, 4, rand.New(rand.NewSource(12)))
	if err != nil {
		return nil, err
	}
	return hgp.Product(c, c, "hgp-6-3-4")
}

// plans builds (once) the round plans of the matrix: rotated planar
// d=3/5/7 under the canonical schedule, the [[30,8,3,3]] {5,5} code and
// the 6.6.6 color code on the flag-sharing FPN architecture, and the
// HGP code on the bare architecture, the last three greedily scheduled.
func plans(tb testing.TB) *planSet {
	tb.Helper()
	mp := &matrixPlans
	mp.once.Do(func() {
		flags := fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}
		mp.planar = map[int]*schedule.RoundPlan{}
		for _, d := range []int{3, 5, 7} {
			if mp.planar[d], mp.err = canonicalPlan(d); mp.err != nil {
				return
			}
		}
		if mp.hysc30, mp.err = greedyPlan(hyper55(tb), flags); mp.err != nil {
			return
		}
		var code *css.Code
		if code, mp.err = color.HexagonalToric(2); mp.err != nil {
			return
		}
		if mp.color666, mp.err = greedyPlan(code, flags); mp.err != nil {
			return
		}
		if code, mp.err = hgpCode(); mp.err != nil {
			return
		}
		mp.hgp634, mp.err = greedyPlan(code, fpn.Options{})
	})
	if mp.err != nil {
		tb.Fatal(mp.err)
	}
	return mp
}

func memory(tb testing.TB, plan *schedule.RoundPlan, basis css.Basis, rounds int, nm *noise.Model) *circuit.Circuit {
	tb.Helper()
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: basis, Rounds: rounds, Noise: nm})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// biasedPauli1 returns a copy of c whose idle channels have distinct
// X, Y and Z rates, so a mix-up between the three fault kinds shows.
func biasedPauli1(c *circuit.Circuit, p float64) *circuit.Circuit {
	out := *c
	out.Ops = append([]circuit.Op(nil), c.Ops...)
	for i := range out.Ops {
		if out.Ops[i].Kind == circuit.OpPauli1 {
			out.Ops[i].PX, out.Ops[i].PY, out.Ops[i].PZ = 0.2*p, 0.3*p, 0.5*p
		}
	}
	return &out
}

// matrixPs are the physical error rates of the extraction matrix.
var matrixPs = []float64{0, 1e-4, 1e-3, 1e-2}

// extractMatrix is every circuit the differential and the digest cover,
// for both memory bases and every p in matrixPs.
func extractMatrix(tb testing.TB) []namedCircuit {
	tb.Helper()
	mp := plans(tb)
	var out []namedCircuit
	add := func(name string, c *circuit.Circuit) { out = append(out, namedCircuit{name, c}) }
	for _, basis := range []css.Basis{css.Z, css.X} {
		for _, p := range matrixPs {
			tag := fmt.Sprintf("%c/p=%g", basis, p)
			nm := &noise.Model{P: p}
			for _, d := range []int{3, 5, 7} {
				add(fmt.Sprintf("planar-d%d/%s", d, tag), memory(tb, mp.planar[d], basis, d, nm))
			}
			add("planar-d3-fixedidle/"+tag, memory(tb, mp.planar[3], basis, 3, &noise.Model{P: p, FixedIdle: true}))
			add("planar-d3-biased-pauli1/"+tag, biasedPauli1(memory(tb, mp.planar[3], basis, 3, nm), p))
			add("hysc-30-flags/"+tag, memory(tb, mp.hysc30, basis, 3, nm))
			add("color-666-flags/"+tag, memory(tb, mp.color666, basis, 2, nm))
			add("hgp-6-3-4/"+tag, memory(tb, mp.hgp634, basis, 2, nm))
			for _, cc := range []struct {
				name string
				plan *schedule.RoundPlan
			}{{"planar-d5", mp.planar[5]}, {"hgp-6-3-4", mp.hgp634}} {
				c, err := circuit.BuildCodeCapacity(cc.plan, basis, p)
				if err != nil {
					tb.Fatal(err)
				}
				add(cc.name+"-codecap/"+tag, c)
			}
		}
	}
	return out
}

// sameExtraction requires Extract and the naive reference to agree on
// c: the same error, or the same events down to nil-versus-empty slices
// and every bit of every probability.
func sameExtraction(t *testing.T, name string, c *circuit.Circuit) {
	t.Helper()
	got, gotErr := Extract(c)
	want, wantErr := naiveExtract(c)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.Circuit != c {
		t.Fatalf("%s: model circuit is not the input circuit", name)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		if len(got.Events) != len(want.Events) {
			t.Fatalf("%s: %d events, want %d", name, len(got.Events), len(want.Events))
		}
		for i := range want.Events {
			if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
				t.Fatalf("%s: event %d = %+v, want %+v", name, i, got.Events[i], want.Events[i])
			}
		}
	}
}

// TestExtractMatchesNaiveReference holds the fast extraction to the
// naive reference over the whole matrix.
func TestExtractMatchesNaiveReference(t *testing.T) {
	for _, nc := range extractMatrix(t) {
		sameExtraction(t, nc.name, nc.c)
	}
}

// updateModels rewrites testdata/models.digest from the current
// extraction:
//
//	go test ./internal/dem -run TestExtractModelsDigest -update
//
// Only do this deliberately: the digest pins every event of every
// matrix model, and every decoder is built from those events.
var updateModels = flag.Bool("update", false, "rewrite testdata/models.digest")

var modelsPath = filepath.Join("testdata", "models.digest")

// modelDigest hashes a model's events in order: the three index lists,
// each length-prefixed, and the exact bits of P.
func modelDigest(h hash.Hash, m *Model) {
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { h.Write(buf[:binary.PutUvarint(buf[:], v)]) }
	put(uint64(len(m.Events)))
	for _, ev := range m.Events {
		for _, list := range [][]int{ev.Dets, ev.Flags, ev.Obs} {
			put(uint64(len(list)))
			for _, v := range list {
				put(uint64(v))
			}
		}
		put(math.Float64bits(ev.P))
	}
}

// modelsDigest renders one "circuit events digest" line per matrix
// circuit, followed by a digest of those lines.
func modelsDigest(t *testing.T) string {
	var sb strings.Builder
	for _, nc := range extractMatrix(t) {
		m, err := Extract(nc.c)
		if err != nil {
			fmt.Fprintf(&sb, "%s error %q\n", nc.name, err)
			continue
		}
		h := sha256.New()
		modelDigest(h, m)
		fmt.Fprintf(&sb, "%s %d %s\n", nc.name, len(m.Events), hex.EncodeToString(h.Sum(nil)))
	}
	sum := sha256.Sum256([]byte(sb.String()))
	fmt.Fprintf(&sb, "total %s\n", hex.EncodeToString(sum[:]))
	return sb.String()
}

// TestExtractModelsDigest pins every model of the matrix to the digest
// recorded before the fast extraction existed.
func TestExtractModelsDigest(t *testing.T) {
	got := modelsDigest(t)
	if *updateModels {
		if err := os.MkdirAll(filepath.Dir(modelsPath), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelsPath, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(modelsPath)
	if err != nil {
		t.Fatalf("%v (run TestExtractModelsDigest with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("extracted models drifted:\n--- got\n%s--- want\n%s", got, want)
	}
}

// fuzzRates are the probabilities a fuzzed noise channel may take.
var fuzzRates = []float64{0, 0, 1e-3, 0.01, 0.1, 0.25, 0.5}

// fuzzCircuit decodes data into a small random Clifford circuit: up to
// 6 qubits, up to 48 op layers of every kind with fuzzed rates, then a
// terminal measurement of every qubit and fuzzed detectors (some of
// them flags) and observables over the measurement record.
func fuzzCircuit(data []byte) *circuit.Circuit {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	rate := func() float64 { return fuzzRates[next()%len(fuzzRates)] }
	nq := 1 + next()%6
	c := &circuit.Circuit{NumQubits: nq}
	qubits := func() []int {
		var qs []int
		mask := next()
		for q := 0; q < nq; q++ {
			if mask>>q&1 == 1 {
				qs = append(qs, q)
			}
		}
		return qs
	}
	nOps := next() % 48
	for i := 0; i < nOps && len(data) > 0; i++ {
		kind := circuit.OpKind(next() % 9)
		op := circuit.Op{Kind: kind}
		switch kind {
		case circuit.OpCX, circuit.OpDepol2:
			if nq < 2 {
				continue
			}
			a := next() % nq
			b := (a + 1 + next()%(nq-1)) % nq
			op.Pairs = [][2]int{{a, b}}
			if nq >= 4 && next()%2 == 1 {
				op.Pairs = append(op.Pairs, [2]int{(a + 2) % nq, (a + 3) % nq})
				if op.Pairs[1][0] == b || op.Pairs[1][1] == b || op.Pairs[1][1] == a {
					op.Pairs = op.Pairs[:1]
				}
			}
			op.P = rate()
		case circuit.OpMR, circuit.OpM:
			op.Qubits = qubits()
			op.FlipProb = rate()
		case circuit.OpPauli1:
			op.Qubits = qubits()
			op.PX, op.PY, op.PZ = rate(), rate(), rate()
		default:
			op.Qubits = qubits()
			op.P = rate()
		}
		c.AddOp(op)
	}
	all := make([]int, nq)
	for q := range all {
		all[q] = q
	}
	c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: all, FlipProb: rate()})
	subset := func() []int {
		k := 1 + next()%3
		ms := make([]int, k)
		for i := range ms {
			ms[i] = next() % c.NumMeas
		}
		return ms
	}
	for nd := 1 + next()%24; nd > 0; nd-- {
		c.Detectors = append(c.Detectors, circuit.Detector{Meas: subset(), IsFlag: next()%4 == 0})
	}
	for no := next() % 3; no > 0; no-- {
		c.Observables = append(c.Observables, subset())
	}
	return c
}

// FuzzExtract holds Extract to the naive reference on small random
// Clifford circuits, including ones with more than 64 faults (several
// injection passes), measurement-flip-only passes and undetectable
// logical faults.
func FuzzExtract(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 32+8*i)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{5, 40, 7, 3, 1, 2, 7, 3, 1, 2, 7, 3, 1, 2, 7, 3, 1, 2, 7, 3, 1, 2, 3, 63, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameExtraction(t, "fuzz", fuzzCircuit(data))
	})
}
