// Package dem extracts the decoding hypergraph (detector error model)
// of a noisy circuit: every elementary fault is injected into the
// deterministic frame simulator (one sim.Injector per extraction, 64
// faults per pass, one per lane) and its detector/observable footprint,
// read word-parallel from the pass's result rows, recorded as a
// hyperedge with syndrome bits σ(e), flag bits f(e), Pauli-frame effects
// λ(e) and probability π(e) — the structure of §VI-A. Faults with the
// same footprint merge into one hyperedge.
// It also implements the paper's error equivalence classes (§VI-B):
// events are grouped by σ(e), and a flag-conditioned representative is
// selected per class with the Equation 9 renormalization.
package dem

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/sim"
)

// Event is one hyperedge of the decoding hypergraph.
type Event struct {
	Dets  []int // sorted syndrome-detector indices (non-flag)
	Flags []int // sorted flag-detector indices
	Obs   []int // sorted observable indices flipped
	P     float64
}

// Model is the full decoding hypergraph of a circuit.
type Model struct {
	Circuit *circuit.Circuit
	Events  []Event
}

// passFaults is the number of faults injected per simulator pass: one
// per lane of a 64-lane frame word.
const passFaults = 64

// fault is one elementary error mechanism in compact form: a Pauli on
// up to two qubits planted right after op op, or, when meas >= 0, a
// misread of measurement meas.
type fault struct {
	p     float64
	op    int32
	meas  int32    // measurement flipped; -1 for a Pauli fault
	q     [2]int32 // qubits the Pauli acts on
	pauli [2]uint8 // Pauli index per qubit: 0 = I, 1 = X, 2 = Y, 3 = Z
}

func pauliFault(op, q, idx int, p float64) fault {
	return fault{p: p, op: int32(op), meas: -1, q: [2]int32{int32(q)}, pauli: [2]uint8{uint8(idx)}}
}

// Extract enumerates every fault site of the circuit's noise channels,
// propagates each through the deterministic frame simulator (64 faults
// per pass, one per lane, on one reused sim.Injector), and merges
// identical footprints. A pass reads each detector and observable row
// as one 64-lane word and scatters its set bits into the lanes'
// footprint lists; visiting rows in ascending order keeps every list
// sorted.
func Extract(c *circuit.Circuit) (*Model, error) {
	x := &extractor{c: c, inj: sim.NewInjector(c, passFaults), merged: map[string]int{}}
	measBase := 0
	for oi, op := range c.Ops {
		switch op.Kind {
		case circuit.OpPauli1:
			for _, q := range op.Qubits {
				if op.PX > 0 {
					x.add(pauliFault(oi, q, 1, op.PX))
				}
				if op.PY > 0 {
					x.add(pauliFault(oi, q, 2, op.PY))
				}
				if op.PZ > 0 {
					x.add(pauliFault(oi, q, 3, op.PZ))
				}
			}
		case circuit.OpDepol1:
			if op.P > 0 {
				for _, q := range op.Qubits {
					for idx := 1; idx <= 3; idx++ {
						x.add(pauliFault(oi, q, idx, op.P/3))
					}
				}
			}
		case circuit.OpDepol2:
			if op.P > 0 {
				for _, pr := range op.Pairs {
					for k := 1; k <= 15; k++ {
						x.add(fault{p: op.P / 15, op: int32(oi), meas: -1,
							q: [2]int32{int32(pr[0]), int32(pr[1])}, pauli: [2]uint8{uint8(k / 4), uint8(k % 4)}})
					}
				}
			}
		case circuit.OpXFlip:
			if op.P > 0 {
				for _, q := range op.Qubits {
					x.add(pauliFault(oi, q, 1, op.P))
				}
			}
		case circuit.OpMR, circuit.OpM:
			if op.FlipProb > 0 {
				for i := range op.Qubits {
					x.add(fault{p: op.FlipProb, op: int32(oi), meas: int32(measBase + i)})
				}
			}
		}
		if op.Kind == circuit.OpMR || op.Kind == circuit.OpM {
			measBase += len(op.Qubits)
		}
	}
	x.flush()
	if x.err != nil {
		return nil, x.err
	}
	sort.Sort(byKey{x.keys, x.events})
	return &Model{Circuit: c, Events: x.events}, nil
}

// extractor is the state of one Extract call: the injector, the pass
// being filled, the per-lane footprint lists and the merge table, all
// reused from pass to pass.
type extractor struct {
	c     *circuit.Circuit
	inj   *sim.Injector
	batch [passFaults]fault // the pass being filled: batch[:n]
	n     int
	// lanes and paulis hold the pass's injections; every Paulis slice
	// points into paulis (at most two entries per fault).
	lanes  [passFaults]sim.Injection
	paulis [2 * passFaults]sim.Pauli
	// dets, flags and obs are the footprint lists of each lane.
	dets, flags, obs [passFaults][]int
	key              []byte
	merged           map[string]int // footprint key → index into events
	keys             []string       // keys[i] is the footprint key of events[i]
	events           []Event
	err              error
}

// add queues a fault, running the pass once it holds passFaults.
func (x *extractor) add(f fault) {
	x.batch[x.n] = f
	x.n++
	if x.n == passFaults {
		x.flush()
	}
}

// flush injects the queued faults, one per lane, and merges their
// footprints. After the first undetectable logical fault it only
// discards passes: Extract reports that error and nothing else.
func (x *extractor) flush() {
	n := x.n
	x.n = 0
	if n == 0 || x.err != nil {
		return
	}
	batch := x.batch[:n]
	ps := x.paulis[:0]
	for l, f := range batch {
		if f.meas >= 0 {
			x.lanes[l] = sim.Injection{Lane: l, IsMeasFlip: true, FlipMeas: int(f.meas)}
			continue
		}
		start := len(ps)
		for k, idx := range f.pauli {
			if idx != 0 {
				ps = append(ps, sim.Pauli{Qubit: int(f.q[k]), X: idx != 3, Z: idx != 1})
			}
		}
		x.lanes[l] = sim.Injection{OpIndex: int(f.op), Lane: l, Paulis: ps[start:len(ps):len(ps)]}
	}
	res := x.inj.Run(n, x.lanes[:n])
	for l := 0; l < n; l++ {
		x.dets[l], x.flags[l], x.obs[l] = x.dets[l][:0], x.flags[l][:0], x.obs[l][:0]
	}
	for d := range x.c.Detectors {
		lists := &x.dets
		if x.c.Detectors[d].IsFlag {
			lists = &x.flags
		}
		for w := res.DetectorWord(d, 0); w != 0; w &= w - 1 {
			l := bits.TrailingZeros64(w)
			lists[l] = append(lists[l], d)
		}
	}
	for o := range x.c.Observables {
		for w := res.ObservableWord(o, 0); w != 0; w &= w - 1 {
			l := bits.TrailingZeros64(w)
			x.obs[l] = append(x.obs[l], o)
		}
	}
	for l, f := range batch {
		dets, flags, obs := x.dets[l], x.flags[l], x.obs[l]
		if len(dets) == 0 && len(flags) == 0 {
			if len(obs) > 0 {
				x.err = fmt.Errorf("dem: undetectable fault flips an observable (distance 1 circuit)")
				return
			}
			continue
		}
		x.key = footprintKey(x.key[:0], dets, flags, obs)
		if i, ok := x.merged[string(x.key)]; ok {
			ev := &x.events[i]
			ev.P = ev.P*(1-f.p) + f.p*(1-ev.P)
			continue
		}
		k := string(x.key)
		x.merged[k] = len(x.events)
		x.keys = append(x.keys, k)
		x.events = append(x.events, Event{Dets: cloneInts(dets), Flags: cloneInts(flags), Obs: cloneInts(obs), P: f.p})
	}
}

// cloneInts copies s, keeping an empty list nil.
func cloneInts(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	return append([]int(nil), s...)
}

// byKey sorts events by their footprint keys.
type byKey struct {
	keys   []string
	events []Event
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.events[i], b.events[j] = b.events[j], b.events[i]
}

// footprintKey appends the merge key of a footprint to b: each index as
// 4 little-endian bytes, the three lists separated by '|'. Events are
// emitted in the byte order of these keys.
func footprintKey(b []byte, dets, flags, obs []int) []byte {
	for _, d := range dets {
		b = appendInt(b, d)
	}
	b = append(b, '|')
	for _, f := range flags {
		b = appendInt(b, f)
	}
	b = append(b, '|')
	for _, o := range obs {
		b = appendInt(b, o)
	}
	return b
}

func appendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
