package dem

// Naive reference extraction: naiveExtract is Extract as it was before
// the reusable injector and the word-parallel footprint scan, kept
// verbatim apart from its name and the simulator it calls.
// naiveRunDeterministic is that era's sim.RunDeterministic restricted to
// what deterministic injection uses: fresh frames per pass, every op
// from the first, a per-lane detector read. The differential tests,
// testdata/models.digest and FuzzExtract hold the fast Extract to these
// bit for bit.

import (
	"fmt"
	"sort"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/sim"
)

// naiveFault is the old fault record: one Injection per fault.
type naiveFault struct {
	inj sim.Injection
	p   float64
}

func naiveExtract(c *circuit.Circuit) (*Model, error) {
	var faults []naiveFault
	measBase := 0
	for oi, op := range c.Ops {
		switch op.Kind {
		case circuit.OpPauli1:
			for _, q := range op.Qubits {
				if op.PX > 0 {
					faults = append(faults, naiveFault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, X: true}}}, op.PX})
				}
				if op.PY > 0 {
					faults = append(faults, naiveFault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, X: true, Z: true}}}, op.PY})
				}
				if op.PZ > 0 {
					faults = append(faults, naiveFault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, Z: true}}}, op.PZ})
				}
			}
		case circuit.OpDepol1:
			if op.P > 0 {
				for _, q := range op.Qubits {
					for idx := 1; idx <= 3; idx++ {
						faults = append(faults, naiveFault{sim.Injection{OpIndex: oi, Paulis: naivePauliFromIndex(q, idx)}, op.P / 3})
					}
				}
			}
		case circuit.OpDepol2:
			if op.P > 0 {
				for _, pr := range op.Pairs {
					for k := 1; k <= 15; k++ {
						var ps []sim.Pauli
						ps = append(ps, naivePauliFromIndex(pr[0], k/4)...)
						ps = append(ps, naivePauliFromIndex(pr[1], k%4)...)
						faults = append(faults, naiveFault{sim.Injection{OpIndex: oi, Paulis: ps}, op.P / 15})
					}
				}
			}
		case circuit.OpXFlip:
			if op.P > 0 {
				for _, q := range op.Qubits {
					faults = append(faults, naiveFault{sim.Injection{OpIndex: oi, Paulis: []sim.Pauli{{Qubit: q, X: true}}}, op.P})
				}
			}
		case circuit.OpMR, circuit.OpM:
			if op.FlipProb > 0 {
				for i := range op.Qubits {
					faults = append(faults, naiveFault{sim.Injection{IsMeasFlip: true, FlipMeas: measBase + i}, op.FlipProb})
				}
			}
		}
		if op.Kind == circuit.OpMR || op.Kind == circuit.OpM {
			measBase += len(op.Qubits)
		}
	}
	merged := map[string]*Event{}
	for start := 0; start < len(faults); start += 64 {
		end := start + 64
		if end > len(faults) {
			end = len(faults)
		}
		batch := faults[start:end]
		inj := make([]sim.Injection, len(batch))
		for i, f := range batch {
			inj[i] = f.inj
			inj[i].Lane = i
		}
		res := naiveRunDeterministic(c, len(batch), inj)
		for i, f := range batch {
			var dets, flags, obs []int
			for d := range c.Detectors {
				if res.DetectorBit(d, i) {
					if c.Detectors[d].IsFlag {
						flags = append(flags, d)
					} else {
						dets = append(dets, d)
					}
				}
			}
			for o := range c.Observables {
				if res.ObservableBit(o, i) {
					obs = append(obs, o)
				}
			}
			if len(dets) == 0 && len(flags) == 0 {
				if len(obs) > 0 {
					return nil, fmt.Errorf("dem: undetectable fault flips an observable (distance 1 circuit)")
				}
				continue
			}
			key := naiveFootprintKey(dets, flags, obs)
			if ev, ok := merged[key]; ok {
				ev.P = ev.P*(1-f.p) + f.p*(1-ev.P)
			} else {
				merged[key] = &Event{Dets: dets, Flags: flags, Obs: obs, P: f.p}
			}
		}
	}
	m := &Model{Circuit: c}
	keys := make([]string, 0, len(merged))
	//fpnvet:orderless collect-then-sort: keys are sorted before emission
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.Events = append(m.Events, *merged[k])
	}
	return m, nil
}

func naivePauliFromIndex(q, idx int) []sim.Pauli {
	switch idx {
	case 1:
		return []sim.Pauli{{Qubit: q, X: true}}
	case 2:
		return []sim.Pauli{{Qubit: q, X: true, Z: true}}
	case 3:
		return []sim.Pauli{{Qubit: q, Z: true}}
	}
	return nil
}

func naiveFootprintKey(dets, flags, obs []int) string {
	b := make([]byte, 0, 4*(len(dets)+len(flags)+len(obs))+3)
	for _, d := range dets {
		b = naiveAppendInt(b, d)
	}
	b = append(b, '|')
	for _, f := range flags {
		b = naiveAppendInt(b, f)
	}
	b = append(b, '|')
	for _, o := range obs {
		b = naiveAppendInt(b, o)
	}
	return string(b)
}

func naiveAppendInt(b []byte, v int) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// naiveRunDeterministic is the old noiseless injection run: it allocates
// fresh frames, executes every op of the circuit, plants each Pauli
// injection right after its op and each measurement flip after the
// whole circuit, and folds the measurement rows into detector and
// observable rows.
func naiveRunDeterministic(c *circuit.Circuit, shots int, inj []sim.Injection) *sim.Result {
	words := (shots + 63) / 64
	newRows := func(n int) [][]uint64 {
		rows := make([][]uint64, n)
		for i := range rows {
			rows[i] = make([]uint64, words)
		}
		return rows
	}
	fx, fz, meas := newRows(c.NumQubits), newRows(c.NumQubits), newRows(c.NumMeas)
	setBit := func(row []uint64, lane int) { row[lane/64] ^= 1 << (uint(lane) % 64) }
	byOp := map[int][]sim.Injection{}
	var measFlips []sim.Injection
	for _, in := range inj {
		if in.IsMeasFlip {
			measFlips = append(measFlips, in)
			continue
		}
		byOp[in.OpIndex] = append(byOp[in.OpIndex], in)
	}
	mBase := 0
	for oi, op := range c.Ops {
		switch op.Kind {
		case circuit.OpCX:
			for _, p := range op.Pairs {
				ct, tg := p[0], p[1]
				for w := 0; w < words; w++ {
					fx[tg][w] ^= fx[ct][w]
					fz[ct][w] ^= fz[tg][w]
				}
			}
		case circuit.OpH:
			for _, q := range op.Qubits {
				fx[q], fz[q] = fz[q], fx[q]
			}
		case circuit.OpReset:
			for _, q := range op.Qubits {
				for w := 0; w < words; w++ {
					fx[q][w] = 0
					fz[q][w] = 0
				}
			}
		case circuit.OpMR, circuit.OpM:
			for i, q := range op.Qubits {
				copy(meas[mBase+i], fx[q])
				for w := 0; w < words; w++ {
					if op.Kind == circuit.OpMR {
						fx[q][w] = 0
					}
					fz[q][w] = 0
				}
			}
			mBase += len(op.Qubits)
		}
		for _, in := range byOp[oi] {
			for _, p := range in.Paulis {
				if p.X {
					setBit(fx[p.Qubit], in.Lane)
				}
				if p.Z {
					setBit(fz[p.Qubit], in.Lane)
				}
			}
		}
	}
	for _, in := range measFlips {
		setBit(meas[in.FlipMeas], in.Lane)
	}
	fold := func(sets [][]int) [][]uint64 {
		rows := newRows(len(sets))
		for i, ms := range sets {
			for _, m := range ms {
				for w := range rows[i] {
					rows[i][w] ^= meas[m][w]
				}
			}
		}
		return rows
	}
	detMeas := make([][]int, len(c.Detectors))
	for d, det := range c.Detectors {
		detMeas[d] = det.Meas
	}
	return &sim.Result{Shots: shots, Words: words, Detectors: fold(detMeas), Observables: fold(c.Observables), MeasFlips: meas}
}
