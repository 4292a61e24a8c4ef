package sim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/fpn/flagproxy/internal/circuit"
)

// Pauli is a sparse Pauli operator used for deterministic injection.
type Pauli struct {
	Qubit int
	X, Z  bool
}

// Injection plants a Pauli error (or measurement flip) in a given lane
// immediately after op OpIndex executes.
type Injection struct {
	OpIndex int
	Lane    int
	Paulis  []Pauli
	// IsMeasFlip flips measurement record FlipMeas instead of injecting a
	// Pauli (used for misread faults). The flip is applied after the
	// whole circuit runs, so it cannot be clobbered by the measurement.
	IsMeasFlip bool
	FlipMeas   int
}

// Injector executes a circuit with every noise channel disabled and
// the given faults planted: the deterministic mode that drives the
// detector-error-model extraction in package dem. It owns one set of
// frame, measurement and result buffers, reused by every Run, and no
// RNG. Construct one per goroutine; an Injector is not safe for
// concurrent use.
type Injector struct {
	fs    *frameSim
	max   int
	res   Result
	order []int // indices of the Pauli injections, sorted by OpIndex
}

// NewInjector builds a reusable injector for the circuit with capacity
// for maxShots lanes per Run call.
func NewInjector(c *circuit.Circuit, maxShots int) *Injector {
	return &Injector{fs: newFrames(c, maxShots), max: maxShots}
}

// Run executes the circuit on shots lanes with the faults inj planted;
// lane l of the result reflects exactly the injections with Lane == l.
// A Pauli injection acts right after op OpIndex executes, a measurement
// flip after the whole circuit.
//
// Noiseless ops map zero frames to zero frames, so every frame and
// measurement row is zero until the earliest injected op: Run clears
// them and starts there, and a run holding only measurement flips
// executes no op at all. The result is the same as executing every op.
//
// The returned Result aliases the injector's buffers and is valid only
// until the next Run. Run panics, naming the offending injection, when
// shots exceeds the capacity or an injection's Lane, OpIndex, Qubit or
// FlipMeas is out of range.
func (in *Injector) Run(shots int, inj []Injection) *Result {
	in.check(shots, inj)
	fs := in.fs
	fs.clearFrames(shots)
	for m := range fs.meas {
		clear(fs.meas[m])
	}
	in.order = in.order[:0]
	for i := range inj {
		if !inj[i].IsMeasFlip {
			in.order = append(in.order, i)
		}
	}
	slices.SortFunc(in.order, func(a, b int) int { return cmp.Compare(inj[a].OpIndex, inj[b].OpIndex) })
	if len(in.order) > 0 {
		ops := fs.c.Ops
		next := 0
		for oi := inj[in.order[0]].OpIndex; oi < len(ops); oi++ {
			fs.apply(oi, ops[oi], false)
			for ; next < len(in.order) && inj[in.order[next]].OpIndex == oi; next++ {
				x := &inj[in.order[next]]
				for _, p := range x.Paulis {
					if p.X {
						setBit(fs.fx[p.Qubit], x.Lane)
					}
					if p.Z {
						setBit(fs.fz[p.Qubit], x.Lane)
					}
				}
			}
		}
	}
	for i := range inj {
		if inj[i].IsMeasFlip {
			setBit(fs.meas[inj[i].FlipMeas], inj[i].Lane)
		}
	}
	fs.resultInto(&in.res)
	return &in.res
}

// check panics, in the manner of DetectorBit, on a shot count beyond
// the capacity or an injection that would plant outside the circuit:
// each would otherwise be dropped silently or end in a bare index
// panic.
func (in *Injector) check(shots int, inj []Injection) {
	if shots < 0 || shots > in.max {
		panic(fmt.Sprintf("sim: Injector.Run: shots %d outside [0, %d]", shots, in.max))
	}
	c := in.fs.c
	for i, x := range inj {
		bad := ""
		switch {
		case uint(x.Lane) >= uint(shots):
			bad = fmt.Sprintf("Lane %d outside [0, %d)", x.Lane, shots)
		case x.IsMeasFlip:
			if uint(x.FlipMeas) >= uint(c.NumMeas) {
				bad = fmt.Sprintf("FlipMeas %d outside [0, %d)", x.FlipMeas, c.NumMeas)
			}
		case uint(x.OpIndex) >= uint(len(c.Ops)):
			bad = fmt.Sprintf("OpIndex %d outside [0, %d)", x.OpIndex, len(c.Ops))
		default:
			for _, p := range x.Paulis {
				if uint(p.Qubit) >= uint(c.NumQubits) {
					bad = fmt.Sprintf("Qubit %d outside [0, %d)", p.Qubit, c.NumQubits)
					break
				}
			}
		}
		if bad != "" {
			panic(fmt.Sprintf("sim: Injector.Run: injection %d %+v: %s", i, x, bad))
		}
	}
}
