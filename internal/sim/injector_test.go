package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
)

// Every out-of-range field of an injection must panic with a message
// naming the injection and the field, never drop the fault silently or
// die on a bare index error.
func TestInjectorRunPanicsOnBadInjection(t *testing.T) {
	c := memoryCircuit(t, steane(t), fpn.Options{}, css.Z, 2, nil)
	x := func(q int) []Pauli { return []Pauli{{Qubit: q, X: true}} }
	cases := []struct {
		name  string
		shots int
		inj   Injection
		want  string
	}{
		{"lane negative", 64, Injection{Lane: -1, Paulis: x(0)}, "Lane -1 outside [0, 64)"},
		{"lane past shots", 10, Injection{Lane: 10, Paulis: x(0)}, "Lane 10 outside [0, 10)"},
		{"op negative", 64, Injection{OpIndex: -1, Paulis: x(0)}, "OpIndex -1 outside"},
		{"op past end", 64, Injection{OpIndex: len(c.Ops), Paulis: x(0)}, fmt.Sprintf("OpIndex %d outside [0, %d)", len(c.Ops), len(c.Ops))},
		{"qubit negative", 64, Injection{Paulis: x(-1)}, "Qubit -1 outside"},
		{"qubit past end", 64, Injection{Paulis: x(c.NumQubits)}, fmt.Sprintf("Qubit %d outside [0, %d)", c.NumQubits, c.NumQubits)},
		{"flip negative", 64, Injection{IsMeasFlip: true, FlipMeas: -1}, "FlipMeas -1 outside"},
		{"flip past end", 64, Injection{IsMeasFlip: true, FlipMeas: c.NumMeas}, fmt.Sprintf("FlipMeas %d outside [0, %d)", c.NumMeas, c.NumMeas)},
		{"flip lane", 64, Injection{IsMeasFlip: true, Lane: 64}, "Lane 64 outside [0, 64)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			good := Injection{OpIndex: 0, Lane: 0, Paulis: x(0)}
			msg := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				NewInjector(c, 64).Run(tc.shots, []Injection{good, tc.inj})
				return ""
			}()
			if msg == "" {
				t.Fatal("no panic")
			}
			if !strings.Contains(msg, "injection 1 ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("panic %q does not name injection 1 and %q", msg, tc.want)
			}
		})
	}
	t.Run("shots past capacity", func(t *testing.T) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shots 65 outside [0, 64]") {
				t.Fatalf("panic %v, want the shot count named", r)
			}
		}()
		NewInjector(c, 64).Run(65, nil)
	})
}

// randomInjections draws n injections over random lanes of [0, shots):
// Paulis after random ops and measurement flips, in random order.
func randomInjections(rng *rand.Rand, nq, nOps, nMeas, shots, n int) []Injection {
	inj := make([]Injection, n)
	for i := range inj {
		lane := rng.Intn(shots)
		if rng.Intn(4) == 0 {
			inj[i] = Injection{Lane: lane, IsMeasFlip: true, FlipMeas: rng.Intn(nMeas)}
			continue
		}
		inj[i] = Injection{OpIndex: rng.Intn(nOps), Lane: lane, Paulis: []Pauli{
			{Qubit: rng.Intn(nq), X: rng.Intn(2) == 1, Z: rng.Intn(2) == 1},
			{Qubit: rng.Intn(nq), X: rng.Intn(2) == 1, Z: true},
		}}
	}
	return inj
}

// A reused injector must give the result of the old full-circuit run on
// a fresh simulator, whatever ran before it: a run that starts late
// (the earliest injected op deep in the circuit) after one that started
// early, a run of measurement flips alone, and a narrower run after a
// wider one.
func TestInjectorReuseMatchesReference(t *testing.T) {
	c := memoryCircuit(t, hyper55(t), fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, css.Z, 2, nil)
	rng := rand.New(rand.NewSource(21))
	reused := NewInjector(c, 130)
	for run := 0; run < 40; run++ {
		shots := 1 + rng.Intn(130)
		inj := randomInjections(rng, c.NumQubits, len(c.Ops), c.NumMeas, shots, rng.Intn(12))
		switch run % 4 {
		case 1: // late start: every Pauli in the final quarter of the circuit
			for i := range inj {
				inj[i].OpIndex = len(c.Ops) - 1 - inj[i].OpIndex%(len(c.Ops)/4)
			}
		case 2: // measurement flips only
			for i := range inj {
				inj[i].IsMeasFlip = true
				inj[i].FlipMeas = rng.Intn(c.NumMeas)
			}
		}
		got := reused.Run(shots, inj)
		if err := sameResult(got, refRunDeterministic(c, shots, inj)); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		assertCleanPastShots(t, got, fmt.Sprintf("run %d", run))
	}
}

// After the first run, Injector.Run allocates nothing: the extraction
// calls it once per 64 faults.
func TestInjectorSteadyStateZeroAlloc(t *testing.T) {
	c := memoryCircuit(t, steane(t), fpn.Options{}, css.Z, 3, nil)
	rng := rand.New(rand.NewSource(4))
	inj := randomInjections(rng, c.NumQubits, len(c.Ops), c.NumMeas, 64, 64)
	x := NewInjector(c, 64)
	x.Run(64, inj)
	if a := testing.AllocsPerRun(50, func() { x.Run(64, inj) }); a != 0 {
		t.Fatalf("Injector.Run allocates %.1f times per run, want 0", a)
	}
}
