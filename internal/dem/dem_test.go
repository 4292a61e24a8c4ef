package dem

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/color"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/surface"
	"github.com/fpn/flagproxy/internal/tiling"
)

func hyper55(t testing.TB) *css.Code {
	t.Helper()
	g, err := group.Alt(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range group.FindRSPairs(g, 5, 5, rng, 3000, 5, 60) {
		if p.Sub.Order() != 60 {
			continue
		}
		m, err := tiling.FromGroupPair(p)
		if err != nil || !m.NonDegenerate() {
			continue
		}
		code, err := surface.FromMap(m, "hysc-30", "test")
		if err == nil {
			return code
		}
	}
	t.Fatal("no code")
	return nil
}

func memCircuit(t *testing.T, code *css.Code, opt fpn.Options, rounds int, p float64) *circuit.Circuit {
	t.Helper()
	plan, err := greedyPlan(code, opt)
	if err != nil {
		t.Fatal(err)
	}
	return memory(t, plan, css.Z, rounds, &noise.Model{P: p})
}

func TestExtractTinyCircuit(t *testing.T) {
	// One qubit, one measurement error source.
	c := &circuit.Circuit{NumQubits: 1}
	c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{0}, FlipProb: 0.01})
	c.Detectors = append(c.Detectors, circuit.Detector{Meas: []int{0}})
	m, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(m.Events))
	}
	ev := m.Events[0]
	if len(ev.Dets) != 1 || ev.Dets[0] != 0 || math.Abs(ev.P-0.01) > 1e-12 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestExtractMergesIdenticalFootprints(t *testing.T) {
	// Two X-error channels on the same qubit before a measurement merge
	// into one event with p = p1(1-p2)+p2(1-p1).
	c := &circuit.Circuit{NumQubits: 1}
	c.AddOp(circuit.Op{Kind: circuit.OpXFlip, Qubits: []int{0}, P: 0.1})
	c.AddOp(circuit.Op{Kind: circuit.OpXFlip, Qubits: []int{0}, P: 0.2})
	c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{0}})
	c.Detectors = append(c.Detectors, circuit.Detector{Meas: []int{0}})
	m, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(m.Events))
	}
	want := 0.1*0.8 + 0.2*0.9
	if math.Abs(m.Events[0].P-want) > 1e-12 {
		t.Fatalf("P = %g, want %g", m.Events[0].P, want)
	}
}

func TestExtractRejectsUndetectableLogical(t *testing.T) {
	// An X error that flips only an observable (no detector) must error.
	c := &circuit.Circuit{NumQubits: 1}
	c.AddOp(circuit.Op{Kind: circuit.OpXFlip, Qubits: []int{0}, P: 0.1})
	c.AddOp(circuit.Op{Kind: circuit.OpM, Qubits: []int{0}})
	c.Observables = append(c.Observables, []int{0})
	if _, err := Extract(c); err == nil {
		t.Fatal("expected undetectable-logical error")
	}
}

func TestExtractFullMemoryModel(t *testing.T) {
	code := hyper55(t)
	c := memCircuit(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, 3, 1e-3)
	m, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Events) < 500 {
		t.Fatalf("suspiciously few events: %d", len(m.Events))
	}
	flagged := 0
	for _, ev := range m.Events {
		if len(ev.Flags) > 0 {
			flagged++
		}
		if ev.P <= 0 || ev.P >= 0.5 {
			t.Fatalf("event probability %g out of range", ev.P)
		}
	}
	if flagged == 0 {
		t.Fatal("no flagged events in an FPN circuit")
	}
	t.Logf("%d events, %d flagged", len(m.Events), flagged)
}

func TestProjectSplitsBases(t *testing.T) {
	code := hyper55(t)
	c := memCircuit(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, 3, 1e-3)
	m, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	zev := m.Project(css.Z)
	xev := m.Project(css.X)
	if len(zev) == 0 || len(xev) == 0 {
		t.Fatal("projection lost all events")
	}
	for _, ev := range zev {
		for _, d := range ev.Dets {
			if m.Circuit.Detectors[d].Basis != css.Z {
				t.Fatal("Z projection contains X detector")
			}
		}
	}
}

// flagSetOf builds a FlagSet holding the given ids, for test brevity.
func flagSetOf(ids ...int) *FlagSet {
	s := &FlagSet{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func TestEquivalenceClassRepresentative(t *testing.T) {
	cl := Class{
		Dets: []int{1, 2},
		Members: []ProjEvent{
			{Dets: []int{1, 2}, Flags: nil, Obs: nil, P: 0.01},
			{Dets: []int{1, 2}, Flags: []int{7}, Obs: []int{0}, P: 0.002},
		},
	}
	// No flags observed: flagless member wins.
	rep, p := cl.Representative(nil, 1e-3)
	if len(rep.Flags) != 0 || p != 0.01 {
		t.Fatalf("rep = %+v p=%g", rep, p)
	}
	// Flag 7 observed: flagged member wins, probability renormalized.
	rep, p = cl.Representative(flagSetOf(7), 1e-3)
	if len(rep.Flags) != 1 || rep.Obs[0] != 0 {
		t.Fatalf("rep = %+v", rep)
	}
	// Eq 9 with perfect flag match: p = pM^0 * π^(|σ|-1) = 0.002.
	if math.Abs(p-0.002) > 1e-12 {
		t.Fatalf("renormalized p = %g, want 0.002", p)
	}
	// Unrelated flag observed: flagless member wins with pM^1 factor.
	rep, p = cl.Representative(flagSetOf(9), 1e-3)
	if len(rep.Flags) != 0 {
		t.Fatalf("rep = %+v", rep)
	}
	want := 1e-3 * 0.01
	if math.Abs(p-want) > 1e-15 {
		t.Fatalf("p = %g, want %g", p, want)
	}
}

func TestFlagDiff(t *testing.T) {
	f := flagSetOf(1, 2)
	if d := flagDiff([]int{1}, f); d != 1 {
		t.Fatalf("diff = %d, want 1", d)
	}
	if d := flagDiff([]int{1, 2}, f); d != 0 {
		t.Fatalf("diff = %d, want 0", d)
	}
	if d := flagDiff([]int{3}, f); d != 3 {
		t.Fatalf("diff = %d, want 3", d)
	}
}

// The paper's §VI-F2 observation: circuit noise on color codes produces
// single-fault events that flip two same-color plaquettes — the events
// Chromobius cannot decode.
func TestChromobiusKillerEventsExist(t *testing.T) {
	code, err := color.HexagonalToric(2)
	if err != nil {
		t.Fatal(err)
	}
	c := memCircuit(t, code, fpn.Options{UseFlags: true, FlagSharing: true, MaxDegree: 4}, 3, 1e-3)
	m, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range m.Events {
		colorCount := map[int]int{}
		for _, d := range ev.Dets {
			det := m.Circuit.Detectors[d]
			if det.Basis == css.Z && det.Round == 1 {
				colorCount[det.Color]++
			}
		}
		for _, cnt := range colorCount {
			if cnt >= 2 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no same-color double-plaquette events found")
	}
}
