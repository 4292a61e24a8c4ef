package experiment

import (
	"testing"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/fpn"
	"github.com/fpn/flagproxy/internal/noise"
	"github.com/fpn/flagproxy/internal/schedule"
	"github.com/fpn/flagproxy/internal/surface"
)

// The canonical rotated-surface-code ordering must be fault-tolerant:
// every single circuit fault decodes correctly, so deff = d.
func TestCanonicalRotatedIsFaultTolerant(t *testing.T) {
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureDeff(Config{
		Code:     l.Code,
		Basis:    css.Z,
		P:        1e-3,
		Seed:     1,
		Decoder:  FlaggedMWPM,
		Schedule: s,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("canonical d=3: %d faults, %d failures (%d ambiguous)",
		rep.Faults, rep.SingleFailures, rep.Ambiguous)
	if rep.DeffLowerBound != 3 {
		t.Fatalf("canonical schedule not fault tolerant: %d failures", rep.SingleFailures)
	}
	// The report must describe the canonical circuit, not the greedy
	// one MeasureDeff once built whatever Config.Schedule said.
	canonical := relevantFaults(t, s)
	greedy, err := schedule.Greedy(s.Net)
	if err != nil {
		t.Fatal(err)
	}
	if g := relevantFaults(t, greedy); rep.Faults != canonical || canonical == g {
		t.Fatalf("report has %d faults; the canonical circuit has %d and the greedy one %d", rep.Faults, canonical, g)
	}
}

// relevantFaults counts the Z-relevant single-fault events of the d=3
// memory circuit (3 rounds, p=1e-3) under schedule s, the set
// MeasureDeff tests exhaustively.
func relevantFaults(t *testing.T, s *schedule.Schedule) int {
	t.Helper()
	plan, err := schedule.BuildRoundPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	c, err := circuit.BuildMemory(circuit.MemorySpec{Plan: plan, Basis: css.Z, Rounds: 3, Noise: &noise.Model{P: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	model, err := dem.Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range model.Events {
		if eventRelevant(c, ev, css.Z) {
			n++
		}
	}
	return n
}

// Compare: the greedy schedule on the same code may or may not be
// fault-tolerant; record it (informational — the paper relies on
// structure-aware ordering for planar codes).
func TestGreedyRotatedDeffReport(t *testing.T) {
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureDeff(Config{
		Code:    l.Code,
		Arch:    fpn.Options{},
		Basis:   css.Z,
		P:       1e-3,
		Seed:    1,
		Decoder: FlaggedMWPM,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("greedy d=3: %d faults, %d failures (%d ambiguous), deff ≥ %d",
		rep.Faults, rep.SingleFailures, rep.Ambiguous, rep.DeffLowerBound)
}

func TestRunWithScheduleOverride(t *testing.T) {
	l, err := surface.Rotated(3)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := schedule.CanonicalRotated(l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Code:     l.Code,
		Basis:    css.Z,
		P:        1e-3,
		Shots:    500,
		Seed:     2,
		Decoder:  FlaggedMWPM,
		Schedule: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyNs != schedule.TheoreticalShortestNs(4) {
		t.Fatalf("latency %.0f, want the canonical 1050", res.LatencyNs)
	}
}
