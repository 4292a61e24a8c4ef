package dem

import (
	"math"
	"sort"

	"github.com/fpn/flagproxy/internal/css"
)

// ProjEvent is an event projected onto one syndrome basis for CSS
// decoding: Dets holds only detectors of that basis (flags are kept in
// full, since a flag conditions the interpretation of the syndrome).
type ProjEvent struct {
	Dets  []int
	Flags []int
	Obs   []int
	P     float64
}

// Project restricts the model's events to syndrome detectors of the
// given basis, merging events that become identical. Events whose
// projected syndrome is empty are kept when they carry flags: they form
// the empty-syndrome equivalence class, through which flag measurements
// catch propagation errors that are invisible to the parity checks
// (e.g. half-plaquette clusters on high-weight color checks).
func (m *Model) Project(basis css.Basis) []ProjEvent {
	merged := map[string]*ProjEvent{}
	for _, ev := range m.Events {
		var dets []int
		for _, d := range ev.Dets {
			if m.Circuit.Detectors[d].Basis == basis {
				dets = append(dets, d)
			}
		}
		if len(dets) == 0 && len(ev.Flags) == 0 {
			continue
		}
		key := string(footprintKey(nil, dets, ev.Flags, ev.Obs))
		if e, ok := merged[key]; ok {
			e.P = e.P*(1-ev.P) + ev.P*(1-e.P)
		} else {
			merged[key] = &ProjEvent{Dets: dets, Flags: ev.Flags, Obs: ev.Obs, P: ev.P}
		}
	}
	keys := make([]string, 0, len(merged))
	//fpnvet:orderless collect-then-sort: keys are sorted before emission
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ProjEvent, 0, len(keys))
	for _, k := range keys {
		out = append(out, *merged[k])
	}
	return out
}

// Class is an error equivalence class (§VI-B): all projected events that
// flip the same syndrome bits, differing in flags and/or Pauli frames.
type Class struct {
	Dets    []int
	Members []ProjEvent
}

// BuildClasses groups projected events by their syndrome footprint.
func BuildClasses(events []ProjEvent) []Class {
	index := map[string]int{}
	var classes []Class
	for _, ev := range events {
		key := string(footprintKey(nil, ev.Dets, nil, nil))
		ci, ok := index[key]
		if !ok {
			ci = len(classes)
			index[key] = ci
			classes = append(classes, Class{Dets: ev.Dets})
		}
		classes[ci].Members = append(classes[ci].Members, ev)
	}
	return classes
}

// Select returns the class member whose flag set is most similar to the
// observed flags F (minimizing |f(e) ⊕ F|, ties broken by higher
// probability) together with the achieved flag difference. A nil f is
// the empty flag set.
func (c *Class) Select(f *FlagSet) (ProjEvent, int) {
	best := -1
	bestDiff := 0
	for i, m := range c.Members {
		diff := flagDiff(m.Flags, f)
		if best < 0 || diff < bestDiff ||
			(diff == bestDiff && m.P > c.Members[best].P) {
			best = i
			bestDiff = diff
		}
	}
	return c.Members[best], bestDiff
}

// Representative selects the flag-conditioned member and returns it with
// its Equation 9 renormalized probability:
// π → pM^{|f⊕F|} · π^{|σ|−1} when |F| > 0. A nil f is the empty flag
// set.
func (c *Class) Representative(f *FlagSet, pM float64) (ProjEvent, float64) {
	rep, bestDiff := c.Select(f)
	p := rep.P
	if f.Len() > 0 {
		p = math.Pow(pM, float64(bestDiff))
		if len(c.Dets) >= 2 {
			p *= math.Pow(rep.P, float64(len(c.Dets)-1))
		} else {
			p *= rep.P
		}
	}
	return rep, p
}

// flagDiff computes |flags(e) ⊕ F|.
func flagDiff(eventFlags []int, f *FlagSet) int {
	inter := 0
	for _, fl := range eventFlags {
		if f.Has(fl) {
			inter++
		}
	}
	return len(eventFlags) + f.Len() - 2*inter
}
