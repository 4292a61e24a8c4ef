package surface

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fpn/flagproxy/internal/group"
	"github.com/fpn/flagproxy/internal/tiling"
)

// diffMaxDarts bounds the regular maps in the differential test so the
// all-functionals reference stays within a second or two.
const diffMaxDarts = 480

// checkCycleAgainstRef compares the pruned and reference searches on a
// map and on its dual.
func checkCycleAgainstRef(t *testing.T, name string, m *tiling.Map) {
	t.Helper()
	for _, side := range []struct {
		label string
		m     *tiling.Map
	}{{"primal", m}, {"dual", m.Dual()}} {
		got := ShortestNontrivialCycle(side.m)
		want := refShortestNontrivialCycle(side.m)
		if got != want {
			t.Fatalf("%s %s (V=%d E=%d F=%d): pruned = %d, reference = %d",
				name, side.label, side.m.V(), side.m.E(), side.m.F(), got, want)
		}
	}
}

// TestShortestNontrivialCycleMatchesReference runs the differential on
// regular maps from (2,r,s) pairs in the group menu, for the catalogue's
// surface subfamilies plus {3,7}.
func TestShortestNontrivialCycleMatchesReference(t *testing.T) {
	checked := 0
	for _, rs := range [][2]int{{4, 5}, {4, 6}, {5, 5}, {5, 6}, {3, 7}} {
		r, s := rs[0], rs[1]
		rng := rand.New(rand.NewSource(int64(10*r + s)))
		maps := 0
		for _, entry := range group.Menu() {
			if maps >= 4 {
				break
			}
			g, err := entry.Build()
			if err != nil || g.Order() > 2*diffMaxDarts {
				continue
			}
			for _, p := range group.FindRSPairs(g, s, r, rng, 200, 3, diffMaxDarts) {
				m, err := tiling.FromGroupPair(p)
				if err != nil || !m.IsEquivelar(r, s) {
					continue
				}
				checkCycleAgainstRef(t, fmt.Sprintf("{%d,%d} %s |H|=%d", r, s, g.Name, p.Sub.Order()), m)
				maps++
				checked++
			}
		}
		if maps == 0 {
			t.Errorf("{%d,%d}: no maps found to compare", r, s)
		}
	}
	t.Logf("%d regular maps (and their duals) agree", checked)
}

// TestShortestNontrivialCycleMatchesReferenceSearched runs the
// differential on small irregular maps from the dart backtracking
// search, which need not be regular (or free of loops and multi-edges),
// and on tori.
func TestShortestNontrivialCycleMatchesReferenceSearched(t *testing.T) {
	// Cases the seeded search solves within a few milliseconds; larger
	// sizes exhaust the step budget without a map.
	cases := []struct {
		r, s, darts int
		seed        int64
	}{
		{5, 5, 20, 0}, {5, 5, 20, 1}, {5, 5, 20, 2}, {5, 5, 40, 0},
		{4, 6, 24, 0}, {4, 4, 32, 0}, {6, 3, 36, 0}, {6, 3, 36, 1},
	}
	found := 0
	for _, c := range cases {
		m := tiling.Search(c.r, c.s, c.darts, rand.New(rand.NewSource(c.seed)), 200_000)
		if m == nil {
			continue
		}
		found++
		checkCycleAgainstRef(t, fmt.Sprintf("searched {%d,%d} %d darts seed %d", c.r, c.s, c.darts, c.seed), m)
	}
	if found == 0 {
		t.Fatal("dart search found no maps to compare")
	}
	for _, n := range []int{2, 3, 5} {
		checkCycleAgainstRef(t, fmt.Sprintf("torus %d", n), torusMap(t, n))
	}
	t.Logf("%d searched maps (and their duals) agree", found)
}
