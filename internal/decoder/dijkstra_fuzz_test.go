package decoder

// Fuzzing the targeted search (dijkstraTo) against the full one
// (dijkstraInto) on random small multigraphs: parallel edges, tied
// weights, with and without a boundary vertex, unreachable vertices,
// and per-shot weight views (shift plus overridden classes) against the
// same weights materialized into a plain array. Every target's distance
// and the edge sequence of its prev walk must be identical, because
// matching and the path walk read nothing else.

import (
	"math"
	"testing"
)

// fuzzWeightPalette holds few distinct, strictly positive weights so
// that equal-length paths (and therefore heap ties) are common; ln 2 is
// the smallest weight weightOf can produce.
var fuzzWeightPalette = [8]float64{math.Ln2, math.Ln2, 1, 1, 2, 2 * math.Ln2, 3, 0.5 + math.Ln2}

type dijkstraCase struct {
	nv       int
	boundary int
	edges    []graphEdge
	adj      [][]int
	w        edgeWeights
	src      []int
}

// fuzzDijkstraCase decodes fuzz bytes into a graph and sources:
//
//	data[0]     vertex count 2..15
//	data[1]     bit 0: last vertex is a boundary; bits 1-2: weight
//	            shift (0 or a palette weight); bits 3-5: classes 1..8
//	data[2:4]   source mask over the vertices
//	data[4]     rotation of the source order
//	next bytes  one per class: bits 0-2 base weight, bit 3 overridden,
//	            bits 4-6 override weight
//	rest        edge triples (u, v, class), capped at 48 edges
func fuzzDijkstraCase(data []byte) (dijkstraCase, bool) {
	if len(data) < 5 {
		return dijkstraCase{}, false
	}
	c := dijkstraCase{nv: 2 + int(data[0])%14, boundary: -1}
	if data[1]&1 != 0 {
		c.boundary = c.nv - 1
	}
	if sh := int(data[1]>>1) & 3; sh != 0 {
		c.w.shift = fuzzWeightPalette[sh]
	}
	nClasses := 1 + int(data[1]>>3)%8
	if len(data) < 5+nClasses {
		return dijkstraCase{}, false
	}
	mask := int(data[2]) | int(data[3])<<8
	for j := 0; j < c.nv; j++ {
		v := (int(data[4]) + j) % c.nv
		if v != c.boundary && mask&(1<<v) != 0 {
			c.src = append(c.src, v)
		}
	}
	if len(c.src) == 0 {
		c.src = []int{0}
	}
	c.w.base = make([]float64, nClasses)
	c.w.mark = make([]bool, nClasses)
	c.w.over = make([]float64, nClasses)
	for ci, b := range data[5 : 5+nClasses] {
		c.w.base[ci] = fuzzWeightPalette[b&7]
		c.w.mark[ci] = b&8 != 0
		c.w.over[ci] = fuzzWeightPalette[(b>>4)&7]
	}
	// Like a markSet's membership array, the marks may end early.
	for len(c.w.mark) > 0 && !c.w.mark[len(c.w.mark)-1] {
		c.w.mark = c.w.mark[:len(c.w.mark)-1]
	}
	c.adj = make([][]int, c.nv)
	rest := data[5+nClasses:]
	for i := 0; i+2 < len(rest) && len(c.edges) < 48; i += 3 {
		u, v := int(rest[i])%c.nv, int(rest[i+1])%c.nv
		ei := len(c.edges)
		c.edges = append(c.edges, graphEdge{u: u, v: v, class: int(rest[i+2]) % nClasses})
		c.adj[u] = append(c.adj[u], ei)
		if v != u {
			c.adj[v] = append(c.adj[v], ei)
		}
	}
	return c, true
}

// prevWalk returns the edge ids of the prev chain from target back to s
// (nil when t is unreached), failing the test on a chain that breaks or
// runs longer than the vertex count.
func prevWalk(t *testing.T, edges []graphEdge, prev []int, s, target int) []int {
	t.Helper()
	var walk []int
	for cur := target; cur != s; {
		ei := prev[cur]
		if ei < 0 {
			if len(walk) > 0 {
				t.Fatalf("prev chain from %d breaks at %d", target, cur)
			}
			return nil
		}
		walk = append(walk, ei)
		if len(walk) > len(prev) {
			t.Fatalf("prev chain from %d does not reach the source %d", target, s)
		}
		if e := edges[ei]; e.u == cur {
			cur = e.v
		} else {
			cur = e.u
		}
	}
	return walk
}

func FuzzDijkstraTo(f *testing.F) {
	// Parallel edges of tied weight between 0 and 1, a boundary at 5,
	// and source 4 unreachable from every other source.
	f.Add([]byte{4, 0b00001001, 0b00011111, 0, 0, 0x80, 0x18, 0, 1, 0, 0, 1, 1, 1, 2, 0, 2, 3, 1, 3, 5, 0})
	// No boundary, shifted weights, overridden classes, ties through
	// two equal-length routes 0-1-3 and 0-2-3.
	f.Add([]byte{3, 0b00011010, 0b00001011, 0, 1, 0x09, 0x08, 0x30, 0, 1, 0, 1, 3, 1, 0, 2, 0, 2, 3, 0, 3, 4, 2})
	// A single source with a boundary target only.
	f.Add([]byte{2, 0b00000001, 0b00000001, 0, 0, 0x10, 0, 3, 0})
	// Every source isolated from every other; one self-loop.
	f.Add([]byte{6, 0b00010000, 0xff, 0, 3, 0x01, 0x02, 0, 0, 0, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := fuzzDijkstraCase(data)
		if !ok {
			return
		}
		weight := make([]float64, len(c.w.base))
		for ci := range weight {
			weight[ci] = c.w.of(ci)
		}
		full := make([]float64, c.nv)
		fullPrev := make([]int, c.nv)
		var pq floatHeap
		var ds dijkstraScratch
		ds.ensure(1, c.nv)
		dist, prev := ds.row(0)
		for i, s := range c.src {
			dijkstraInto(s, weight, c.edges, c.adj, full, fullPrev, &pq)
			dijkstraTo(s, c.src[i+1:], c.boundary, &c.w, c.edges, c.adj, dist, prev, &ds)
			for v, m := range ds.want {
				if m {
					t.Fatalf("source %d: target mark on vertex %d left set", s, v)
				}
			}
			targets := c.src[i+1:]
			if c.boundary >= 0 {
				targets = append(targets[:len(targets):len(targets)], c.boundary)
			}
			for _, tv := range targets {
				if math.Float64bits(dist[tv]) != math.Float64bits(full[tv]) {
					t.Fatalf("source %d target %d: dist %v, full search %v", s, tv, dist[tv], full[tv])
				}
				got := prevWalk(t, c.edges, prev, s, tv)
				want := prevWalk(t, c.edges, fullPrev, s, tv)
				if len(got) != len(want) {
					t.Fatalf("source %d target %d: walk %v, full search %v", s, tv, got, want)
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("source %d target %d: walk %v, full search %v", s, tv, got, want)
					}
				}
			}
		}
	})
}
