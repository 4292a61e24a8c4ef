package surface

// Naive reference for the homology distance: a copy of the
// pre-optimization ShortestNontrivialCycle, which runs the double-cover
// search for every vector of a nullspace basis of H_Z (V+2g−1
// functionals) instead of only the 2g that are independent of the
// vertex coboundaries. The differential test asserts both agree.

import (
	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/tiling"
)

func refShortestNontrivialCycle(m *tiling.Map) int {
	nE := m.E()
	hz := gf2.MatrixFromSupports(m.F(), nE, m.FaceEdges())
	lambdas := gf2.NullspaceBasis(hz)
	eps := m.EdgeEndpoints()
	nV := m.V()
	type arc struct{ to, edge int }
	adj := make([][]arc, nV)
	for e, ep := range eps {
		adj[ep[0]] = append(adj[ep[0]], arc{ep[1], e})
		adj[ep[1]] = append(adj[ep[1]], arc{ep[0], e})
	}
	best := nE + 1
	dist := make([]int, 2*nV)
	queue := make([]int, 0, 2*nV)
	for _, lambda := range lambdas {
		odd := make([]bool, nE)
		for _, e := range lambda.Support() {
			odd[e] = true
		}
		for v := 0; v < nV; v++ {
			for i := range dist {
				dist[i] = -1
			}
			dist[2*v] = 0
			queue = queue[:0]
			queue = append(queue, 2*v)
			for qi := 0; qi < len(queue); qi++ {
				cur := queue[qi]
				u, sheet := cur/2, cur%2
				if dist[cur] >= best {
					continue
				}
				for _, a := range adj[u] {
					ns := sheet
					if odd[a.edge] {
						ns ^= 1
					}
					nxt := 2*a.to + ns
					if dist[nxt] < 0 {
						dist[nxt] = dist[cur] + 1
						queue = append(queue, nxt)
					}
				}
			}
			if d := dist[2*v+1]; d > 0 && d < best {
				best = d
			}
		}
	}
	if best > nE {
		return 0
	}
	return best
}
