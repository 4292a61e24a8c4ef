// Package surface builds surface codes: hyperbolic surface codes from
// closed {r,s} combinatorial maps (edges→data, faces→Z checks,
// vertices→X checks) and the rotated planar surface code baseline. It
// also computes exact code distances for the hyperbolic family via
// homology (shortest homologically non-trivial cycle, found exactly with
// the GF(2) double-cover technique).
package surface

import (
	"fmt"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/gf2"
	"github.com/fpn/flagproxy/internal/tiling"
)

// FromMap constructs the hyperbolic surface code of a closed map: each
// edge is a data qubit, each face a Z check, each vertex an X check.
// Distances are computed exactly via homology.
func FromMap(m *tiling.Map, name, family string) (*css.Code, error) {
	if !m.NonDegenerate() {
		return nil, fmt.Errorf("surface: degenerate map (repeated edge in a face or vertex)")
	}
	var checks []css.Check
	for _, edges := range m.FaceEdges() {
		checks = append(checks, css.Check{Basis: css.Z, Support: append([]int(nil), edges...), Color: -1})
	}
	for _, edges := range m.VertexEdges() {
		checks = append(checks, css.Check{Basis: css.X, Support: append([]int(nil), edges...), Color: -1})
	}
	code, err := css.New(name, family, m.E(), checks)
	if err != nil {
		return nil, err
	}
	if code.K != 2*m.Genus() {
		return nil, fmt.Errorf("surface: k=%d does not match 2g=%d", code.K, 2*m.Genus())
	}
	dz := ShortestNontrivialCycle(m)
	dx := ShortestNontrivialCycle(m.Dual())
	code.DZ, code.DZExact = dz, true
	code.DX, code.DXExact = dx, true
	return code, nil
}

// ShortestNontrivialCycle returns the length of the shortest cycle in the
// map's graph that is homologically non-trivial (not a sum of face
// boundaries). This is the Z distance of the associated surface code.
//
// Method: a cycle c is non-trivial iff λ·c = 1 for some λ in the
// orthogonal complement of the face space, i.e. λ ∈ ker(H_Z). For each
// functional λ the shortest λ-odd cycle is found exactly as the
// shortest path between the two lifts of a vertex in the λ-signed double
// cover of the graph.
//
// Only λ modulo vertex coboundaries matters: a vertex star meets every
// closed walk an even number of times, so adding one to λ never changes
// which closed walks are λ-odd. The search therefore runs over the
// nullspace vectors that are independent of the vertex stars — 2g of
// them, spanning H¹ — instead of all V+2g−1; every non-trivial cycle is
// odd under one of them, so the minimum is the same.
func ShortestNontrivialCycle(m *tiling.Map) int {
	nE := m.E()
	hz := gf2.MatrixFromSupports(m.F(), nE, m.FaceEdges())
	cob := gf2.NewBasis(nE)
	for _, edges := range m.VertexEdges() {
		star := gf2.NewVec(nE)
		for _, e := range edges {
			star.Flip(e) // a loop meets its vertex twice and cancels
		}
		cob.Add(star)
	}
	var lambdas []gf2.Vec
	for _, lambda := range gf2.NullspaceBasis(hz) {
		if cob.Add(lambda) {
			lambdas = append(lambdas, lambda)
		}
	}
	eps := m.EdgeEndpoints()
	nV := m.V()
	// Adjacency: per vertex, list of (neighbor, edge id).
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
			// BFS from (v, 0) in the double cover.
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
		return 0 // no non-trivial cycle: genus 0
	}
	return best
}
