package decoder

import (
	"fmt"
	"math"

	"github.com/fpn/flagproxy/internal/css"
	"github.com/fpn/flagproxy/internal/dem"
)

// weightScale quantizes -log-probability weights into the integer domain
// of the blossom matcher.
const weightScale = 1000.0

// MWPM is the flagged minimum-weight perfect-matching decoder for
// surface codes: per shot it selects a flag-conditioned representative
// from every error equivalence class, builds the weighted decoding
// graph, matches the flipped syndrome bits along shortest paths, and
// lifts the matched paths back to Pauli-frame corrections.
//
// Edge weights are fixed for an entire run except under observed flags,
// so the shortest-path trees of the flagless steady state are computed
// once per source (lazily, under a per-source sync.Once) and shared
// read-only by all workers. A flagged shot shifts every edge by
// Equation 9's |F|·wM, which changes which paths are shortest, so it
// searches again into per-worker scratch — but each search is targeted
// (dijkstraTo): the search from defect i stops once the later defects
// and the boundary, the only vertices matching and the path walk read
// from its row, are settled. Flagged weights and representatives are
// read through the base tables plus an overlay holding only the
// classes whose members touch an observed flag.
type MWPM struct {
	Basis css.Basis
	// UseFlags selects the flag protocol; when false the decoder is the
	// plain-MWPM baseline (PyMatching stand-in) that ignores flag bits.
	UseFlags bool
	// DisableRenorm switches off the Equation 9 probability
	// renormalization while keeping flag-conditioned representative
	// selection (an ablation knob; the paper always renormalizes).
	DisableRenorm bool

	classes []dem.Class
	pM      float64
	numObs  int
	id      string // kind+config tag attached to decode errors

	verts    []int       // vertex -> syndrome detector id
	vertOf   map[int]int // detector -> vertex
	boundary int         // boundary vertex index, or -1
	edges    []graphEdge
	adj      [][]int    // vertex -> edge ids
	empty    *dem.Class // empty-syndrome equivalence class, if any
	flagAll  []int      // every flag detector mentioned by any class

	baseRep    []dem.ProjEvent // flagless representative per class
	baseWeight []float64
	flagIndex  map[int][]int // flag detector -> class ids with members on it

	spt *sptCache // base-weight shortest-path trees, one per source
}

type graphEdge struct {
	u, v  int // vertices (v may be the boundary vertex)
	class int
}

// NewMWPM builds the decoder for one syndrome basis of a model. pM is
// the measurement misread probability used in Equation 9.
func NewMWPM(model *dem.Model, basis css.Basis, pM float64, useFlags bool) (*MWPM, error) {
	events := model.Project(basis)
	events = decompose(events, 8)
	classes := dem.BuildClasses(events)
	d := &MWPM{
		Basis:    basis,
		UseFlags: useFlags,
		classes:  classes,
		pM:       pM,
		numObs:   len(model.Circuit.Observables),
		vertOf:   map[int]int{},
		boundary: -1,
	}
	d.id = fmt.Sprintf("mwpm(basis=%c flags=%v pM=%g)", basis, useFlags, pM)
	for _, cl := range classes {
		for _, det := range cl.Dets {
			if _, ok := d.vertOf[det]; !ok {
				d.vertOf[det] = len(d.verts)
				d.verts = append(d.verts, det)
			}
		}
		if len(cl.Dets) == 1 {
			d.boundary = -2 // mark needed
		}
	}
	if d.boundary == -2 {
		d.boundary = len(d.verts)
	}
	nv := len(d.verts)
	if d.boundary >= 0 {
		nv++
	}
	d.adj = make([][]int, nv)
	for ci, cl := range classes {
		var u, v int
		switch len(cl.Dets) {
		case 0:
			d.empty = &classes[ci]
			continue
		case 1:
			u, v = d.vertOf[cl.Dets[0]], d.boundary
		case 2:
			u, v = d.vertOf[cl.Dets[0]], d.vertOf[cl.Dets[1]]
		default:
			// Every matching-graph class therefore has 1 or 2 detectors,
			// so Equation 9's (|σ|−1) exponent is exactly 1 and a flagged
			// shot's weight for a class it does not re-select is
			// baseWeight + |F|·wM with representative baseRep: DecodeWith
			// computes those on demand instead of building a per-shot
			// overlay over all classes.
			return nil, fmt.Errorf("decoder: class with %d dets survived decomposition", len(cl.Dets))
		}
		ei := len(d.edges)
		d.edges = append(d.edges, graphEdge{u: u, v: v, class: ci})
		d.adj[u] = append(d.adj[u], ei)
		d.adj[v] = append(d.adj[v], ei)
	}
	d.flagAll = collectFlagList(classes)
	// Flagless base representatives and weights.
	d.baseRep = make([]dem.ProjEvent, len(classes))
	d.baseWeight = make([]float64, len(classes))
	d.flagIndex = map[int][]int{}
	for ci := range classes {
		rep, p := classes[ci].Representative(nil, pM)
		d.baseRep[ci] = rep
		d.baseWeight[ci] = weightOf(p)
		seen := map[int]bool{}
		for _, m := range classes[ci].Members {
			for _, f := range m.Flags {
				if !seen[f] {
					seen[f] = true
					d.flagIndex[f] = append(d.flagIndex[f], ci)
				}
			}
		}
	}
	d.spt = newSPTCache(nv, func(s int) ([]float64, []int) {
		dist := make([]float64, nv)
		prev := make([]int, nv)
		var pq floatHeap
		dijkstraInto(s, d.baseWeight, d.edges, d.adj, dist, prev, &pq)
		return dist, prev
	})
	return d, nil
}

func weightOf(p float64) float64 {
	if p < 1e-15 {
		p = 1e-15
	}
	if p > 0.5 {
		p = 0.5
	}
	return -math.Log(p)
}

// NumClasses reports the equivalence-class count (for diagnostics).
func (d *MWPM) NumClasses() int { return len(d.classes) }

// Decode maps a shot's detector bits to predicted observable flips.
// detBit must return whether detector id fired. It allocates a private
// scratch per call; hot loops should hold a DecodeScratch and call
// DecodeWith.
func (d *MWPM) Decode(detBit func(int) bool) ([]bool, error) {
	return d.DecodeWith(NewScratch(), detBit)
}

// DecodeWith is Decode drawing every per-shot buffer from sc. The
// returned slice aliases sc and is valid until sc's next use. Panics
// from the matching layer are recovered into returned errors.
//
//fpn:hotpath
func (d *MWPM) DecodeWith(sc *DecodeScratch, detBit func(int) bool) (corr []bool, err error) {
	defer annotateErr(d.id, &err)
	defer Recover(&err)
	sc.reset(d.numObs)
	correction := sc.correction
	// Flipped syndrome vertices and observed flags.
	for vi, det := range d.verts {
		if detBit(det) {
			sc.src = append(sc.src, vi)
		}
	}
	src := sc.src
	if d.UseFlags {
		// The unflagged baseline skips flag bookkeeping entirely: no flag
		// reads, no flag-set bookkeeping, no per-class reweighting.
		for _, f := range d.flagAll {
			if detBit(f) {
				sc.flags.Add(f)
			}
		}
	}
	nFlags := sc.flags.Len()
	if len(src) == 0 {
		// No parity check fired: the only possible explanations live in
		// the empty-syndrome equivalence class (flag-only propagation
		// errors) or are "no error".
		if d.UseFlags {
			applyEmptyClass(d.empty, &sc.flags, correction)
		}
		return correction, nil
	}
	// Per-shot class weights. Flagless shots read the base weights;
	// flagged shots shift every class by |F|·wM (Equation 9 with the
	// exponent 1 NewMWPM guarantees) and override the classes whose
	// members touch an observed flag, which re-select their
	// representative against the actual flag set.
	w := edgeWeights{base: d.baseWeight}
	if nFlags > 0 {
		for _, f := range sc.flags.Flags() {
			for _, ci := range d.flagIndex[f] {
				sc.adjusted.add(ci)
			}
		}
		rep, weight := sc.ensureClassOverlay(len(d.classes))
		for _, ci := range sc.adjusted.keys() {
			r, p := d.classes[ci].Representative(&sc.flags, d.pM)
			rep[ci] = r
			weight[ci] = weightOf(p)
		}
		if d.DisableRenorm {
			// Ablation: every class weighs its representative's own
			// probability, so the weight overlay is filled in full.
			for ci := range d.classes {
				p := d.baseRep[ci].P
				if sc.adjusted.has(ci) {
					p = rep[ci].P
				}
				weight[ci] = weightOf(p)
			}
			w = edgeWeights{base: weight}
		} else {
			w = edgeWeights{base: d.baseWeight, shift: float64(nFlags) * weightOf(d.pM), mark: sc.adjusted.marked, over: weight}
		}
	}
	if d.boundary < 0 && len(src)%2 != 0 {
		return nil, fmt.Errorf("decoder: odd syndrome weight %d on a closed code", len(src))
	}
	// Shortest-path trees from each source: cached for the flagless
	// steady state, targeted per-shot searches under observed flags.
	k := len(src)
	dist, prevEdge := sc.ensureTreeTables(k)
	if nFlags > 0 {
		sc.targetedTrees(src, d.boundary, &w, d.edges, d.adj, dist, prevEdge)
	} else {
		for i, s := range src {
			dist[i], prevEdge[i] = d.spt.tree(s)
		}
	}
	// Matching instance: real nodes 0..k-1, virtual boundary nodes
	// k..2k-1 when a boundary exists.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if w := dist[i][src[j]]; !math.IsInf(w, 1) {
				sc.medges = append(sc.medges, matchEdge{i, j, w})
			}
		}
	}
	if d.boundary >= 0 {
		for i := 0; i < k; i++ {
			if w := dist[i][d.boundary]; !math.IsInf(w, 1) {
				sc.medges = append(sc.medges, matchEdge{i, k + i, w})
			}
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				sc.medges = append(sc.medges, matchEdge{k + i, k + j, 0})
			}
		}
	}
	total := k
	if d.boundary >= 0 {
		total = 2 * k
	}
	mate, err := minWeightPerfectWS(sc, total, sc.medges)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		j := mate[i]
		if j < i && j < k {
			continue // handled from the other side
		}
		var target int
		if j < k {
			target = src[j]
		} else if j == k+i {
			target = d.boundary
		} else {
			return nil, fmt.Errorf("decoder: real node matched to foreign virtual node")
		}
		// Walk the shortest-path tree of source i from target back.
		cur := target
		for cur != src[i] {
			ei := prevEdge[i][cur]
			if ei < 0 {
				return nil, fmt.Errorf("decoder: broken shortest-path tree")
			}
			e := d.edges[ei]
			r := &d.baseRep[e.class]
			if sc.adjusted.has(e.class) {
				r = &sc.rep[e.class]
			}
			for _, o := range r.Obs {
				correction[o] = !correction[o]
			}
			if e.u == cur {
				cur = e.v
			} else {
				cur = e.u
			}
		}
	}
	return correction, nil
}

// dijkstraInto computes shortest paths from s over a decoding graph
// with per-class weights, writing into caller-provided rows (resized by
// the caller to the vertex count). pq is reset and reused.
func dijkstraInto(s int, weight []float64, edges []graphEdge, adj [][]int, dist []float64, prev []int, pq *floatHeap) {
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	*pq = (*pq)[:0]
	pq.push(heapItem{0, s})
	for len(*pq) > 0 {
		it := pq.pop()
		if it.d > dist[it.v] {
			continue
		}
		for _, ei := range adj[it.v] {
			e := edges[ei]
			to := e.u
			if to == it.v {
				to = e.v
			}
			nd := it.d + weight[e.class]
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = ei
				pq.push(heapItem{nd, to})
			}
		}
	}
}

// edgeWeights is a view of per-class edge weights: base[c] + shift for
// every class c, except the classes marked in mark, which weigh over[c].
// mark may be shorter than base (unmarked beyond its end). With a zero
// shift and no marks it is base itself, exactly: x + 0 == x for every
// positive weight.
type edgeWeights struct {
	base  []float64
	shift float64
	mark  []bool
	over  []float64
}

func (w *edgeWeights) of(c int) float64 {
	if c < len(w.mark) && w.mark[c] {
		return w.over[c]
	}
	return w.base[c] + w.shift
}

// targetedTrees fills dist[i]/prev[i] for every source src[i] with a
// targeted search into sc's Dijkstra rows. The targets of source i are
// src[i+1:] plus the boundary vertex (when boundary >= 0): matching
// reads dist[i] only at those vertices and the path walk follows
// prev[i] only from them, so every other entry of a row is left
// tentative and must not be read.
func (sc *DecodeScratch) targetedTrees(src []int, boundary int, w *edgeWeights, edges []graphEdge, adj [][]int, dist [][]float64, prev [][]int) {
	sc.dij.ensure(len(src), len(adj))
	for i, s := range src {
		di, pi := sc.dij.row(i)
		dijkstraTo(s, src[i+1:], boundary, w, edges, adj, di, pi, &sc.dij)
		dist[i], prev[i] = di, pi
	}
}

// dijkstraTo is dijkstraInto stopped as soon as every target, and the
// boundary vertex when boundary >= 0, is settled (popped at its final
// distance). It is bit-identical to the full search on what it settles:
//   - every weight is strictly positive (weightOf clamps p to at most
//     0.5, so each weight is at least ln 2), so a settled vertex's
//     dist and prev are final, and every vertex on its prev chain was
//     settled before it;
//   - the pops before the stop are exactly the first pops of the full
//     search, so the heap breaks ties the same way.
//
// Targets are distinct and exclude the boundary (a repeat would only
// keep the search running to the end). An unreachable target leaves the
// search to run dry, as the full one does, with dist +Inf. Entries of
// unsettled vertices are tentative.
// ds supplies the heap and the target marks (all false between calls).
func dijkstraTo(s int, targets []int, boundary int, w *edgeWeights, edges []graphEdge, adj [][]int, dist []float64, prev []int, ds *dijkstraScratch) {
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	want := ds.want
	for _, t := range targets {
		want[t] = true
	}
	left := len(targets)
	if boundary >= 0 {
		want[boundary] = true
		left++
	}
	if left == 0 {
		return
	}
	pq := &ds.heap
	*pq = (*pq)[:0]
	pq.push(heapItem{0, s})
	for len(*pq) > 0 {
		it := pq.pop()
		if it.d > dist[it.v] {
			continue
		}
		if want[it.v] {
			want[it.v] = false
			if left--; left == 0 {
				return
			}
		}
		for _, ei := range adj[it.v] {
			e := edges[ei]
			to := e.u
			if to == it.v {
				to = e.v
			}
			nd := it.d + w.of(e.class)
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = ei
				pq.push(heapItem{nd, to})
			}
		}
	}
	// The heap ran dry with unreachable targets still marked.
	for _, t := range targets {
		want[t] = false
	}
	if boundary >= 0 {
		want[boundary] = false
	}
}

type heapItem struct {
	d float64
	v int
}

// floatHeap is a hand-rolled binary min-heap on (d, v) items. It mirrors
// container/heap's sift-up/sift-down exactly (same comparisons, same
// swap order) so pop order — and therefore every tie-broken shortest
// path — is identical to the former heap.Push/heap.Pop code, without
// the per-push interface boxing allocation.
type floatHeap []heapItem

func (h *floatHeap) push(it heapItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *floatHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].d < s[j].d {
			j = j2
		}
		if !(s[j].d < s[i].d) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}
