// Decode scratch arenas. A DecodeScratch owns every per-shot buffer a
// decoder needs — flag sets, representative/weight overlays, Dijkstra
// storage, matching edge lists and the blossom workspace — so that the
// steady-state decode loop performs no heap allocation. Scratches are
// cheap to create, grow lazily to the largest decoder shape they have
// served, and may be moved freely between decoders; they must not be
// shared between goroutines. The decoders themselves stay immutable
// after construction (their shortest-path-tree caches are built lazily
// under per-source sync.Once), so one decoder may be shared by any
// number of workers each holding its own scratch.
package decoder

import (
	"sync"

	"github.com/fpn/flagproxy/internal/dem"
	"github.com/fpn/flagproxy/internal/matching"
)

// ScratchDecoder is implemented by decoders whose hot path can run
// allocation-free against a caller-owned DecodeScratch.
type ScratchDecoder interface {
	// DecodeWith behaves exactly like Decode but draws every per-shot
	// buffer from sc. The returned slice aliases sc and is valid only
	// until the next DecodeWith call on the same scratch.
	DecodeWith(sc *DecodeScratch, detBit func(int) bool) ([]bool, error)
}

// DecodeScratch is a per-worker reusable arena for decoder hot paths.
// The zero value is not ready; use NewScratch.
type DecodeScratch struct {
	correction []bool
	src        []int
	flags      dem.FlagSet // observed flags, in ascending detector order
	adjusted   markSet     // classes whose representative needs re-selection
	rep        []dem.ProjEvent
	weight     []float64

	// Dijkstra-from-source storage for flag-adjusted shots (the cached
	// trees cover the flagless steady state).
	dij dijkstraScratch

	// Per-source tree pointer tables (either into the cache or into dij
	// rows).
	dist [][]float64
	prev [][]int

	medges []matchEdge
	qedges []matching.Edge
	match  matching.Workspace

	uf   ufScratch
	rest restScratch
	bp   bpScratch

	// Batch-decode state (defect extraction buffers and the syndrome
	// memo); untouched by reset, revalidated against its owning Batch on
	// every DecodeBatch call. See batch.go.
	batch batchScratch
}

// NewScratch returns an empty scratch arena ready for DecodeWith.
func NewScratch() *DecodeScratch {
	return &DecodeScratch{}
}

// reset prepares the shared buffers for a new shot with numObs
// observables.
func (sc *DecodeScratch) reset(numObs int) {
	sc.correction = growBools(sc.correction, numObs)
	for i := range sc.correction {
		sc.correction[i] = false
	}
	sc.src = sc.src[:0]
	sc.medges = sc.medges[:0]
	sc.flags.Reset()
	sc.adjusted.reset()
}

// markSet is an ordered set over small dense int keys (class indices):
// a membership array plus an insertion-order list, so iterating the
// marked classes is deterministic — unlike the map[int]bool it replaced,
// whose range order varied run to run.
type markSet struct {
	marked []bool
	list   []int
}

// add marks key k, growing the membership array as needed.
func (s *markSet) add(k int) {
	if k >= len(s.marked) {
		if k < cap(s.marked) {
			s.marked = s.marked[:k+1]
		} else {
			grown := make([]bool, k+1)
			copy(grown, s.marked)
			s.marked = grown
		}
	}
	if s.marked[k] {
		return
	}
	s.marked[k] = true
	s.list = append(s.list, k)
}

// has reports whether key k is marked.
func (s *markSet) has(k int) bool { return k < len(s.marked) && s.marked[k] }

// keys returns the marked keys in insertion order; the slice aliases the
// set and is valid until the next add or reset.
func (s *markSet) keys() []int { return s.list }

// reset unmarks everything, keeping storage for reuse.
func (s *markSet) reset() {
	for _, k := range s.list {
		s.marked[k] = false
	}
	s.list = s.list[:0]
}

// ensureClassOverlay sizes the per-shot representative/weight overlays.
// Entries are not cleared: a caller reads back only the classes it
// wrote this shot.
func (sc *DecodeScratch) ensureClassOverlay(n int) ([]dem.ProjEvent, []float64) {
	if cap(sc.rep) < n {
		sc.rep = make([]dem.ProjEvent, n)
	}
	if cap(sc.weight) < n {
		sc.weight = make([]float64, n)
	}
	sc.rep = sc.rep[:n]
	sc.weight = sc.weight[:n]
	return sc.rep, sc.weight
}

// dijkstraScratch holds the per-source rows of the targeted searches
// (dijkstraTo) run when per-shot weights differ from the cached base
// weights. A row is exact only at the vertices its search settled —
// its targets and every vertex on their prev chains; all other entries
// are tentative leftovers of the stopped search and are never read.
type dijkstraScratch struct {
	dist []float64 // k rows × nv, flattened
	prev []int
	want []bool // per-vertex target marks of the running search; all false between searches
	heap floatHeap
	rows int
	nv   int
}

// ensure sizes the arena for k sources over nv vertices and returns the
// row accessors.
func (d *dijkstraScratch) ensure(k, nv int) {
	if need := k * nv; cap(d.dist) < need {
		d.dist = make([]float64, need)
		d.prev = make([]int, need)
	}
	d.dist = d.dist[:k*nv]
	d.prev = d.prev[:k*nv]
	if cap(d.want) < nv {
		d.want = make([]bool, nv)
	}
	d.want = d.want[:nv]
	d.rows, d.nv = k, nv
}

func (d *dijkstraScratch) row(i int) ([]float64, []int) {
	lo, hi := i*d.nv, (i+1)*d.nv
	return d.dist[lo:hi:hi], d.prev[lo:hi:hi]
}

// ensureTreeTables sizes the per-source tree pointer tables.
func (sc *DecodeScratch) ensureTreeTables(k int) ([][]float64, [][]int) {
	if cap(sc.dist) < k {
		sc.dist = make([][]float64, k)
		sc.prev = make([][]int, k)
	}
	sc.dist = sc.dist[:k]
	sc.prev = sc.prev[:k]
	return sc.dist, sc.prev
}

// ufScratch is the union-find decoder's arena.
type ufScratch struct {
	defect     []bool
	defects    []int
	parent     []int
	rank       []int
	parity     []int
	bound      []bool
	growth     []int
	inCluster  []bool
	grownEdges []int
	toGrow     []int
	treeAdj    [][]int
	touched    []int // vertices whose treeAdj rows need clearing
	visited    []bool
	order      []int
	parentEdge []int
	queue      []int
}

// restScratch is the Restriction decoder's arena.
type restScratch struct {
	flipped  []int
	em       map[int]int
	applied  map[int]bool
	residual map[int]bool
	latSrc   []int
}

// bpScratch is the BP+OSD decoder's arena, shaped by the decoder's
// Tanner graph (check-major message slots) and its row-bitset width.
type bpScratch struct {
	syndrome  []bool
	mismatch  []bool    // per row: hard-decision parity differs from the syndrome
	v2c       []float64 // per message slot, slots in row order
	c2v       []float64
	posterior []float64
	hard      []bool

	// OSD-0 state: the reliability order, the column echelon (per pivot,
	// its reduced column then its pivot-combination mask), each pivot's
	// row and variable, and the reduced syndrome with its mask.
	order   osdOrder
	echelon []uint64
	pivRow  []int32
	pivVar  []int32
	syn     []uint64
}

func (b *bpScratch) ensure(rows, nv, slots, words int) {
	if cap(b.syndrome) < rows {
		b.syndrome = make([]bool, rows)
		b.mismatch = make([]bool, rows)
		b.pivRow = make([]int32, rows)
		b.pivVar = make([]int32, rows)
	}
	b.syndrome = b.syndrome[:rows]
	b.mismatch = b.mismatch[:rows]
	b.pivRow = b.pivRow[:rows]
	b.pivVar = b.pivVar[:rows]
	if cap(b.posterior) < nv {
		b.posterior = make([]float64, nv)
		b.hard = make([]bool, nv)
		b.order.vars = make([]int32, nv)
	}
	b.posterior = b.posterior[:nv]
	b.hard = b.hard[:nv]
	b.order.vars = b.order.vars[:nv]
	if cap(b.v2c) < slots {
		b.v2c = make([]float64, slots)
		b.c2v = make([]float64, slots)
	}
	b.v2c = b.v2c[:slots]
	b.c2v = b.c2v[:slots]
	// At most one pivot per row: the rank is bounded by the row count.
	if need := 2 * rows * words; cap(b.echelon) < need {
		b.echelon = make([]uint64, need)
	}
	b.echelon = b.echelon[:2*rows*words]
	if cap(b.syn) < 2*words {
		b.syn = make([]uint64, 2*words)
	}
	b.syn = b.syn[:2*words]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// sptCache is a lazily built, read-only-after-build cache of shortest-
// path trees over a fixed weighted decoding graph. Weights are p- and
// model-fixed for an entire run, so the tree from each source is
// computed at most once (under a per-source sync.Once) and then shared
// by every worker without further synchronization.
type sptCache struct {
	once    []sync.Once
	dist    [][]float64
	prev    [][]int
	compute func(s int) ([]float64, []int)
}

func newSPTCache(nv int, compute func(int) ([]float64, []int)) *sptCache {
	return &sptCache{
		once:    make([]sync.Once, nv),
		dist:    make([][]float64, nv),
		prev:    make([][]int, nv),
		compute: compute,
	}
}

// tree returns the cached shortest-path tree rooted at s, building it
// on first use.
func (c *sptCache) tree(s int) ([]float64, []int) {
	c.once[s].Do(func() {
		c.dist[s], c.prev[s] = c.compute(s)
	})
	return c.dist[s], c.prev[s]
}
