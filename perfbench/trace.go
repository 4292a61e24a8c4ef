package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names. Every span belongs to exactly one layer; a lane root's
// self time is the traced wall time no layer span covers ("other").
const (
	layerRoot       = "root"
	layerSetup      = "setup"
	layerSim        = "sim"
	layerDecoder    = "decoder"
	layerExperiment = "experiment"
	layerCheckpoint = "checkpoint"
	layerFabric     = "fabric"
	layerWorker     = "worker"
)

// shareLayers are the layers reported as "<layer>.share".
var shareLayers = []string{layerSetup, layerSim, layerDecoder, layerExperiment, layerCheckpoint, layerFabric, layerWorker}

// noParent marks a span whose parent is found afterwards by time
// containment (ledger writes happen inside HTTP handlers that do not
// hand the benchmark a context to thread a span id through).
const noParent = -1

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch on the monotonic clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: a root
	Lane   int    `json:"lane"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of one traced phase in memory; they are
// written out as one JSON file when the phase ends. A nil *tracer is a
// disabled tracer: every method is a no-op, so the untraced phase runs
// the same code with tracing off.
type tracer struct {
	runID string
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span //guarded by mu
}

func newTracer(runID string) *tracer { return &tracer{runID: runID, epoch: time.Now()} }

// now is the monotonic clock in tracer time; 0 when tracing is off.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span id, so a span can be named as a parent before it
// ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// lane is one sequential actor (an engine worker slot, the fabric
// worker loop). Its spans are buffered privately and handed to the
// tracer when the lane closes, so the hot loop takes no lock.
type lane struct {
	t     *tracer
	id    int
	root  int64
	start int64
	spans []span
}

func (t *tracer) openLane(id int) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, id: id, root: t.newID(), start: t.now()}
}

// now is the tracer clock; 0 on a disabled lane.
func (l *lane) now() int64 {
	if l == nil {
		return 0
	}
	return l.t.now()
}

// add records a span that started at start and ends now, as a child of
// the lane root, and returns its end time.
func (l *lane) add(layer, name string, start int64) int64 {
	if l == nil {
		return 0
	}
	end := l.t.now()
	l.spans = append(l.spans, span{ID: l.t.newID(), Parent: l.root, Lane: l.id, Layer: layer, Name: name, Start: start, End: end})
	return end
}

// close ends the lane: its root span covers the lane's whole life.
func (l *lane) close() {
	if l == nil {
		return
	}
	root := span{ID: l.root, Lane: l.id, Layer: layerRoot, Name: fmt.Sprintf("lane%d", l.id), Start: l.start, End: l.t.now()}
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, root)
	l.t.spans = append(l.t.spans, l.spans...)
	l.t.mu.Unlock()
	l.spans = nil
}

// breakdown is the self-time accounting of a finished trace.
type breakdown struct {
	total  time.Duration            // sum of root durations: traced lane time
	self   map[string]time.Duration // per layer; layerRoot's is "other"
	byName map[string]time.Duration // total (not self) duration per span name
	count  map[string]int           // spans per name
}

func (b breakdown) share(layer string) float64 {
	if b.total <= 0 {
		return 0
	}
	return float64(b.self[layer]) / float64(b.total)
}

// analyze adopts parentless spans by time containment, then computes
// every span's self time — its duration minus the part of it that its
// children cover — and sums them per layer. It fails when the span tree
// is malformed: a child outside its parent, or layer self times plus
// "other" not adding up to the traced lane time (overlapping siblings).
func (t *tracer) analyze() (breakdown, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	adopt(spans)
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make(map[int64][]int, len(spans))
	b := breakdown{self: map[string]time.Duration{}, byName: map[string]time.Duration{}, count: map[string]int{}}
	for i, s := range spans {
		if s.End < s.Start {
			return b, fmt.Errorf("trace: span %s ends before it starts", s.Name)
		}
		b.byName[s.Name] += time.Duration(s.End - s.Start)
		b.count[s.Name]++
		if s.Parent == 0 {
			b.total += time.Duration(s.End - s.Start)
			continue
		}
		p, ok := idx[s.Parent]
		if !ok {
			return b, fmt.Errorf("trace: span %s has unknown parent %d", s.Name, s.Parent)
		}
		if s.Start < spans[p].Start || s.End > spans[p].End {
			return b, fmt.Errorf("trace: span %s [%d,%d] lies outside its parent %s [%d,%d]",
				s.Name, s.Start, s.End, spans[p].Name, spans[p].Start, spans[p].End)
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	var sum time.Duration
	for _, s := range spans {
		self := time.Duration(s.End-s.Start) - covered(spans, children[s.ID])
		b.self[s.Layer] += self
		sum += self
	}
	if d := sum - b.total; d < -time.Microsecond || d > time.Microsecond {
		return b, fmt.Errorf("trace: layer self times sum to %v but traced lane time is %v (overlapping spans)", sum, b.total)
	}
	return b, nil
}

// covered is the length of the union of the child intervals.
func covered(spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for i, k := range kids {
		iv[i] = [2]int64{spans[k].Start, spans[k].End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return time.Duration(total + hi - lo)
}

// ledgerHost names the handler that writes the ledger: a completion
// commits blocks, and the commit hook flushes the checkpoint.
const ledgerHost = "server.complete"

// adopt gives every noParent span the shortest completion handler span
// that contains it in time; a span nothing contains (the coordinator's
// own end-of-point record) becomes a root of its own, counted in the
// traced lane time.
func adopt(spans []span) {
	var hosts []int
	for i, s := range spans {
		if s.Parent != noParent && s.Name == ledgerHost {
			hosts = append(hosts, i)
		}
	}
	sort.Slice(hosts, func(i, j int) bool { return spans[hosts[i]].Start < spans[hosts[j]].Start })
	for i := range spans {
		s := &spans[i]
		if s.Parent != noParent {
			continue
		}
		s.Parent = 0
		best := int64(-1)
		// Hosts starting at or before s, nearest first; a handful back is
		// enough because one worker's requests do not nest.
		j := sort.Search(len(hosts), func(k int) bool { return spans[hosts[k]].Start > s.Start })
		for k := j - 1; k >= 0 && k >= j-8; k-- {
			h := spans[hosts[k]]
			if h.End >= s.End && (best < 0 || h.End-h.Start < best) {
				best = h.End - h.Start
				s.Parent = h.ID
			}
		}
	}
}

// write dumps the trace as one JSON document.
func (t *tracer) write(path string, host hostInfo, workload string, seed int64) error {
	type outSpan struct {
		Run string `json:"run"`
		span
	}
	t.mu.Lock()
	out := make([]outSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = outSpan{Run: t.runID, span: s}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	doc := struct {
		Run      string    `json:"run"`
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Host     hostInfo  `json:"host"`
		Spans    []outSpan `json:"spans"`
	}{t.runID, workload, seed, host, out}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// keepWithin drops the spans that do not lie inside [start, end] — the
// traffic of a fabric worker before and after the measured window — and
// every descendant of a dropped span.
func (t *tracer) keepWithin(start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := make(map[int64]bool, len(t.spans))
	for changed := true; changed; {
		changed = false
		for _, s := range t.spans {
			if kept[s.ID] || s.Start < start || s.End > end {
				continue
			}
			if s.Parent == 0 || s.Parent == noParent || kept[s.Parent] {
				kept[s.ID] = true
				changed = true
			}
		}
	}
	out := t.spans[:0]
	for _, s := range t.spans {
		if kept[s.ID] {
			out = append(out, s)
		}
	}
	t.spans = out
}
