// Command perfbench is the repository's fresh-shot, end-to-end benchmark.
// One run measures one named workload in a fresh process: it sets the
// workload up several times, sweeps fixed-size points of fresh shots
// through the production engine (or the distributed fabric) for the
// given number of seconds, checks the committed counts, and prints every
// metric by name and unit. With -trace 1 it then sweeps the same points
// again through the layers' public functions with a span around every
// call, and prints the per-layer metrics instead.
//
// Run it from the repository root through the launcher, which builds
// this package and starts it in a fresh process:
//
//	python3 perfbench/run.py --workload flagged-30 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/fpn/flagproxy/internal/experiment"
)

// setupRepeats is how many times a run builds the stack; setup_s is the
// median.
const setupRepeats = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload *workload
	seed     int64
	budget   time.Duration
	trace    bool
	out      string // trace files, run records, identity records
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1: also run the traced phase and print the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for trace files and run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	opt := options{workload: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: *out}
	rep, err := measure(context.Background(), opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, opt.trace)
	if err := rep.save(opt); err != nil {
		fmt.Fprintf(stderr, "perfbench: saving the run record: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured and checked.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Host      hostInfo `json:"host"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Shots     int      `json:"shots"`
	Errors    int      `json:"logical_errors"`
	// Point0 is the first point's committed (blocks, shots, errors).
	Point0 [3]int `json:"point0"`
	// PointRates is each untraced point's shots per second.
	PointRates []float64 `json:"point_rates"`
	EndToEnd   []metric  `json:"-"`
	PerLayer   []metric  `json:"-"`
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// measure runs one workload: set-up, the untraced phase, its checks,
// and with opt.trace the traced phase.
func measure(ctx context.Context, opt options, log io.Writer) (*report, error) {
	w := opt.workload
	rep := &report{Workload: w.name, Seed: opt.seed, Host: readHost("."), Correct: true}
	fmt.Fprintf(log, "perfbench: %s seed=%d: set-up\n", w.name, opt.seed)
	start := time.Now()
	code, err := w.lookup()
	if err != nil {
		return nil, err
	}
	lookup := time.Since(start)
	var pl *experiment.Pipeline
	var reps []setupTimes
	for i := 0; i < setupRepeats; i++ {
		var st setupTimes
		if pl, st, err = w.setUp(code, opt.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		reps = append(reps, st)
	}
	setup := lookup + medianDur(reps, setupTimes.total)

	tmp := filepath.Join(opt.out, "tmp")
	if err := os.MkdirAll(tmp, 0o777); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %s: measuring %v\n", w.name, opt.budget)
	var ph *phase
	var fab *fabricPhase
	if w.fabric {
		if fab, err = runFabric(ctx, w, pl, opt.seed, opt.budget, nil, tmp); err != nil {
			return nil, err
		}
		ph = fab.phase
		rep.Attempted += fab.requests
		rep.Failed += fab.failedRequests
	} else if ph, err = runEngine(ctx, w, pl, opt.seed, opt.budget); err != nil {
		return nil, err
	}
	shots, errs, attempted, failed := ph.totals()
	rep.Shots, rep.Errors = shots, errs
	rep.Attempted += int64(attempted)
	rep.Failed += int64(failed)
	rep.Point0 = ph.points[0].triple()
	for _, p := range ph.points {
		rep.PointRates = append(rep.PointRates, float64(p.shots)/p.wall.Seconds())
	}
	rss := readUsage().maxRSS
	rep.EndToEnd = []metric{
		{"shots_per_s", float64(shots) / ph.wall.Seconds(), "1/s"},
		{"cpu_s_per_mshot", ph.cpu.Seconds() / (float64(shots) / 1e6), "s"},
		{"setup_s", setup.Seconds(), "s"},
		{"max_rss_mb", float64(rss) / (1 << 20), "MB"},
	}
	fmt.Fprintf(log, "perfbench: %s: %d points, %d shots, %d logical errors; checking\n", w.name, len(ph.points), shots, errs)
	if err := checkOutputs(ctx, rep, opt, pl, ph, fab != nil); err != nil {
		return nil, err
	}
	if opt.trace {
		if err := traced(ctx, rep, opt, pl, ph, reps, lookup, tmp, log); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkOutputs checks the untraced phase: scheduling-independent counts,
// fabric == single machine, the same seed committing the same counts as
// any earlier run in this checkout, and the BER band.
func checkOutputs(ctx context.Context, rep *report, opt options, pl *experiment.Pipeline, ph *phase, fabric bool) error {
	w := opt.workload
	if fabric {
		for i, p := range ph.points {
			res, err := pl.RunContext(ctx, w.pointConfig(pl, opt.seed, i))
			if err != nil {
				return err
			}
			// The worker's memo is out of reach; the replay's stands in.
			ph.memoHits += res.MemoHits
			ph.memoMisses += res.MemoMisses
			if want := (point{blocks: res.Blocks, shots: res.Shots, errs: res.LogicalErrors}); p.triple() != want.triple() {
				rep.fail("fabric point %d committed %v, the single-machine engine %v", i, p.triple(), want.triple())
			}
		}
	} else {
		p, err := rerunPoint(ctx, w, pl, opt.seed, 0)
		if err != nil {
			return err
		}
		if p.triple() != ph.points[0].triple() {
			rep.fail("point 0 committed %v on %d workers but %v on 1 worker with 192-shot shards",
				ph.points[0].triple(), runtime.GOMAXPROCS(0), p.triple())
		}
	}
	if err := checkRecord(rep, opt); err != nil {
		return err
	}
	lo, hi, ok := berBand(w.name, rep.Shots)
	if !ok {
		rep.fail("no reference BER recorded for %s", w.name)
	} else if rep.Errors < lo || rep.Errors > hi {
		rep.fail("%d logical errors in %d shots lies outside the reference band [%d, %d]", rep.Errors, rep.Shots, lo, hi)
	}
	return nil
}

// checkRecord compares point 0 with the record an earlier run of the
// same workload and seed left in the output directory, or leaves one.
func checkRecord(rep *report, opt options) error {
	path := filepath.Join(opt.out, "identity", fmt.Sprintf("%s-seed%d.json", opt.workload.name, opt.seed))
	data, err := os.ReadFile(path)
	if err == nil {
		var prev [3]int
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("identity record %s: %w", path, err)
		}
		if prev != rep.Point0 {
			rep.fail("point 0 committed %v; an earlier run with the same seed committed %v", rep.Point0, prev)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err = json.Marshal(rep.Point0)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

//go:embed reference.json
var referenceJSON []byte

// berBand is the accepted logical-error range for shots shots: the
// reference BER's expectation ± (6σ + 25%). It is wide on purpose: it
// catches a broken decoder or sampler, not a statistical fluctuation.
func berBand(name string, shots int) (lo, hi int, ok bool) {
	var refs map[string]struct {
		BER float64 `json:"ber"`
	}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return 0, 0, false
	}
	ref, ok := refs[name]
	if !ok || ref.BER <= 0 {
		return 0, 0, false
	}
	mu := ref.BER * float64(shots)
	d := 6*math.Sqrt(mu) + 0.25*mu
	return int(math.Max(0, math.Floor(mu-d))), int(math.Ceil(mu + d)), true
}

// traced runs the traced phase over the same points and fills the
// per-layer metrics.
func traced(ctx context.Context, rep *report, opt options, pl *experiment.Pipeline, ph *phase, reps []setupTimes, lookup time.Duration, tmp string, log io.Writer) error {
	w := opt.workload
	runID := fmt.Sprintf("%s-seed%d-%d", w.name, opt.seed, time.Now().UnixNano())
	tr := newTracer(runID)
	fmt.Fprintf(log, "perfbench: %s: traced phase %v\n", w.name, opt.budget)
	var tph *phase
	var ds *decodeStats
	var tfab *fabricPhase
	var err error
	if w.fabric {
		if tfab, err = runFabric(ctx, w, pl, opt.seed, opt.budget, tr, tmp); err != nil {
			return err
		}
		tph = tfab.phase
		rep.Attempted += tfab.requests
		rep.Failed += tfab.failedRequests
	} else if tph, ds, err = runReplica(tr, w, pl, opt.seed, opt.budget); err != nil {
		return err
	}
	_, _, attempted, failed := tph.totals()
	rep.Attempted += int64(attempted)
	rep.Failed += int64(failed)
	for i := 0; i < min(len(ph.points), len(tph.points)); i++ {
		if ph.points[i].triple() != tph.points[i].triple() {
			rep.fail("traced point %d committed %v, untraced %v", i, tph.points[i].triple(), ph.points[i].triple())
		}
	}
	b, err := tr.analyze()
	if err != nil {
		rep.fail("%v", err)
	}
	if err := tr.write(filepath.Join(opt.out, "trace", runID+".json"), rep.Host, w.name, opt.seed); err != nil {
		return err
	}
	tshots, _, _, _ := tph.totals()
	shots, _, _, _ := ph.totals()
	rep.PerLayer = layerMetrics(b, ds, ph, tph, tfab, reps, lookup, shots, tshots)
	return nil
}

func layerMetrics(b breakdown, ds *decodeStats, ph, tph *phase, tfab *fabricPhase, reps []setupTimes, lookup time.Duration, shots, tshots int) []metric {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	perShot := func(d time.Duration) float64 {
		if tshots == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(tshots)
	}
	ms := []metric{
		{"catalog.build_s", sec(lookup), "s"},
		{"pipeline.build_s", sec(medianDur(reps, func(s setupTimes) time.Duration { return s.pipeline })), "s"},
		{"circuit.build_s", sec(medianDur(reps, func(s setupTimes) time.Duration { return s.circuit })), "s"},
		{"dem.extract_s", sec(medianDur(reps, func(s setupTimes) time.Duration { return s.dem })), "s"},
		{"decoder.build_s", sec(medianDur(reps, func(s setupTimes) time.Duration { return s.decoder })), "s"},
	}
	for _, l := range shareLayers {
		ms = append(ms, metric{l + ".share", b.share(l), "frac"})
	}
	ms = append(ms,
		metric{"other.share", b.share(layerRoot), "frac"},
		metric{"sim.ns_per_shot", perShot(b.self[layerSim]), "ns"},
		metric{"decoder.ns_per_shot", perShot(b.self[layerDecoder]), "ns"},
		metric{"worker.ns_per_shot", perShot(b.self[layerWorker]), "ns"},
	)
	var p50, p99, hit, defect, decErrs, commitNs float64
	if ds != nil {
		p50, p99 = quantileUs(ds.blockNs, 0.50), quantileUs(ds.blockNs, 0.99)
		if n := ds.memoHits + ds.memoMisses; n > 0 {
			hit = float64(ds.memoHits) / float64(n)
		}
		if ds.decodedShots > 0 {
			defect = float64(ds.defectShots) / float64(ds.decodedShots)
		}
		decErrs = float64(ds.errors)
		if ds.commitBlocks > 0 {
			commitNs = float64(b.self[layerExperiment].Nanoseconds()) / float64(ds.commitBlocks)
		}
	} else if n := ph.memoHits + ph.memoMisses; n > 0 {
		hit = float64(ph.memoHits) / float64(n)
	}
	ms = append(ms,
		metric{"decoder.block_p50_us", p50, "us"},
		metric{"decoder.block_p99_us", p99, "us"},
		metric{"decoder.memo_hit_rate", hit, "frac"},
		metric{"decoder.defect_shot_frac", defect, "frac"},
		metric{"decoder.errors", decErrs, "count"},
		metric{"experiment.commit_ns_per_block", commitNs, "ns"},
		metric{"checkpoint.flushes", float64(b.count["checkpoint.Rename"]), "count"},
		metric{"checkpoint.sync_s", sec(b.byName["checkpoint.Sync"] + b.byName["checkpoint.SyncDir"]), "s"},
	)
	var ledgerBytes, failedReq, reqPerShard, bytesPerShard float64
	if tfab != nil {
		ledgerBytes, failedReq = float64(tfab.ledgerBytes), float64(tfab.failedRequests)
		if shards := b.count["client.complete"]; shards > 0 {
			reqPerShard = float64(tfab.requests) / float64(shards)
			bytesPerShard = float64(tfab.wireBytes) / float64(shards)
		}
	}
	ms = append(ms, metric{"checkpoint.bytes_written", ledgerBytes, "B"})
	for _, ep := range endpoints {
		ms = append(ms,
			metric{"fabric." + ep + ".requests", float64(b.count["client."+ep]), "count"},
			metric{"fabric." + ep + ".client_s", sec(b.byName["client."+ep]), "s"},
			metric{"fabric." + ep + ".server_s", sec(b.byName["server."+ep]), "s"},
		)
	}
	tps := float64(tshots) / tph.wall.Seconds()
	ups := float64(shots) / ph.wall.Seconds()
	ms = append(ms,
		metric{"fabric.requests_per_shard", reqPerShard, "count"},
		metric{"fabric.bytes_per_shard", bytesPerShard, "B"},
		metric{"fabric.failed_requests", failedReq, "count"},
		metric{"runtime.alloc_bytes_per_shot", float64(ph.alloc) / float64(shots), "B"},
		metric{"runtime.gc_cpu_frac", ph.gcCPU.Seconds() / ph.cpu.Seconds(), "frac"},
		metric{"trace.overhead_frac", 1 - tps/ups, "frac"},
		metric{"trace.shots_per_s", tps, "1/s"},
	)
	return ms
}

func medianDur(reps []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	ds := make([]time.Duration, len(reps))
	for i, r := range reps {
		ds[i] = f(r)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	if n := len(ds); n%2 == 1 {
		return ds[n/2]
	} else if n > 0 {
		return (ds[n/2-1] + ds[n/2]) / 2
	}
	return 0
}

// quantileUs is the q-quantile (nearest rank) of ns, in microseconds.
func quantileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, i)]) / 1e3
}

// print writes the human-readable table, then the result as the last
// line: {"correct", "attempted", "failed", "metrics"}.
func (r *report) print(out io.Writer, trace bool) {
	h := r.Host
	fmt.Fprintf(out, "workload %s seed %d\n", r.Workload, r.Seed)
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, h.SourceDigest)
	fmt.Fprintf(out, "committed %d shots, %d logical errors (BER %.4g), point 0 %v\n",
		r.Shots, r.Errors, float64(r.Errors)/float64(max(1, r.Shots)), r.Point0)
	for _, p := range r.Problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	shown := r.EndToEnd
	if trace {
		shown = r.PerLayer
	}
	for _, m := range r.EndToEnd {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-34s %16.6g frac (%d/%d)\n", "failed_frac", float64(r.Failed)/float64(max(1, r.Attempted)), r.Failed, r.Attempted)
	if trace {
		for _, m := range r.PerLayer {
			fmt.Fprintf(out, "%-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	res := map[string]metric{}
	for _, m := range shown {
		res[m.Name] = m
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, max(1, r.Attempted), r.Failed, res})
	fmt.Fprintf(out, "%s\n", line)
}

// save writes the run record — host, checks and every metric — next to
// the trace files.
func (r *report) save(opt options) error {
	all := map[string]metric{}
	for _, m := range append(append([]metric(nil), r.EndToEnd...), r.PerLayer...) {
		all[m.Name] = m
	}
	data, err := json.MarshalIndent(struct {
		*report
		Metrics map[string]metric `json:"metrics"`
	}{r, all}, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(opt.out, "runs")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", r.Workload, r.Seed, opt.trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o666)
}
