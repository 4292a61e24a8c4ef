package main

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fpn/flagproxy/internal/decoder"
	"github.com/fpn/flagproxy/internal/experiment"
	"github.com/fpn/flagproxy/internal/sim"
)

// point is the committed outcome of one sweep point, plus what it cost.
type point struct {
	blocks, shots, errs int
	// attempted is the point's block count; failed counts blocks that
	// were quarantined, rescued by a fallback decoder, or timed out.
	attempted, failed int
	wall              time.Duration
}

func (p point) triple() [3]int { return [3]int{p.blocks, p.shots, p.errs} }

func pointOf(cfg experiment.Config, res *experiment.Result) point {
	total := (cfg.Shots + 63) / 64
	failed := res.FallbackBlocks + res.TimeoutBlocks
	if !res.EarlyStopped {
		failed += total - res.Blocks // quarantined shards never commit
	}
	return point{blocks: res.Blocks, shots: res.Shots, errs: res.LogicalErrors, attempted: total, failed: failed}
}

// phase is one measured sweep: points run back to back until the time
// budget is used up. The last point always completes, so every point's
// counts are a deterministic function of (workload, seed, index).
type phase struct {
	points []point
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64        // heap bytes allocated during the phase
	gcCPU  time.Duration // GC CPU time during the phase

	memoHits, memoMisses int64 // engine phases only
}

func (ph *phase) totals() (shots, errs, attempted, failed int) {
	for _, p := range ph.points {
		shots += p.shots
		errs += p.errs
		attempted += p.attempted
		failed += p.failed
	}
	return
}

// meter brackets a phase's wall time, CPU time and allocation.
type meter struct {
	start time.Time
	u     usage
	g     gcSample
}

func startMeter() meter { return meter{start: time.Now(), u: readUsage(), g: readGC()} }

func (m meter) stop(ph *phase) {
	ph.wall = time.Since(m.start)
	u, g := readUsage(), readGC()
	ph.cpu = u.cpu - m.u.cpu
	ph.alloc = g.allocBytes - m.g.allocBytes
	ph.gcCPU = g.gcCPU - m.g.gcCPU
}

// runEngine is the untraced single-machine phase: each point goes
// through the production engine, Pipeline.RunContext, which rebuilds
// the circuit, DEM and decoder per point exactly as a `ber` sweep does.
func runEngine(ctx context.Context, w *workload, pl *experiment.Pipeline, seed int64, budget time.Duration) (*phase, error) {
	ph := &phase{}
	m := startMeter()
	for i := 0; i == 0 || time.Since(m.start) < budget; i++ {
		cfg := w.pointConfig(pl, seed, i)
		t := time.Now()
		res, err := pl.RunContext(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		p := pointOf(cfg, res)
		p.wall = time.Since(t)
		ph.points = append(ph.points, p)
		ph.memoHits += res.MemoHits
		ph.memoMisses += res.MemoMisses
	}
	m.stop(ph)
	return ph, nil
}

// rerunPoint runs point i again on one worker with an odd shard size:
// a different schedule that must commit the same counts.
func rerunPoint(ctx context.Context, w *workload, pl *experiment.Pipeline, seed int64, i int) (point, error) {
	cfg := w.pointConfig(pl, seed, i)
	cfg.Workers, cfg.ShardShots = 1, 3*64
	res, err := pl.RunContext(ctx, cfg)
	if err != nil {
		return point{}, err
	}
	return pointOf(cfg, res), nil
}

// decodeStats is what the traced replica counts at the decode layer.
type decodeStats struct {
	sampledShots, decodedShots int
	defectShots                int
	errors                     int // decode calls that returned an error
	memoHits, memoMisses       uint64
	blockNs                    []int64 // decode time of each 64-shot block
	commitBlocks               int
}

func (s *decodeStats) merge(o *decodeStats) {
	s.sampledShots += o.sampledShots
	s.decodedShots += o.decodedShots
	s.defectShots += o.defectShots
	s.errors += o.errors
	s.memoHits += o.memoHits
	s.memoMisses += o.memoMisses
	s.blockNs = append(s.blockNs, o.blockNs...)
	s.commitBlocks += o.commitBlocks
}

// shardBlocks is the engine's default shard: 1024 shots.
const shardBlocks = 16

// runReplica is the traced single-machine phase. It drives the same
// points through the layers' public functions — sim.BlockSampler.Run,
// decoder.Batch.DecodeBatch or ScratchDecoder.DecodeWith, and
// experiment.Frontier Mark/Commit — with the engine's shard plan and
// worker count, timing every call. Its counts must equal the engine's.
func runReplica(tr *tracer, w *workload, pl *experiment.Pipeline, seed int64, budget time.Duration) (*phase, *decodeStats, error) {
	workers := runtime.GOMAXPROCS(0)
	lanes := make([]*lane, workers)
	for k := range lanes {
		lanes[k] = tr.openLane(k)
	}
	ph := &phase{}
	all := &decodeStats{}
	m := startMeter()
	for i := 0; i == 0 || time.Since(m.start) < budget; i++ {
		cfg := w.pointConfig(pl, seed, i)
		tl, err := buildTail(cfg, pl, lanes[0])
		if err != nil {
			return nil, nil, err
		}
		t := lanes[0].now()
		fr := experiment.NewFrontier(cfg)
		lanes[0].add(layerExperiment, "experiment.NewFrontier", t)
		rp := &replicaPoint{cfg: cfg, tl: tl, fr: fr, decoded: make([]atomic.Int32, fr.Total())}
		stats := make([]decodeStats, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = rp.work(lanes[k], &stats[k])
			}(k)
		}
		wg.Wait()
		var st decodeStats
		for k := range stats {
			if errs[k] != nil {
				return nil, nil, fmt.Errorf("point %d: %w", i, errs[k])
			}
			st.merge(&stats[k])
		}
		miscounted := 0 // blocks not decoded exactly once
		for b := range rp.decoded {
			if rp.decoded[b].Load() != 1 {
				miscounted++
			}
		}
		p := fr.State()
		if miscounted != 0 || st.sampledShots != p.Shots || st.decodedShots != p.Shots || p.Blocks != fr.Total() {
			return nil, nil, fmt.Errorf("point %d: fresh-shot accounting broken: sampled %d, decoded %d, committed %d shots in %d/%d blocks, %d blocks not decoded exactly once",
				i, st.sampledShots, st.decodedShots, p.Shots, p.Blocks, fr.Total(), miscounted)
		}
		all.merge(&st)
		ph.points = append(ph.points, point{blocks: p.Blocks, shots: p.Shots, errs: p.Errors, attempted: fr.Total()})
	}
	m.stop(ph)
	for _, l := range lanes {
		l.close()
	}
	return ph, all, nil
}

// replicaPoint is one point in flight on the traced replica.
type replicaPoint struct {
	cfg     experiment.Config
	tl      *tail
	fr      *experiment.Frontier
	next    atomic.Int64
	decoded []atomic.Int32 // decode count per block
}

func (rp *replicaPoint) blockLen(b int) int {
	return min(64, rp.cfg.Shots-b*64)
}

// work claims shards until none are left: sample the shard, decode each
// 64-shot block, mark and commit the blocks.
func (rp *replicaPoint) work(l *lane, st *decodeStats) error {
	sc := decoder.NewScratch()
	smp := sim.NewBlockSampler(rp.tl.circ, shardBlocks)
	total := rp.fr.Total()
	numShards := (total + shardBlocks - 1) / shardBlocks
	counts := make([]int, shardBlocks)
	var res *sim.Result
	shot := 0
	bit := func(d int) bool { return res.DetectorBit(d, shot) }
	for {
		sh := int(rp.next.Add(1) - 1)
		if sh >= numShards {
			break
		}
		first := sh * shardBlocks
		end := min(first+shardBlocks, total)
		shardLen := rp.blockLen(end-1) + (end-first-1)*64
		t := l.now()
		res = smp.Run(first, shardLen, rp.cfg.Seed)
		l.add(layerSim, "sim.BlockSampler.Run", t)
		st.sampledShots += shardLen
		for b := first; b < end; b++ {
			n, lo := rp.blockLen(b), (b-first)*64
			errs := 0
			t := l.now()
			if rp.tl.batch != nil {
				e, err := rp.tl.batch.DecodeBatch(res, lo, n, sc)
				if err != nil {
					return fmt.Errorf("block %d: %w", b, err)
				}
				errs = e
				st.blockNs = append(st.blockNs, l.add(layerDecoder, "decoder.Batch.DecodeBatch", t)-t)
			} else {
				for shot = lo; shot < lo+n; shot++ {
					corr, err := rp.tl.dec.DecodeWith(sc, bit)
					if err != nil {
						// A decode failure counts as a logical error, as in the engine.
						st.errors++
						errs++
						continue
					}
					for o := range rp.tl.circ.Observables {
						if corr[o] != res.ObservableBit(o, shot) {
							errs++
							break
						}
					}
				}
				st.blockNs = append(st.blockNs, l.add(layerDecoder, "ScratchDecoder.DecodeWith", t)-t)
			}
			counts[b-first] = errs
			st.decodedShots += n
			st.defectShots += defectLanes(res, lo, n)
			rp.decoded[b].Add(1)
		}
		t = l.now()
		for b := first; b < end; b++ {
			rp.fr.Mark(b, counts[b-first])
		}
		rp.fr.Commit()
		l.add(layerExperiment, "experiment.Frontier.Mark+Commit", t)
		st.commitBlocks += end - first
	}
	st.memoHits, st.memoMisses = sc.TakeMemoStats()
	return nil
}

// defectLanes counts the lanes of one block with at least one fired
// detector.
func defectLanes(res *sim.Result, lo, n int) int {
	wi := lo / 64
	var any uint64
	for d := range res.Detectors {
		any |= res.DetectorWord(d, wi)
	}
	if n < 64 {
		any &= 1<<uint(n) - 1
	}
	return bits.OnesCount64(any)
}
