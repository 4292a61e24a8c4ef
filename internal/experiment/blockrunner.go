// BlockRunner decodes arbitrary 64-shot block ranges of one configured
// run through exactly the production simulate→decode→count stack. It is
// the worker-side seam of the distributed sweep fabric
// (internal/fabric): a coordinator hands out (firstBlock, blockCount)
// shard leases and any worker holding the same Config re-derives the
// same per-block logical-error counts, because block RNG streams depend
// only on (circuit, base seed, block index). The counts it returns feed
// a Frontier, which is the same commit/early-stop core a single-machine
// run uses — so a distributed sweep's result is bit-identical by
// construction, not by coincidence.
package experiment

import (
	"context"
	"fmt"
	"runtime/debug"

	"github.com/fpn/flagproxy/internal/circuit"
	"github.com/fpn/flagproxy/internal/sim"
)

// Validate reports whether cfg is a well-formed experiment
// configuration, applying the same checks RunContext would. The
// distributed coordinator calls it to fail fast on a bad sweep point
// before any worker leases a shard.
func (cfg Config) Validate() error { return validate(cfg) }

// BlockRunner evaluates per-block logical-error counts for one
// (pipeline, Config) pair. It is safe for concurrent CountBlocks calls:
// the decoder pool hands each call a private scratch and each call owns
// its sampler.
type BlockRunner struct {
	cfg   Config
	c     *circuit.Circuit
	pool  *DecoderPool
	total int
}

// NewBlockRunner builds the p-dependent tail of the pipeline — circuit,
// detector error model, decoder — once, for decoding any block range of
// cfg. The Resume, Workers, ShardShots, Fallback and DecodeTimeout
// scheduling knobs are ignored: shard placement and retry policy belong
// to the caller (the fabric coordinator), and per-block counts are
// deterministic regardless of them.
func (pl *Pipeline) NewBlockRunner(cfg Config) (*BlockRunner, error) {
	tl, err := pl.buildTail(cfg)
	if err != nil {
		return nil, err
	}
	return &BlockRunner{
		cfg:   tl.cfg,
		c:     tl.c,
		pool:  NewDecoderPool(tl.dec),
		total: (tl.cfg.Shots + blockShots - 1) / blockShots,
	}, nil
}

// TotalBlocks reports the run's total 64-shot block count — the block
// index space CountBlocks accepts.
func (r *BlockRunner) TotalBlocks() int { return r.total }

// Config returns the normalized configuration the runner was built for
// (Rounds defaulted, pipeline artifacts attached), whose Fingerprint
// identifies the ledger the counts belong to.
func (r *BlockRunner) Config() Config { return r.cfg }

func (r *BlockRunner) blockLen(b int) int {
	if n := r.cfg.Shots - b*blockShots; n < blockShots {
		return n
	}
	return blockShots
}

// CountBlocks samples and decodes blocks [first, first+n) and returns
// their logical-error counts, one entry per block. Any panic below it —
// decoder, matching, sampler — is converted into an error carrying the
// exact (seed, firstBlock) repro instead of unwinding the worker. The
// context is observed between blocks; a cancelled call returns ctx's
// error with no partial counts.
func (r *BlockRunner) CountBlocks(ctx context.Context, first, n int) (counts []int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if first < 0 || n <= 0 || first+n > r.total {
		return nil, fmt.Errorf("experiment: CountBlocks(%d, %d) outside the run's %d blocks", first, n, r.total)
	}
	defer func() {
		if v := recover(); v != nil {
			counts, err = nil, fmt.Errorf("experiment: blocks %d..%d (decoder %s) panicked: %v; repro: seed=%d firstBlock=%d\n%s",
				first, first+n-1, r.cfg.Decoder, v, r.cfg.Seed, first, debug.Stack())
		}
	}()
	dec := r.pool.Get()
	defer dec.Release()
	smp := sim.NewBlockSampler(r.c, n)
	shardLen := r.blockLen(first+n-1) + (n-1)*blockShots
	if err := smp.Validate(first, shardLen); err != nil {
		// Guarded call site: an impossible shard shape is a caller bug;
		// surface it as an error instead of tripping the sampler panic.
		return nil, fmt.Errorf("experiment: CountBlocks(%d, %d): %w", first, n, err)
	}
	sc := shotCounter{c: r.c, dec: dec, res: smp.Run(first, shardLen, r.cfg.Seed)}
	sc.bit = sc.detectorBit
	counts = make([]int, n)
	for b := 0; b < n; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		counts[b] = sc.countShots(b*blockShots, r.blockLen(first+b))
	}
	return counts, nil
}
