// Online serving seam: the p-dependent tail of a pipeline — circuit,
// shared decoder pool, lazy fallback pools — packaged for long-running
// services that decode externally supplied syndromes one at a time
// instead of sweeping sampled shots. The decode stack is byte-for-byte
// the sweep engine's (buildTail, NewDecoderPool, the same fallback
// construction), so a correction computed online is bit-identical to
// what an offline batch sweep would have committed for the same
// syndrome.
package experiment

import (
	"sync"

	"github.com/fpn/flagproxy/internal/circuit"
)

// Online exposes one configured decode stack for streaming use. It is
// safe for concurrent Acquire/AcquireFallback calls; each returned
// PooledDecoder is single-goroutine property of its caller until
// Release.
type Online struct {
	cfg  Config
	c    *circuit.Circuit
	pool *DecoderPool
	mk   func(DecoderKind) (Decoder, error)

	mu      sync.Mutex
	fbPools map[DecoderKind]*DecoderPool
}

// NewOnline builds the online decode stack for cfg through exactly the
// sweep engine's tail. cfg.Shots is a sweep-budget knob with no online
// meaning and defaults to 1 to satisfy validation; everything else —
// decoder kind, fallback chain, P, Rounds, Basis, WrapDecoder — carries
// its usual contract.
func (pl *Pipeline) NewOnline(cfg Config) (*Online, error) {
	if cfg.Shots <= 0 {
		cfg.Shots = 1
	}
	tl, err := pl.buildTail(cfg)
	if err != nil {
		return nil, err
	}
	return &Online{cfg: tl.cfg, c: tl.c, pool: NewDecoderPool(tl.dec), mk: tl.mk}, nil
}

// Circuit returns the noisy memory circuit the decoder was extracted
// from: its Detectors (with per-round metadata) define the syndrome
// layout an online stream must follow, its Observables the correction
// layout.
func (o *Online) Circuit() *circuit.Circuit { return o.c }

// Config returns the normalized configuration (defaults resolved), the
// one whose Fingerprint identifies this stack on the wire.
func (o *Online) Config() Config { return o.cfg }

// Acquire borrows a primary-decoder handle. Callers own it until
// Release; a handle abandoned to a stuck decode goroutine (deadline
// expiry) is simply never released, exactly as in the sweep engine.
func (o *Online) Acquire() *PooledDecoder { return o.pool.Get() }

// AcquireFallback borrows a handle on the shared pool for fallback kind
// k, building the pool on first use. It returns nil when k cannot be
// constructed for this model — the caller skips down the chain, same as
// the engine's fallbackPool.
func (o *Online) AcquireFallback(k DecoderKind) *PooledDecoder {
	o.mu.Lock()
	p, ok := o.fbPools[k]
	if !ok {
		if o.mk != nil {
			if d, err := o.mk(k); err == nil {
				p = NewDecoderPool(d)
			}
		}
		if o.fbPools == nil {
			o.fbPools = map[DecoderKind]*DecoderPool{}
		}
		o.fbPools[k] = p
	}
	o.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Get()
}

// MemoStats sums the batch-memo counters over the primary pool and
// every fallback pool built so far.
func (o *Online) MemoStats() (hits, misses int64) {
	hits, misses = o.pool.MemoStats()
	o.mu.Lock()
	defer o.mu.Unlock()
	//fpnvet:orderless commutative sum of per-pool counters; order cannot affect the total
	for _, p := range o.fbPools {
		if p != nil {
			h, m := p.MemoStats()
			hits += h
			misses += m
		}
	}
	return hits, misses
}
