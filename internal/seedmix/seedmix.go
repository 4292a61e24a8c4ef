// Package seedmix derives statistically independent RNG seeds from a
// single base seed. The shard engine in package experiment seeds every
// 64-shot sampling block with Derive(base, blockIndex), and the sweep
// drivers derive one seed per (figure, decoder, basis, p) point, so
// shards and sweep points get distinct 64-bit seeds while the whole run
// stays reproducible from one -seed flag. math/rand's Seed reduces a
// seed mod 2³¹−1, so two of the resulting streams can still coincide,
// rarely (DESIGN.md, decision 6).
package seedmix

import "math"

// Mix64 is the splitmix64 finalizer: a bijective avalanche mixer whose
// outputs pass BigCrush even on sequential inputs, which is exactly the
// property block-indexed seeding needs.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Derive folds the given words into the base seed one mixing round at a
// time. Absorbing each word through Mix64 (rather than XORing them all
// first) keeps e.g. (a, b) and (b, a) distinct.
func Derive(base int64, words ...uint64) int64 {
	h := Mix64(uint64(base))
	for _, w := range words {
		h = Mix64(h ^ w)
	}
	return int64(h)
}

// String hashes s with FNV-1a for use as a Derive word.
func String(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Float exposes a float64 (e.g. a physical error rate) as a Derive word.
func Float(f float64) uint64 { return math.Float64bits(f) }
