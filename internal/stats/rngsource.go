// Fast drop-in replacement for math/rand's default source.
//
// Profile background: the spread campaign and the scenario grid split
// thousands of labelled child Sources per run, and rand.NewSource's
// seeding — a ~1,900-step Lehmer recurrence feeding a 607-word lagged
// Fibonacci state — showed up as ~25% of whole-grid CPU. Two facts make
// that cost avoidable without changing a single emitted value:
//
//   - The seeded state is a pure function of the seed, so a bounded
//     seed→state cache turns the recurrence into a 4.8 KB copy. The
//     what-if engine re-derives the *same* labelled seeds in every cell
//     that reuses a clean stage, so the hit rate in grid runs is high.
//   - The Lehmer step (48271·x mod 2³¹−1) over a Mersenne modulus
//     reduces with a shift-add fold instead of Schrage division —
//     bit-identical values, substantially cheaper cold seeding.
//
// The replica must emit exactly the stream math/rand would: Source.Split
// seeds are part of the repo's pinned determinism contract. It seeds from
// math/rand's cooked table, generated into rngcooked.go by gen_cooked.go,
// and TestNewRandSourceMatchesMathRand pins it to rand.NewSource.
package stats

//go:generate go run gen_cooked.go

import (
	"math/rand"
	"sync"
)

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// rngState is the seeded 607-word lagged-Fibonacci state.
type rngState [rngLen]int64

// lfsrSource replicates math/rand's additive lagged-Fibonacci source
// (Mitchell & Reeds): Uint64 walks two taps through vec, adding.
type lfsrSource struct {
	tap, feed int
	vec       rngState
}

func (s *lfsrSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lfsrSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *lfsrSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seedState(&s.vec, seed)
}

// seedrand advances the Lehmer seeding recurrence: 48271·x mod 2³¹−1,
// reduced with the Mersenne fold — the same value Schrage's method
// yields, without the division.
func seedrand(x int32) int32 {
	t := 48271 * uint64(x)
	r := (t >> 31) + (t & int32max)
	if r >= int32max {
		r -= int32max
	}
	return int32(r)
}

// seedState fills vec for the given seed exactly as rngSource.Seed does.
func seedState(vec *rngState, seed int64) {
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= rngCooked[i]
			vec[i] = u
		}
	}
}

var (
	// seedCache memoises seeded states. Entries are immutable once
	// stored; FIFO eviction bounds it to ~80 MB (16k states of 4.8 KB —
	// sized so a paper-scale 22-IXP campaign's per-member streams fit
	// without thrashing).
	seedCacheMu    sync.Mutex
	seedCache      = map[int64]*rngState{}
	seedCacheOrder []int64
)

const seedCacheMax = 16384

// newRandSource returns a rand.Source64 seeded like rand.NewSource(seed),
// from the state cache when possible.
func newRandSource(seed int64) rand.Source64 {
	s := &lfsrSource{tap: 0, feed: rngLen - rngTap}
	seedCacheMu.Lock()
	st := seedCache[seed]
	seedCacheMu.Unlock()
	if st != nil {
		s.vec = *st
		return s
	}
	seedState(&s.vec, seed)
	snap := s.vec
	seedCacheMu.Lock()
	if seedCache[seed] == nil {
		if len(seedCacheOrder) >= seedCacheMax {
			delete(seedCache, seedCacheOrder[0])
			seedCacheOrder = seedCacheOrder[1:]
		}
		seedCache[seed] = &snap
		seedCacheOrder = append(seedCacheOrder, seed)
	}
	seedCacheMu.Unlock()
	return s
}
