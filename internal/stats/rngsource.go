// Fast drop-in replacement for math/rand's default source.
//
// Profile background: the spread campaign and the scenario grid split
// thousands of labelled child Sources per run, and rand.NewSource's
// seeding — a ~1,900-step Lehmer recurrence feeding a 607-word lagged
// Fibonacci state — showed up as ~25% of whole-grid CPU. Three facts make
// that cost avoidable without changing a single emitted value:
//
//   - The seeded state is a pure function of the seed, so a bounded
//     seed→state cache turns the recurrence into a lookup. The what-if
//     engine re-derives the *same* labelled seeds in every cell that
//     reuses a clean stage, so the hit rate in grid runs is high.
//   - Cached states are shared and immutable, and a cache hit is a
//     pointer, not a 4.8 KB copy: a stream reads the shared state in
//     place for its first 273 draws, which are the draws that read no
//     word the stream wrote itself. Only a stream that draws more copies
//     the state (see drawShared). Most streams draw far fewer.
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
// (Mitchell & Reeds): each draw walks two taps through the state, adding,
// and writes the sum back at the feed tap. It starts on a shared seeded
// state (base) and takes its own copy (vec) only at its first draw that
// reads a word it wrote itself.
type lfsrSource struct {
	tap, feed int
	vec       *rngState // the stream's own state; nil while it reads base
	base      *rngState // the shared seeded state; never written
}

func (s *lfsrSource) Uint64() uint64 {
	if vec := s.vec; vec != nil {
		return s.draw(vec)
	}
	return s.drawShared()
}

// Int63 repeats Uint64's dispatch instead of calling it: Uint64 is too
// large to inline, and a second call is a measurable share of a draw.
func (s *lfsrSource) Int63() int64 {
	if vec := s.vec; vec != nil {
		return int64(s.draw(vec) & rngMask)
	}
	return int64(s.drawShared() & rngMask)
}

// draw is one step on the stream's own state, vec.
func (s *lfsrSource) draw(vec *rngState) uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	x := vec[feed] + vec[tap]
	vec[feed] = x
	return uint64(x)
}

// drawShared is one step on the shared seeded state. Draw k (from 1)
// reads words 334−k (the feed) and 607−k (the tap) and writes the feed.
// Up to draw 273 the tap lies above every feed written so far, so a draw
// reads only seeded words and its write can be deferred: the stream reads
// base in place and writes nothing. Draw 274's tap is word 333, which
// draw 1 wrote, so that draw copies base, replays the 273 deferred writes
// (word p = base[p] + base[p+273] for p = 61…333) and continues on the
// copy.
func (s *lfsrSource) drawShared() uint64 {
	if s.feed == rngLen-2*rngTap {
		vec := new(rngState)
		*vec = *s.base
		for p := rngLen - 2*rngTap; p < rngLen-rngTap; p++ {
			vec[p] = s.base[p] + s.base[p+rngTap]
		}
		s.vec, s.base = vec, nil
		return s.draw(vec)
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	return uint64(s.base[s.feed] + s.base[s.tap])
}

func (s *lfsrSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	if s.vec == nil {
		s.vec = new(rngState)
	}
	s.base = nil
	seedState(s.vec, seed)
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
	// stored and shared by every source seeded from them; FIFO eviction
	// bounds it to ~80 MB (16k states of 4.8 KB — sized so a paper-scale
	// 22-IXP campaign's per-member streams fit without thrashing).
	seedCacheMu    sync.Mutex
	seedCache      = map[int64]*rngState{}
	seedCacheOrder []int64
)

const seedCacheMax = 16384

// newRandSource returns a rand.Source64 seeded like rand.NewSource(seed).
// It reads the cached state for seed in place, seeding and caching one on
// a miss.
func newRandSource(seed int64) rand.Source64 {
	seedCacheMu.Lock()
	st := seedCache[seed]
	seedCacheMu.Unlock()
	if st == nil {
		st = new(rngState)
		seedState(st, seed)
		seedCacheMu.Lock()
		if prev := seedCache[seed]; prev != nil {
			st = prev
		} else {
			if len(seedCacheOrder) >= seedCacheMax {
				delete(seedCache, seedCacheOrder[0])
				seedCacheOrder = seedCacheOrder[1:]
			}
			seedCache[seed] = st
			seedCacheOrder = append(seedCacheOrder, seed)
		}
		seedCacheMu.Unlock()
	}
	return &lfsrSource{feed: rngLen - rngTap, base: st}
}
