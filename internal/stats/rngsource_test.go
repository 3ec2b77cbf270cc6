package stats

import (
	"fmt"
	"runtime"
	"testing"
)

// TestCacheHitSharesState pins what a cache hit costs: a stream that
// draws no more than 273 values reads the cached state in place, so 1,000
// such streams allocate their handles and nothing else. A 4.8 KB state
// copy per stream would be about 5 MB.
func TestCacheHitSharesState(t *testing.T) {
	const n, draws = 1000, 273
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i)*7919 + 13
		newRandSource(seeds[i]) // the cache holds every state
	}
	var sink float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, seed := range seeds {
		src := NewSource(seed)
		for k := 0; k < draws; k++ {
			sink += src.Float64()
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("%d cache-hit streams of %d draws allocated %d B, want under 1 MB", n, draws, got)
	}
	if sink == 0 {
		t.Error("no draws")
	}
}

var benchSink float64

// BenchmarkSourceDraws is a cache hit plus n draws: the short streams
// that read the shared state in place, and the long ones that copy it at
// draw 274 and pay the per-draw cost on their own state after that.
func BenchmarkSourceDraws(b *testing.B) {
	const seed = 20260618
	newRandSource(seed) // every iteration below hits the cache
	for _, n := range []int{16, 200, 1000, 100000} {
		b.Run(fmt.Sprintf("draws=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				src := NewSource(seed)
				for k := 0; k < n; k++ {
					sink += src.Float64()
				}
			}
			benchSink = sink
		})
	}
}
