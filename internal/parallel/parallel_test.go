package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"remotepeering/internal/stats"
)

func TestWorkersResolution(t *testing.T) {
	p := runtime.GOMAXPROCS(0)
	// Positive counts are a bound, clamped to the available CPUs: the
	// pools run CPU-bound shards, so oversubscription is never useful.
	want3 := 3
	if p < 3 {
		want3 = p
	}
	if got := Workers(3); got != want3 {
		t.Errorf("Workers(3) = %d, want min(3, GOMAXPROCS) = %d", got, want3)
	}
	if got := Workers(p + 7); got != p {
		t.Errorf("Workers(GOMAXPROCS+7) = %d, want clamp to %d", got, p)
	}
	if got := Workers(0); got != p {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, p)
	}
	if got := Workers(-5); got != p {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, p)
	}
	if p > 1 {
		if got := Workers(1); got != 1 {
			t.Errorf("Workers(1) = %d, want 1", got)
		}
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 1000
		hits := make([]int, n)
		ForEach(workers, n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	// Degenerate sizes.
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
}

func TestMapOrderStable(t *testing.T) {
	want := make([]int, 500)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 8} {
		got := Map(workers, len(want), func(i int) int { return i * i })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Map result not index-ordered", workers)
		}
	}
}

func TestMapErrReportsSmallestIndex(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := MapErr(8, 100, func(i int) (int, error) {
		if i == 90 {
			return 0, fmt.Errorf("late %d", i)
		}
		if i == 17 {
			return 0, fmt.Errorf("first: %w", sentinel)
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the error at the smallest index", err)
	}
	vals, err := MapErr(4, 10, func(i int) (int, error) { return i, nil })
	if err != nil || len(vals) != 10 || vals[9] != 9 {
		t.Fatalf("clean MapErr: %v %v", vals, err)
	}
}

func TestRangesPartition(t *testing.T) {
	for _, tc := range []struct{ parts, n int }{{1, 10}, {3, 10}, {10, 3}, {4, 0}, {7, 7}} {
		rs := Ranges(tc.parts, tc.n)
		covered := 0
		prev := 0
		for _, r := range rs {
			if r.Lo != prev {
				t.Fatalf("parts=%d n=%d: gap before %d", tc.parts, tc.n, r.Lo)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("parts=%d n=%d: empty range %+v", tc.parts, tc.n, r)
			}
			covered += r.Hi - r.Lo
			prev = r.Hi
		}
		if covered != tc.n {
			t.Fatalf("parts=%d n=%d: covered %d", tc.parts, tc.n, covered)
		}
	}
}

func TestForEachRangeWritesDisjoint(t *testing.T) {
	n := 997 // prime, to exercise uneven splits
	for _, workers := range []int{1, 3, 8} {
		out := make([]int, n)
		ForEachRange(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = i + 1
			}
		})
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d = %d", workers, i, v)
			}
		}
	}
}

func TestBlocksIndependentOfWorkers(t *testing.T) {
	a := Blocks(1000, 64)
	b := Blocks(1000, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Blocks not deterministic")
	}
	total := 0
	for _, r := range a {
		total += r.Hi - r.Lo
	}
	if total != 1000 {
		t.Fatalf("blocks cover %d of 1000", total)
	}
	if len(Blocks(0, 64)) != 0 {
		t.Error("Blocks(0) should be empty")
	}
}

// TestBlockReductionBitIdentical is the package's core guarantee,
// exercised the way production code composes it (Blocks + Map + a serial
// fold in block order): a floating-point reduction over fixed blocks gives
// bit-identical results for every worker count, even though a naive
// per-worker accumulation would not.
func TestBlockReductionBitIdentical(t *testing.T) {
	n := 10_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1.0 / float64(i+3) // non-associative-friendly magnitudes
	}
	sum := func(workers int) float64 {
		blocks := Blocks(n, 128)
		parts := Map(workers, len(blocks), func(bi int) float64 {
			s := 0.0
			for i := blocks[bi].Lo; i < blocks[bi].Hi; i++ {
				s += xs[i]
			}
			return s
		})
		total := 0.0
		for _, p := range parts {
			total += p
		}
		return total
	}
	base := sum(1)
	for _, workers := range []int{2, 3, 8, 32} {
		if got := sum(workers); got != base {
			t.Fatalf("workers=%d: sum %v != workers=1 sum %v", workers, got, base)
		}
	}
}

// TestPerShardSeedingConsumptionIndependent pins the property the
// package doc relies on: per-shard sources split from a parent depend only
// on the parent's seed lineage and the shard label, not on how much of the
// parent has been consumed — which is what keeps stochastic shards
// replayable under any worker count.
func TestPerShardSeedingConsumptionIndependent(t *testing.T) {
	split := func(parent *stats.Source) []*stats.Source {
		out := make([]*stats.Source, 4)
		for i := range out {
			out[i] = parent.Split(fmt.Sprintf("shard-%d", i))
		}
		return out
	}
	a := split(stats.NewSource(42))
	parent := stats.NewSource(42)
	parent.Float64() // consuming the parent must not disturb the children
	b := split(parent)
	for i := range a {
		for k := 0; k < 8; k++ {
			if a[i].Float64() != b[i].Float64() {
				t.Fatalf("shard %d draw %d differs", i, k)
			}
		}
	}
	// Distinct shards must be distinct streams.
	c := split(stats.NewSource(42))
	if c[0].Float64() == c[1].Float64() {
		t.Error("adjacent shards produced identical first draws")
	}
}

// TestForEachCtxCancellation pins the service-facing contract: a context
// cancelled mid-fan-out makes ForEachCtx return ctx.Err() promptly, with
// every in-flight shard finished and no goroutine left behind.
func TestForEachCtxCancellation(t *testing.T) {
	const n = 1_000_000
	ctx, cancel := context.WithCancel(context.Background())
	var started, finished atomic.Int64
	baseline := runtime.NumGoroutine()
	err := ForEachCtx(ctx, 4, n, func(i int) {
		if started.Add(1) == 8 {
			cancel() // fire after a handful of cells
		}
		finished.Add(1)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := finished.Load(); got != started.Load() {
		t.Errorf("%d shards started but only %d finished before return", started.Load(), got)
	}
	if got := started.Load(); got >= n {
		t.Errorf("cancellation did not stop the fan-out early (ran all %d cells)", got)
	}
	// The pool must not leak workers: poll briefly for the goroutine count
	// to settle back to the pre-call level.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("goroutines leaked: %d running, baseline %d", got, baseline)
	}
}

// TestForEachCtxCompletesWithoutCancel pins that a never-cancelled context
// changes nothing: all indices run exactly once and the error is nil.
func TestForEachCtxCompletesWithoutCancel(t *testing.T) {
	const n = 500
	hits := make([]atomic.Int32, n)
	if err := ForEachCtx(context.Background(), 3, n, func(i int) { hits[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hits[i].Load())
		}
	}
}

// TestMapErrCtxCancelled pins that MapErrCtx surfaces the context error
// rather than a shard error once cancelled.
func TestMapErrCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapErrCtx(ctx, 2, 64, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPoolsRepanicOnCaller pins the panic contract of every pool: a
// shard's panic reaches the caller's goroutine as a *ShardPanic carrying
// the same value and the shard's stack, at one worker and at several,
// no further index is handed out once a shard panicked, and no worker
// outlives the call.
func TestPoolsRepanicOnCaller(t *testing.T) {
	errBoom := errors.New("boom")
	const n, bad = 400, 3
	pools := map[string]func(workers int, fn func(i int)){
		"ForEach": func(workers int, fn func(i int)) { ForEach(workers, n, fn) },
		"ForEachCtx": func(workers int, fn func(i int)) {
			_ = ForEachCtx(context.Background(), workers, n, fn)
		},
		"Map": func(workers int, fn func(i int)) {
			Map(workers, n, func(i int) int { fn(i); return i })
		},
		"MapErrCtx": func(workers int, fn func(i int)) {
			_, _ = MapErrCtx(context.Background(), workers, n, func(i int) (int, error) { fn(i); return i, nil })
		},
	}
	for name, pool := range pools {
		for _, workers := range []int{1, 4} {
			baseline := runtime.NumGoroutine()
			var ran atomic.Int64
			recovered := func() (r any) {
				defer func() { r = recover() }()
				pool(workers, func(i int) {
					ran.Add(1)
					if i == bad {
						panic(errBoom)
					}
					time.Sleep(100 * time.Microsecond)
				})
				return nil
			}()
			what := fmt.Sprintf("%s at %d workers", name, workers)
			p, ok := recovered.(*ShardPanic)
			if !ok {
				t.Fatalf("%s: recovered %v (%T), want a *ShardPanic", what, recovered, recovered)
			}
			if p.Value != errBoom || !errors.Is(p, errBoom) {
				t.Errorf("%s: recovered value %v, want %v", what, p.Value, errBoom)
			}
			if st := string(p.Stack); !strings.Contains(st, "panic(") || !strings.Contains(st, "TestPoolsRepanicOnCaller.func") {
				t.Errorf("%s: stack does not name the panicking shard:\n%s", what, p.Stack)
			}
			if got := ran.Load(); got >= n {
				t.Errorf("%s: all %d indices ran after index %d panicked", what, got, bad)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > baseline {
				t.Errorf("%s: goroutines leaked: %d running, baseline %d", what, got, baseline)
			}
		}
	}
}
