// Package parallel is the deterministic execution layer of the
// reproduction: worker pools whose observable results are byte-identical
// for every worker count. The paper's three expensive campaigns — the
// four-month ping-based spread study, the month of NetFlow-style traffic,
// and the greedy offload analysis — all fan out through this package, so
// the rule every helper enforces is the same one the discrete-event
// simulator already lives by: parallelism may change *when* work runs, but
// never *what* it computes.
//
// Three idioms keep results worker-count-invariant:
//
//   - Index-stable output: ForEach/Map/MapErr hand shard i its own output
//     slot i, so merge order is the index order, not completion order.
//   - Fixed shard structure for floating-point reductions: when partial
//     sums must be combined, the shard boundaries come from the problem
//     size (Blocks) or write disjoint indices (Ranges), never from the
//     worker count, so the addition order is fixed.
//   - Deterministic per-shard PRNG seeding: stochastic call sites derive
//     one stats.Source per shard — via stats.Source.Split with a label
//     keyed by the shard's identity (e.g. the IXP index in RunSpreadStudy)
//     — serially, before any goroutine starts, so a shard's random stream
//     does not depend on which worker runs it or in what order.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is a *bound*, clamped to
// the available CPUs; anything else (the zero value of a config field)
// means one worker per available CPU, so `-cpu` in benchmarks and
// GOMAXPROCS in production both steer it.
//
// The clamp is what keeps worker scaling monotonic: the pools run
// CPU-bound shards, and oversubscribing them (workers > GOMAXPROCS)
// buys nothing while paying scheduler interleaving and cache-thrash
// costs — the workers=4 regression BENCH_2 recorded on a smaller
// machine. Results are identical for every value by the package
// invariant, so the clamp is invisible except in wall time.
func Workers(n int) int {
	p := runtime.GOMAXPROCS(0)
	if n > 0 && n < p {
		return n
	}
	return p
}

// ShardPanic is what a pool panics with on its caller's goroutine when a
// shard panicked: the value and the stack of the lowest index that
// panicked. A recover in the caller therefore sees the same value at any
// worker count, and a shard's panic can never kill the process from a
// goroutine no caller can recover on.
type ShardPanic struct {
	Value any
	Stack []byte
}

func (p *ShardPanic) Error() string { return fmt.Sprintf("parallel: shard panicked: %v", p.Value) }

// Unwrap exposes a panic value that is an error to errors.Is and As.
func (p *ShardPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// shardPanic wraps a recovered panic value with the stack of the
// goroutine that raised it; a nested pool's ShardPanic passes through.
func shardPanic(r any) *ShardPanic {
	if p, ok := r.(*ShardPanic); ok {
		return p
	}
	return &ShardPanic{Value: r, Stack: debug.Stack()}
}

// ForEach runs fn(i) for every i in [0,n) across at most workers
// goroutines (0 = GOMAXPROCS). Indices are handed out dynamically, so fn
// must write only to per-index storage for results to be deterministic.
// With one worker (or n ≤ 1) it degenerates to the plain serial loop. If
// fn panics, no further index is handed out, the running ones finish,
// and ForEach panics with a *ShardPanic on the caller's goroutine.
func ForEach(workers, n int, fn func(i int)) {
	run(nil, workers, n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done,
// workers stop picking up new indices and the call returns ctx.Err()
// after every in-flight fn returns (so there are no goroutine leaks and
// no fn still running when the caller resumes). A nil return still
// guarantees every index ran exactly once; a non-nil return means the
// results are partial and must be discarded — which is what MapErrCtx
// does on the caller's behalf. A panicking fn is handled as in ForEach.
//
// The long-lived query service is the motivating caller: an abandoned
// HTTP request cancels its context and the grid cells it was burning stop
// promptly instead of running the campaign to completion.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	run(ctx.Done(), workers, n, fn)
	return ctx.Err()
}

// run is ForEach and ForEachCtx: it stops handing out indices once done
// is closed (a nil done never is) or a shard has panicked.
func run(done <-chan struct{}, workers, n int, fn func(i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		serial(done, n, fn)
		return
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		first   *ShardPanic
		firstAt int
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			i := 0
			defer func() {
				if r := recover(); r != nil {
					stopped.Store(true)
					mu.Lock()
					if first == nil || i < firstAt {
						first, firstAt = shardPanic(r), i
					}
					mu.Unlock()
				}
			}()
			for !stopped.Load() {
				select {
				case <-done:
					return
				default:
				}
				if i = int(next.Add(1)) - 1; i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// serial is run on the caller's goroutine.
func serial(done <-chan struct{}, n int, fn func(i int)) {
	defer func() {
		if r := recover(); r != nil {
			panic(shardPanic(r))
		}
	}()
	for i := 0; i < n; i++ {
		if done != nil {
			select {
			case <-done:
				return
			default:
			}
		}
		fn(i)
	}
}

// MapErrCtx is MapErr with cooperative cancellation. On cancellation it
// returns ctx.Err(); otherwise shards report as in MapErr (the error at
// the smallest index wins, independent of scheduling).
func MapErrCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if err := ForEachCtx(ctx, workers, n, func(i int) { out[i], errs[i] = fn(i) }); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Map computes fn(i) for every i in [0,n) and returns the results in index
// order — the order-stable merge that makes fan-outs replayable.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible shards. All shards run to completion; the
// error reported is the one at the smallest index, so the failure a caller
// sees does not depend on goroutine scheduling.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Ranges splits [0,n) into at most `parts` contiguous near-equal ranges.
// Used to shard output indices (e.g. the intervals of a traffic series):
// each range writes its own disjoint slots, and the value of a slot is
// computed entirely within one range, so any partition gives identical
// results.
func Ranges(parts, n int) []Range {
	p := Workers(parts)
	if p > n {
		p = n
	}
	if p <= 0 {
		return nil
	}
	out := make([]Range, 0, p)
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		if lo < hi {
			out = append(out, Range{lo, hi})
		}
	}
	return out
}

// ForEachRange runs fn over a contiguous partition of [0,n), one range per
// worker. fn must confine its writes to indices inside its range.
func ForEachRange(workers, n int, fn func(lo, hi int)) {
	rs := Ranges(workers, n)
	ForEach(workers, len(rs), func(i int) { fn(rs[i].Lo, rs[i].Hi) })
}

// Blocks splits [0,n) into fixed-size blocks. Unlike Ranges, the block
// structure depends only on n and size — never on the worker count — so
// order-sensitive reductions (floating-point partial sums, map merges) can
// compute one partial per block in parallel and fold the partials in block
// order, yielding bit-identical totals for every worker count.
func Blocks(n, size int) []Range {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = 1
	}
	out := make([]Range, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Range{lo, hi})
	}
	return out
}
