package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// Retry is the one retry loop of the repository: grid cells, ticks,
// catalog attaches and router failover all go through it. It calls fn
// until it returns nil, returns an error retry rejects, or has run
// attempts times (3 when attempts ≤ 0). After failed attempt n (0-based)
// it waits Backoff(base, max, key, n), so the wait is a pure function of
// (key, attempt) and a retried operation perturbs nothing but wall time.
//
// It returns ctx.Err() when ctx is done before an attempt or during a
// wait. A rejected error comes back as fn returned it; the last of
// attempts retryable errors comes back wrapped with the attempt count,
// so errors.Is and errors.As still see through it.
func Retry(ctx context.Context, attempts int, base, max time.Duration, key string, retry func(error) bool, fn func(attempt int) error) error {
	if attempts <= 0 {
		attempts = 3
	}
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn(n)
		if err == nil || !retry(err) {
			return err
		}
		if n == attempts-1 {
			return fmt.Errorf("failed %d attempts: %w", attempts, err)
		}
		select {
		case <-time.After(Backoff(base, max, key, n)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// PanicError is a panic Contain recovered, injected or real. The stack
// lives here for the caller's log; the error text carries only the key
// and the panic value.
type PanicError struct {
	Key   string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("fault: panic in %s: %v", e.Key, e.Value)
}

// Contain runs fn behind a panic boundary, with the plane's EvalPanic site
// (PanicIf(key)) in front of it, and returns a panic as a *PanicError. A
// nil plane injects nothing and still contains real panics.
func (p *Plane) Contain(key string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Key: key, Value: r, Stack: debug.Stack()}
		}
	}()
	p.PanicIf(key)
	return fn()
}

// Transient reports whether err is worth another attempt: a contained
// panic, or an injected fault other than AttachCorrupt (which stands for
// a damaged file). Real errors — bad grids, impossible selections — fail
// fast, since retrying cannot fix them.
func Transient(err error) bool {
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	c, ok := IsInjected(err)
	return ok && c != AttachCorrupt
}
