package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

var (
	errTransient = errors.New("transient")
	errRejected  = errors.New("rejected")
)

// TestRetry pins the loop's contract: where it stops, what it returns,
// and that a done context ends it without another attempt.
func TestRetry(t *testing.T) {
	retryable := func(err error) bool { return errors.Is(err, errTransient) }
	cases := []struct {
		name     string
		attempts int
		wait     time.Duration // backoff base and max
		cancel   bool          // cancel the context before the first attempt
		fn       func(attempt int, cancel context.CancelFunc) error
		calls    int
		check    func(t *testing.T, err error)
	}{
		{
			name: "success on attempt 2 stops there", attempts: 5,
			fn: func(n int, _ context.CancelFunc) error {
				if n < 2 {
					return errTransient
				}
				return nil
			},
			calls: 3,
			check: func(t *testing.T, err error) {
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
			},
		},
		{
			name: "rejected error returns at once, unwrapped", attempts: 5,
			fn:    func(int, context.CancelFunc) error { return errRejected },
			calls: 1,
			check: func(t *testing.T, err error) {
				if err != errRejected {
					t.Errorf("err = %v, want the rejected error itself", err)
				}
			},
		},
		{
			name: "last retryable failure returns wrapped", attempts: 4,
			fn:    func(n int, _ context.CancelFunc) error { return fmt.Errorf("attempt %d: %w", n, errTransient) },
			calls: 4,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, errTransient) || err.Error() != "failed 4 attempts: attempt 3: transient" {
					t.Errorf("err = %v, want the last failure wrapped with the attempt count", err)
				}
			},
		},
		{
			name: "zero attempts means 3", attempts: 0,
			fn:    func(int, context.CancelFunc) error { return errTransient },
			calls: 3,
		},
		{
			name: "negative attempts means 3", attempts: -1,
			fn:    func(int, context.CancelFunc) error { return errTransient },
			calls: 3,
		},
		{
			name: "context done before the first attempt", attempts: 3, cancel: true,
			fn:    func(int, context.CancelFunc) error { return nil },
			calls: 0,
			check: func(t *testing.T, err error) {
				if err != context.Canceled {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			},
		},
		{
			name: "cancel during a wait", attempts: 3, wait: time.Hour,
			fn: func(_ int, cancel context.CancelFunc) error {
				time.AfterFunc(5*time.Millisecond, cancel)
				return errTransient
			},
			calls: 1,
			check: func(t *testing.T, err error) {
				if err != context.Canceled {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wait := tc.wait
			if wait == 0 {
				wait = time.Nanosecond
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			var seen []int
			start := time.Now()
			err := Retry(ctx, tc.attempts, wait, wait, "k", retryable, func(n int) error {
				seen = append(seen, n)
				return tc.fn(n, cancel)
			})
			if len(seen) != tc.calls {
				t.Errorf("made %d attempts, want %d", len(seen), tc.calls)
			}
			for i, n := range seen {
				if n != i {
					t.Errorf("attempt %d was passed %d", i, n)
				}
			}
			if tc.check != nil {
				tc.check(t, err)
			}
			if d := time.Since(start); d > time.Minute {
				t.Errorf("took %v", d)
			}
		})
	}
}

// TestContain pins the panic boundary and the classifier the retry sites
// share.
func TestContain(t *testing.T) {
	p := New(Config{Seed: 1, Rates: rates(EvalPanic, 1)})
	err := p.Contain("cell", func() error {
		t.Error("fn ran after an injected panic")
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Key != "cell" || len(pe.Stack) == 0 {
		t.Fatalf("injected panic: err = %#v, want *PanicError with key and stack", err)
	}
	if inj, ok := pe.Value.(*Injected); !ok || inj.Class != EvalPanic {
		t.Errorf("injected panic value = %#v", pe.Value)
	}

	var nilPlane *Plane
	err = nilPlane.Contain("real", func() error { panic("boom") })
	var real *PanicError
	if !errors.As(err, &real) || real.Value != "boom" || len(real.Stack) == 0 {
		t.Fatalf("real panic: err = %#v, want *PanicError with value and stack", err)
	}

	ran := false
	if err := nilPlane.Contain("k", func() error { ran = true; return errRejected }); err != errRejected || !ran {
		t.Errorf("nil plane: err = %v, ran = %v; want fn's own error", err, ran)
	}

	faults := New(Config{Seed: 1, Rates: Rates{AttachFail: 1, AttachCorrupt: 1}})
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"injected panic", fmt.Errorf("cell: %w", pe), true},
		{"real panic", real, true},
		{"injected attach failure", faults.Err(AttachFail, "w"), true},
		{"injected corrupt read", faults.Err(AttachCorrupt, "w"), false},
		{"plain error", errRejected, false},
		{"nil", nil, false},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
