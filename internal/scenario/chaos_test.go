package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"remotepeering/internal/fault"
)

func chaosGrid(t *testing.T) (Grid, Options) {
	t.Helper()
	grid, err := ParseGrid("ams-outage=outage:AMS-IX;surge=traffic:1.4;cheap=remoteprice:0.5")
	if err != nil {
		t.Fatal(err)
	}
	grid.Seeds = []int64{0, 1}
	return grid, Options{
		MeasureSeed: 2, TrafficSeed: 3,
		CoverageIXPs: 3, GreedyIXPs: 8, Intervals: 96,
	}
}

// TestChaosReportByteIdentical is the package's core robustness pin: a
// grid run whose cells keep panicking (injected EvalPanic at a high
// rate) must — via recover-and-retry — produce a report byte-identical
// to the fault-free run, at every worker count.
func TestChaosReportByteIdentical(t *testing.T) {
	w := testWorld(t)
	grid, opts := chaosGrid(t)

	clean, err := Run(w, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, err := json.Marshal(clean.JSONReport())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		for _, seed := range []int64{1, 2} {
			chaotic := opts
			chaotic.Workers = workers
			chaotic.FaultKey = "chaos-test"
			chaotic.CellAttempts = 12 // 0.45^12 ≈ 7e-5: exhaustion is effectively impossible
			var rates fault.Rates
			rates[fault.EvalPanic] = 0.45
			chaotic.Faults = fault.New(fault.Config{Seed: seed, Rates: rates})
			// Fast retries keep the 12-attempt budget cheap in test time.
			rep, err := Run(w, grid, chaotic)
			if err != nil {
				t.Fatalf("workers=%d seed=%d: chaos run failed: %v", workers, seed, err)
			}
			got, err := json.Marshal(rep.JSONReport())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, cleanJSON) {
				t.Errorf("workers=%d seed=%d: chaos report differs from fault-free run", workers, seed)
			}
			if chaotic.Faults.Injected(fault.EvalPanic) == 0 {
				t.Errorf("workers=%d seed=%d: chaos run injected no panics — the test proved nothing", workers, seed)
			}
		}
	}
}

// TestCellRetryExhaustion pins the failure shape when retries run out: a
// *fault.PanicError surfaces (wrapped with the cell's grid coordinates),
// not a panic and not a partial report.
func TestCellRetryExhaustion(t *testing.T) {
	w := testWorld(t)
	grid, opts := chaosGrid(t)
	var rates fault.Rates
	rates[fault.EvalPanic] = 1
	opts.Faults = fault.New(fault.Config{Seed: 9, Rates: rates})
	opts.CellAttempts = 2
	_, err := Run(w, grid, opts)
	if err == nil {
		t.Fatal("rate-1 panic injection produced a report")
	}
	var cp *fault.PanicError
	if !errors.As(err, &cp) {
		t.Errorf("error is %v, want a wrapped *fault.PanicError", err)
	}
	if len(cp.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
}

// TestRealPanicIsContained pins that a genuine evaluation panic — not
// an injected one — is also recovered and, being retryable, does not
// crash the process even when it persists.
func TestRealPanicIsContained(t *testing.T) {
	w := testWorld(t)
	grid := Grid{Scenarios: []Scenario{{Name: "boom", Ops: []Op{panicOp{}}}}}
	opts := Options{MeasureSeed: 2, TrafficSeed: 3, CoverageIXPs: 2, GreedyIXPs: 6, Intervals: 48, CellAttempts: 2}
	_, err := Run(w, grid, opts)
	var cp *fault.PanicError
	if !errors.As(err, &cp) {
		t.Fatalf("error is %v, want a wrapped *fault.PanicError", err)
	}
}

// panicOp is a test-only op that panics on apply.
type panicOp struct{}

func (panicOp) String() string              { return "panic-op" }
func (panicOp) apply(*state) error          { panic("panic-op fired") }
func (panicOp) stages() StageMask           { return StageAll }
func (panicOp) dirtySims() (bool, []string) { return true, nil }
