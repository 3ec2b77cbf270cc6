package remotepeering

// The reuse-equivalence suite pins the series queries and the scenario
// grid's stage-invalidation reuse to the behaviour of the fresh/full-rerun
// paths, bit for bit. Reuse may only ever change *when* work runs, never
// what it computes; these tests are the enforcement.

import (
	"fmt"
	"reflect"
	"testing"

	"remotepeering/internal/scenario"
	"remotepeering/internal/vecmath"
)

// seriesEquivFixture builds a reduced-scale world+dataset+study triple.
func seriesEquivFixture(t *testing.T, workers int) (*World, *TrafficDataset, *OffloadStudy) {
	t.Helper()
	w := detWorld(t)
	ds, err := CollectTraffic(w, TrafficConfig{Seed: 53, Intervals: 288, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewOffloadStudyOptions(w, ds, OffloadOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return w, ds, s
}

// TestSeriesCachedPathsEquivalent checks, at workers 1/2/8, that every
// way of asking for a series — a repeated query, the map-set overload,
// the nil all-transit selection through either overload — returns
// exactly the series a fresh dataset synthesises, in slices the caller
// owns.
func TestSeriesCachedPathsEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("series equivalence sweeps a month at three worker counts")
	}
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ds, study := seriesEquivFixture(t, workers)
			ixps := []int{0, 3, 12, 40}
			covered := study.CoveredSet(ixps, GroupOpenSelective)

			// A set query, then the same query again.
			in1, out1 := ds.SeriesTotalSet(covered)
			in2, out2 := ds.SeriesTotalSet(covered)
			if !reflect.DeepEqual(in1, in2) || !reflect.DeepEqual(out1, out2) {
				t.Fatal("repeated series query differs from the first")
			}
			// The map overload must share the same bits.
			inMap, outMap := ds.SeriesTotal(study.Covered(ixps, GroupOpenSelective))
			if !reflect.DeepEqual(in1, inMap) || !reflect.DeepEqual(out1, outMap) {
				t.Fatal("SeriesTotal(map) differs from SeriesTotalSet(bitset)")
			}
			// A fresh dataset must agree with everything.
			_, dsFresh, _ := seriesEquivFixture(t, workers)
			inF, outF := dsFresh.SeriesTotalSet(study.CoveredSet(ixps, GroupOpenSelective))
			if !reflect.DeepEqual(in1, inF) || !reflect.DeepEqual(out1, outF) {
				t.Fatal("queried-dataset series differs from a fresh dataset")
			}

			// All-transit path: both overloads vs fresh.
			allIn1, allOut1 := ds.SeriesTotal(nil)
			allIn2, allOut2 := ds.SeriesTotalSet(nil)
			if !reflect.DeepEqual(allIn1, allIn2) || !reflect.DeepEqual(allOut1, allOut2) {
				t.Fatal("all-transit series differs between overloads")
			}
			allInF, allOutF := dsFresh.SeriesTotal(nil)
			if !reflect.DeepEqual(allIn1, allInF) || !reflect.DeepEqual(allOut1, allOutF) {
				t.Fatal("all-transit series differs from a fresh dataset")
			}

			// The caller owns the returned slices: mutating one must not
			// leak into a later query.
			in2[0] += 1e9
			in3, _ := ds.SeriesTotalSet(covered)
			if in3[0] != in1[0] {
				t.Fatal("a caller's mutation leaked into a later series query")
			}
		})
	}
}

// TestSeriesKernelScalarSIMDIdentical pins the SIMD row kernel against
// the pure-Go scalar kernel over a whole dataset synthesis. On machines
// without the kernels both paths are the scalar loop and the test is a
// tautology — which is exactly the claim.
func TestSeriesKernelScalarSIMDIdentical(t *testing.T) {
	_, ds, study := seriesEquivFixture(t, 2)
	covered := study.CoveredSet([]int{0, 5, 12}, GroupAll)

	was := vecmath.SIMDEnabled()
	defer vecmath.SetSIMD(was)

	vecmath.SetSIMD(true)
	_, dsSIMD, _ := seriesEquivFixture(t, 2)
	inS, outS := dsSIMD.SeriesTotalSet(covered)

	vecmath.SetSIMD(false)
	_, dsScalar, _ := seriesEquivFixture(t, 2)
	inP, outP := dsScalar.SeriesTotalSet(covered)

	if !reflect.DeepEqual(inS, inP) || !reflect.DeepEqual(outS, outP) {
		t.Fatal("SIMD and scalar series kernels disagree")
	}
	_ = ds
}

// reuseOpts keeps the reuse-equivalence grids affordable.
func reuseOpts(workers int, noReuse bool) ScenarioOptions {
	o := scenarioTestOptions(workers)
	o.NoReuse = noReuse
	return o
}

// TestScenarioReuseEquivalence runs the shared 7-cell what-if matrix,
// plus a scenario whose ops only re-price the baseline's traffic ranking
// (a demand scale and a diurnal shift), with stage reuse on and off at
// workers 1/2/8: the reports must be deep-equal. Together with
// TestRunScenariosIdenticalAcrossWorkers this pins the reuse machinery
// from both axes.
func TestScenarioReuseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("reuse equivalence re-runs the grid six times")
	}
	w := detWorld(t)
	grid := scenarioTestGrid(t)
	repriced, err := ParseScenarioGrid("peak-shift=traffic:0.8,diurnal:5.5")
	if err != nil {
		t.Fatal(err)
	}
	grid.Scenarios = append(grid.Scenarios, repriced.Scenarios...)
	for _, workers := range []int{1, 2, 8} {
		reused, err := RunScenarios(w, grid, reuseOpts(workers, false))
		if err != nil {
			t.Fatal(err)
		}
		full, err := RunScenarios(w, grid, reuseOpts(workers, true))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, full) {
			t.Errorf("workers=%d: stage-reusing report differs from full rerun", workers)
		}
	}
}

// TestOpStageMaskConsistency is the property test over the op algebra:
// for every op kind, a single-op grid evaluated with stage reuse must be
// byte-identical to the full rerun. An op whose declared mask wrongly
// leaves a stage clean would reuse a stale artifact here and diverge —
// so this is the test that makes each op's mask part of its contract.
func TestOpStageMaskConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("mask property test re-runs one grid per op kind")
	}
	w := detWorld(t)
	ops := []string{
		"outage:MSK-IX",
		"latency:all:2",
		"latency:city:-3",
		"churn:AMS-IX:6:3",
		"traffic:1.3",
		"diurnal:5",
		"portprice:0.6",
		"remoteprice:1.4",
	}
	for _, spec := range ops {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			op, err := ParseScenarioOp(spec)
			if err != nil {
				t.Fatal(err)
			}
			// The closed mask must at least be non-empty — an op with no
			// dirty stages could not perturb anything.
			if scenario.OpStages(op) == 0 {
				t.Fatalf("op %q declares an empty dirty-stage mask", spec)
			}
			grid := ScenarioGrid{Scenarios: []Scenario{{Name: "probe", Ops: []ScenarioOp{op}}}}
			reused, err := RunScenarios(w, grid, reuseOpts(0, false))
			if err != nil {
				t.Fatal(err)
			}
			full, err := RunScenarios(w, grid, reuseOpts(0, true))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, full) {
				t.Errorf("op %q: stage-reusing cell differs from full rerun (mask %v is too permissive)",
					spec, scenario.OpStages(op))
			}
		})
	}
}
