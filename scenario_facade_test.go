package remotepeering

// Facade-level tests for the scenario engine surface and the Workers
// validation satellite: every facade option that carries a Workers knob
// must reject negative values with a clear error instead of silently
// resolving them to one-per-CPU.

import (
	"strings"
	"testing"
)

func TestNegativeWorkersRejected(t *testing.T) {
	requireNegErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "negative Workers") {
			t.Errorf("%s with negative Workers: got %v, want a 'negative Workers' error", what, err)
		}
	}

	_, err := GenerateWorld(WorldConfig{Seed: 1, LeafNetworks: 1000, Workers: -1})
	requireNegErr("GenerateWorld", err)

	w := detWorld(t)
	_, err = RunSpreadStudy(w, SpreadOptions{Seed: 1, Workers: -3})
	requireNegErr("RunSpreadStudy", err)

	_, err = CollectTraffic(w, TrafficConfig{Seed: 1, Intervals: 12, Workers: -1})
	requireNegErr("CollectTraffic", err)

	ds, err := CollectTraffic(w, TrafficConfig{Seed: 1, Intervals: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewOffloadStudyOptions(w, ds, OffloadOptions{Workers: -1})
	requireNegErr("NewOffloadStudyOptions", err)

	grid := ScenarioGrid{Scenarios: []Scenario{{Name: "x", Ops: []ScenarioOp{TrafficScale{Factor: 2}}}}}
	_, err = RunScenarios(w, grid, ScenarioOptions{Workers: -1})
	requireNegErr("RunScenarios", err)
}

func TestParseScenarioGridFacade(t *testing.T) {
	grid, err := ParseScenarioGrid("dark=outage:AMS-IX;surge=churn:LINX:40:10,traffic:1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(grid.Scenarios))
	}
	op, err := ParseScenarioOp("latency:city:-3")
	if err != nil {
		t.Fatal(err)
	}
	if ls, ok := op.(LatencyShift); !ok || ls.Band != BandIntercity || ls.DeltaMs != -3 {
		t.Fatalf("unexpected op %#v", op)
	}
}

func TestCloneWorldIndependent(t *testing.T) {
	w := detWorld(t)
	c := CloneWorld(w)
	before := len(w.IXPs[0].Members)
	c.IXPs[0].Members = nil
	if len(w.IXPs[0].Members) != before {
		t.Fatal("clone aliases the parent's memberships")
	}
	if c.Graph != w.Graph {
		t.Fatal("clone should share the frozen AS graph")
	}
}
