package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/econ"
	"remotepeering/internal/netflow"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

var updateJSONGolden = flag.Bool("update-json-golden", false, "rewrite testdata/report_golden.json from the current encoder")

// testWorld is one reduced world shared by the package tests.
var (
	testWorldOnce sync.Once
	testWorldVal  *worldgen.World
	testWorldErr  error
)

func testWorld(t *testing.T) *worldgen.World {
	t.Helper()
	testWorldOnce.Do(func() {
		testWorldVal, testWorldErr = worldgen.Generate(worldgen.Config{Seed: 11, LeafNetworks: 1500})
	})
	if testWorldErr != nil {
		t.Fatal(testWorldErr)
	}
	return testWorldVal
}

// newState builds a fresh cell state over a clone of the test world, and
// the RNG stream its ops draw from.
func newState(t *testing.T) (*EvolveState, *stats.Source) {
	es := &EvolveState{
		World: testWorld(t).Clone(),
		Econ:  econ.DefaultParams(0),
	}
	return es, stats.NewSource(3).Split("test-cell")
}

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []Op{
		IXPOutage{IXP: "AMS-IX"},
		LatencyShift{Band: BandAll, DeltaMs: -3},
		LatencyShift{Band: BandIntercity, DeltaMs: 2.5},
		LatencyShift{Band: BandIntercontinental, DeltaMs: 10},
		MemberChurn{IXP: "LINX", Join: 40, Leave: 10},
		TrafficScale{Factor: 1.5},
		DiurnalShift{Hours: 6},
		PortPrice{Factor: 0.5},
		RemotePrice{Factor: 0.8},
	}
	for _, op := range ops {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if !reflect.DeepEqual(got, op) {
			t.Errorf("round-trip of %q: got %#v, want %#v", op.String(), got, op)
		}
	}
}

func TestParseOpErrors(t *testing.T) {
	for _, bad := range []string{
		"", "outage:", "latency:city", "latency:orbit:3", "latency:city:x",
		"churn:LINX:2", "churn:LINX:a:b", "traffic:zero", "warp:9",
	} {
		if _, err := ParseOp(bad); err == nil {
			t.Errorf("ParseOp(%q) should fail", bad)
		}
	}
}

// TestParseOpMagnitudes pins the parse-time checks on op magnitudes: a
// spec that could only fail, or would silently mis-evaluate, is refused —
// non-finite magnitudes, latency deltas and diurnal hours whose
// nanoseconds overflow a time.Duration, latency deltas past
// MaxLatencyShift (9e12 ms crashed the simulator), traffic factors that
// take the transit totals to infinity, negative churn counts — while
// values up to those bounds parse as they always have. A scenario whose
// ops are each in range but add up past a bound is refused as a whole:
// two diurnal:2.5e6 shifts sum to 5e6 h, whose time.Duration conversion
// Go leaves to the architecture (−9223372036854775808 on amd64).
func TestParseOpMagnitudes(t *testing.T) {
	for _, c := range []struct {
		spec string
		want Op // nil: ParseOp must fail
	}{
		{"latency:city:NaN", nil},
		{"latency:city:Inf", nil},
		{"latency:all:-Inf", nil},
		{"latency:city:1e13", nil},
		{"latency:continent:-1e13", nil},
		{"latency:city:9e12", nil},
		{"latency:city:8.64e7", LatencyShift{Band: BandIntercity, DeltaMs: 8.64e7}},
		{"latency:all:-8.64e7", LatencyShift{Band: BandAll, DeltaMs: -8.64e7}},
		{"latency:country:8.6400001e7", nil},
		{"latency:city:-3", LatencyShift{Band: BandIntercity, DeltaMs: -3}},
		{"diurnal:1e300", nil},
		{"diurnal:-3e9", nil},
		{"diurnal:nan", nil},
		{"diurnal:2.5e6", DiurnalShift{Hours: 2.5e6}},
		{"diurnal:-6", DiurnalShift{Hours: -6}},
		{"traffic:NaN", nil},
		{"traffic:+Inf", nil},
		{"traffic:1.5", TrafficScale{Factor: 1.5}},
		{"traffic:1e300", nil},
		{"traffic:1e298", TrafficScale{Factor: 1e298}},
		{"portprice:inf", nil},
		{"portprice:0.5", PortPrice{Factor: 0.5}},
		{"remoteprice:-Inf", nil},
		{"remoteprice:0.8", RemotePrice{Factor: 0.8}},
		{"churn:DE-CIX:-1:0", nil},
		{"churn:DE-CIX:0:-1", nil},
		{"churn:DE-CIX:20:0", MemberChurn{IXP: "DE-CIX", Join: 20}},
	} {
		got, err := ParseOp(c.spec)
		if c.want == nil {
			if err == nil {
				t.Errorf("ParseOp(%q) = %#v, want an error", c.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseOp(%q) = %#v, %v; want %#v", c.spec, got, err, c.want)
		}
	}
	for _, c := range []struct {
		spec string
		ok   bool
	}{
		{"x=latency:city:9e12,latency:city:9e12", false},
		{"x=latency:city:5e7,latency:all:5e7", false},
		{"x=latency:city:5e7,latency:country:5e7", true},
		{"x=latency:city:5e7,latency:city:-5e7,latency:city:5e7", true},
		{"x=traffic:1e200,traffic:1e200", false},
		{"x=traffic:1e-200,traffic:1e-200", false},
		{"x=traffic:1e200,traffic:1e-200,traffic:1e200", true},
		{"ok=traffic:1.5;x=traffic:1e200,diurnal:3,traffic:1e200", false},
		{"x=diurnal:2.5e6,diurnal:2.5e6", false},
		{"x=diurnal:-2.5e6,diurnal:-2.5e6", false},
		{"x=diurnal:2.5e6,diurnal:-2.5e6,diurnal:2.5e6", true},
	} {
		if _, err := ParseGrid(c.spec); (err == nil) != c.ok {
			t.Errorf("ParseGrid(%q): %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("big-outage=outage:AMS-IX; combo=traffic:1.5,portprice:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(g.Scenarios))
	}
	if g.Scenarios[0].Name != "big-outage" || len(g.Scenarios[1].Ops) != 2 {
		t.Fatalf("unexpected parse: %+v", g.Scenarios)
	}
	if g.Cells() != 3 { // baseline + 2 scenarios × 1 implicit seed
		t.Fatalf("Cells() = %d, want 3", g.Cells())
	}
	if _, err := ParseGrid(" ; "); err == nil {
		t.Fatal("empty grid should fail")
	}
	if _, err := ParseGrid("name="); err == nil {
		t.Fatal("scenario with no ops should fail")
	}
}

func TestIXPOutageApply(t *testing.T) {
	st, src := newState(t)
	if err := (IXPOutage{IXP: "DE-CIX"}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	_, xi, err := st.World.IXPByAcronym("DE-CIX")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.World.IXPs[xi].Members); n != 0 {
		t.Fatalf("DE-CIX still has %d members", n)
	}
	if err := (IXPOutage{IXP: "NO-SUCH"}).apply(st, src); err == nil {
		t.Fatal("unknown IXP should fail")
	}
}

func TestLatencyShiftApply(t *testing.T) {
	st, src := newState(t)
	if err := (LatencyShift{Band: BandIntercity, DeltaMs: -3}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	if err := (LatencyShift{Band: BandAll, DeltaMs: 1}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	want := [3]time.Duration{-2 * time.Millisecond, time.Millisecond, time.Millisecond}
	if st.World.PseudowireDelta != want {
		t.Fatalf("PseudowireDelta = %v, want %v", st.World.PseudowireDelta, want)
	}
	if err := (LatencyShift{Band: 7, DeltaMs: 1}).apply(st, src); err == nil {
		t.Fatal("out-of-range band should fail")
	}
	// Ops built in Go meet the parser's bound on the state they change:
	// the city band already sits at -2 ms, so a full day more is past it,
	// and the refused op changes no band.
	if err := (LatencyShift{Band: BandAll, DeltaMs: -8.64e7}).apply(st, src); err == nil {
		t.Fatal("a shift accumulating past MaxLatencyShift should fail")
	}
	if err := (LatencyShift{Band: BandIntercity, DeltaMs: 9e12}).apply(st, src); err == nil {
		t.Fatal("a 9e12 ms shift should fail")
	}
	if st.World.PseudowireDelta != want {
		t.Fatalf("a refused shift moved PseudowireDelta to %v", st.World.PseudowireDelta)
	}
}

// TestDiurnalShiftApply pins that a phase accumulates across shifts and
// that an op built in Go meets the parser's bound on the sum: the refused
// shift leaves the phase where it was.
func TestDiurnalShiftApply(t *testing.T) {
	st, src := newState(t)
	for _, h := range []float64{2.5e6, -6} {
		if err := (DiurnalShift{Hours: h}).apply(st, src); err != nil {
			t.Fatal(err)
		}
	}
	if st.Traffic.PhaseHours != 2.5e6-6 {
		t.Fatalf("PhaseHours = %v, want %v", st.Traffic.PhaseHours, 2.5e6-6)
	}
	for _, h := range []float64{2.5e6, math.NaN(), math.Inf(-1)} {
		if err := (DiurnalShift{Hours: h}).apply(st, src); err == nil {
			t.Errorf("a %v h shift from %v h should fail", h, 2.5e6-6)
		}
	}
	if st.Traffic.PhaseHours != 2.5e6-6 {
		t.Fatalf("a refused shift moved PhaseHours to %v", st.Traffic.PhaseHours)
	}
}

func TestMemberChurnApply(t *testing.T) {
	st, src := newState(t)
	_, xi, err := st.World.IXPByAcronym("LINX")
	if err != nil {
		t.Fatal(err)
	}
	distinctBefore := len(st.World.IXPs[xi].MemberASNs())
	if err := (MemberChurn{IXP: "LINX", Join: 15, Leave: 5}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	distinctAfter := len(st.World.IXPs[xi].MemberASNs())
	if distinctAfter != distinctBefore+10 {
		t.Fatalf("distinct members %d → %d, want net +10", distinctBefore, distinctAfter)
	}
	if err := (MemberChurn{IXP: "LINX", Join: -1}).apply(st, src); err == nil {
		t.Fatal("negative churn should fail")
	}
}

func TestTrafficAndPriceOpsApply(t *testing.T) {
	st, src := newState(t)
	if err := (TrafficScale{Factor: 1.5}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	if st.Traffic.TotalInboundBps != 1.5*netflow.DefaultInboundBps ||
		st.Traffic.TotalOutboundBps != 1.5*netflow.DefaultOutboundBps {
		t.Fatalf("traffic scale resolved to (%v, %v)", st.Traffic.TotalInboundBps, st.Traffic.TotalOutboundBps)
	}
	if err := (DiurnalShift{Hours: 6}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	if st.Traffic.PhaseHours != 6 {
		t.Fatalf("PhaseHours = %v, want 6", st.Traffic.PhaseHours)
	}
	base := econ.DefaultParams(0)
	if err := (PortPrice{Factor: 0.5}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	if st.Econ.G != base.G*0.5 || st.Econ.H != base.H*0.5 {
		t.Fatalf("port price scaled to g=%v h=%v", st.Econ.G, st.Econ.H)
	}
	if err := (RemotePrice{Factor: 2}).apply(st, src); err != nil {
		t.Fatal(err)
	}
	if st.Econ.H != base.H*0.5*2 || st.Econ.V != base.V*2 {
		t.Fatalf("remote price scaled to h=%v v=%v", st.Econ.H, st.Econ.V)
	}
	if err := (TrafficScale{Factor: 0}).apply(st, src); err == nil {
		t.Fatal("zero traffic factor should fail")
	}
	if err := (TrafficScale{Factor: 1e300}).apply(st, src); err == nil {
		t.Fatal("a traffic factor overflowing the totals should fail")
	}
	if st.Traffic.TotalInboundBps != 1.5*netflow.DefaultInboundBps {
		t.Fatalf("a refused traffic scale moved the inbound total to %v", st.Traffic.TotalInboundBps)
	}
	if err := (PortPrice{Factor: -1}).apply(st, src); err == nil {
		t.Fatal("negative port-price factor should fail")
	}
}

// TestRunLeavesWorldUntouched pins that a grid run never writes the
// caller's world. Cells whose ops rewrite the world (outage, churn,
// latency) do so on clones that share its frozen graph; the baseline,
// seed-offset and config-only cells (traffic, diurnal, prices) read the
// world itself. Its snapshot bytes must not move at any worker count.
func TestRunLeavesWorldUntouched(t *testing.T) {
	w := testWorld(t)
	flat := func() []byte {
		var buf bytes.Buffer
		if _, err := snapshot.WriteFlat(&buf, &snapshot.Snapshot{World: w}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := flat()
	g := mustGrid(t, "churn=churn:AMS-IX:3:2;dark=outage:LINX;fast=latency:city:-3,traffic:1.2;late=diurnal:6;cheap=portprice:0.5,remoteprice:0.8")
	g.Seeds = []int64{0, 1}
	for _, workers := range []int{1, 2} {
		opts := heldOpts()
		opts.Workers = workers
		if _, err := Run(w, g, opts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat(), want) {
			t.Fatalf("workers=%d: the grid run changed the caller's world", workers)
		}
	}
}

func TestRunValidation(t *testing.T) {
	w := testWorld(t)
	grid := Grid{Scenarios: []Scenario{{Name: "x", Ops: []Op{TrafficScale{Factor: 2}}}}}
	if _, err := Run(nil, grid, Options{}); err == nil {
		t.Fatal("nil world should fail")
	}
	// A world not built by Generate or topo.Restore has no frozen graph,
	// so no dense ids to run the offload stage on.
	if _, err := Run(&worldgen.World{}, grid, Options{}); err == nil ||
		!strings.Contains(err.Error(), "not frozen") {
		t.Fatalf("a world without a frozen graph should fail clearly, got %v", err)
	}
	if _, err := EvalEvolved(context.Background(), &EvolveState{World: &worldgen.World{}}, Dirty{}, nil, Options{}); err == nil ||
		!strings.Contains(err.Error(), "not frozen") {
		t.Fatalf("an evolved world without a frozen graph should fail clearly, got %v", err)
	}
	if _, err := Run(w, grid, Options{Workers: -2}); err == nil ||
		!strings.Contains(err.Error(), "negative Workers") {
		t.Fatalf("negative workers should fail clearly, got %v", err)
	}
	if _, err := Run(w, Grid{Scenarios: []Scenario{{}}}, Options{}); err == nil {
		t.Fatal("unnamed scenario should fail")
	}
	reserved := Grid{Scenarios: []Scenario{{Name: "baseline", Ops: []Op{TrafficScale{Factor: 2}}}}}
	if _, err := Run(w, reserved, Options{}); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Fatalf("scenario named baseline should be rejected, got %v", err)
	}
}

// TestReportRendering pins the stable shape of the text and CSV output on
// a hand-built report.
func TestReportRendering(t *testing.T) {
	rep := &Report{
		Baseline:     Metrics{AnalyzedIfaces: 100, DetectedRemote: 10, OffloadedFrac: 0.25, FittedB: 0.3, Viable: true},
		CoverageIXPs: 5,
		GreedyIXPs:   30,
		Cells: []CellResult{
			{Scenario: "baseline", SeedOffset: 0,
				Metrics: Metrics{AnalyzedIfaces: 100, DetectedRemote: 10, OffloadedFrac: 0.25, FittedB: 0.3, Viable: true}},
			{Scenario: "outage", Ops: "outage:AMS-IX", SeedOffset: 1,
				Metrics: Metrics{AnalyzedIfaces: 90, DetectedRemote: 7, OffloadedFrac: 0.20, FittedB: 0.35, Viable: false}},
		},
	}
	text := rep.Text()
	for _, want := range []string{"baseline", "outage", "-3", "false!"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 cells", len(lines))
	}
	if !strings.HasPrefix(lines[0], "scenario,seed_offset,ops,") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
	if !strings.Contains(lines[2], "outage:AMS-IX") {
		t.Errorf("CSV row missing ops column: %q", lines[2])
	}
	d := rep.Cells[1].Diff(rep.Baseline)
	if d.DetectedRemote != -3 || !d.ViableFlipped {
		t.Fatalf("Diff = %+v", d)
	}
}

// TestReportJSONGolden pins the stable JSON encoding on a hand-built
// report against a committed golden: the serve layer and cmd/rpwhatif
// -json share this encoder, and CI diffs their outputs byte-for-byte, so
// the encoding itself is part of the public contract. Regenerate with
// -update-json-golden only when the schema intentionally changes.
func TestReportJSONGolden(t *testing.T) {
	rep := &Report{
		Baseline: Metrics{
			Observations: 123456, AnalyzedIfaces: 100, DetectedRemote: 10,
			BandCounts: [3]int{4, 3, 3}, PotentialPeers: 2192, CoveredNets: 900,
			OffloadedFrac: 0.25, FittedB: 0.3021, Viable: true,
		},
		CoverageIXPs: 5,
		GreedyIXPs:   30,
		Cells: []CellResult{
			{Scenario: "baseline", SeedOffset: 0,
				Metrics: Metrics{
					Observations: 123456, AnalyzedIfaces: 100, DetectedRemote: 10,
					BandCounts: [3]int{4, 3, 3}, PotentialPeers: 2192, CoveredNets: 900,
					OffloadedFrac: 0.25, FittedB: 0.3021, Viable: true,
				}},
			{Scenario: "outage", Ops: "outage:AMS-IX", SeedOffset: 1,
				Metrics: Metrics{
					Observations: 120000, AnalyzedIfaces: 90, DetectedRemote: 7,
					BandCounts: [3]int{3, 2, 2}, PotentialPeers: 2100, CoveredNets: 850,
					OffloadedFrac: 0.2, FittedB: 0.3521, Viable: false,
				}},
		},
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/report_golden.json"
	if *updateJSONGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-json-golden once): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON encoding drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The encoding must also survive a decode into the same shape (the
	// CI smoke diffs a server response against this output after a jq
	// normalisation pass, which requires valid JSON).
	var back ReportJSON
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("rendering is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(back, rep.JSONReport()) {
		t.Error("JSON round trip changed the report shape")
	}
}

// TestRunCtxCancellation pins the service-facing contract: a cancelled
// context stops the grid run with ctx.Err() instead of a report.
func TestRunCtxCancellation(t *testing.T) {
	w := testWorld(t)
	grid := Grid{Scenarios: []Scenario{{Name: "x", Ops: []Op{TrafficScale{Factor: 2}}}}}

	// Pre-cancelled: the runner must notice before evaluating anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, w, grid, Options{Intervals: 96}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunCtx err = %v, want context.Canceled", err)
	}

	// Mid-run: cancel shortly after launch; the run must return the
	// context error long before a full grid would have finished, with no
	// worker goroutines left behind.
	big := Grid{Seeds: []int64{0, 1, 2, 3}}
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		big.Scenarios = append(big.Scenarios, Scenario{Name: name, Ops: []Op{TrafficScale{Factor: 1.5}}})
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	baseline := runtime.NumGoroutine()
	start := time.Now()
	_, err := RunCtx(ctx2, w, big, Options{Intervals: 288})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run RunCtx err = %v, want context.Canceled", err)
	}
	// A full 25-cell grid at this scale takes many seconds (minutes
	// under the race detector); a cancelled run stops at the next cell,
	// stage, or per-IXP boundary — one in-flight IXP simulation of slack,
	// generously bounded below even for race-instrumented CI runs.
	if elapsed > 20*time.Second {
		t.Errorf("cancelled run took %v — cancellation is not prompt", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("goroutines leaked after cancellation: %d running, baseline %d", got, baseline)
	}
}
