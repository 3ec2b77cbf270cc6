package scenario

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/econ"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
)

// heldOpts is a short pipeline over three IXPs, cheap enough for the
// race detector.
func heldOpts() Options {
	return Options{
		MeasureSeed: 2, TrafficSeed: 3,
		CoverageIXPs: 2, GreedyIXPs: 4, Intervals: 48,
		IXPs:     []int{0, 1, 2, 3},
		Campaign: lg.Config{Duration: 8 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 3},
	}
}

func mustGrid(t *testing.T, spec string) Grid {
	t.Helper()
	g, err := ParseGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runJSON runs the grid and returns its rendered report and held parts.
func runJSON(t *testing.T, g Grid, opts Options) ([]byte, HeldParts) {
	t.Helper()
	rep, err := Run(testWorld(t), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b, rep.Held
}

// TestBaselineHeldByteIdentical pins the holder's contract: a run that
// takes its baseline parts from a holder renders exactly the bytes of a
// run that computes them, the holder hands out a part only when its
// recorded inputs equal the run's, and NoReuse ignores it.
func TestBaselineHeldByteIdentical(t *testing.T) {
	w := testWorld(t)
	b := NewBaseline(nil, nil)
	steps := []struct {
		name string
		grid string
		edit func(*Options)
		want HeldParts
	}{
		{"first", "a=churn:AMS-IX:3:1,traffic:1.2", nil, HeldParts{}},
		{"second", "b=churn:LINX:2:2;c=remoteprice:0.5", nil, HeldParts{Campaign: true, Traffic: true, Offload: true}},
		{"traffic-seed", "b=churn:LINX:2:2", func(o *Options) { o.TrafficSeed = 4 }, HeldParts{Campaign: true}},
		{"detector", "d=outage:AMS-IX", func(o *Options) { o.TrafficSeed = 4; o.Detector.RemoteThreshold = 20 * time.Millisecond }, HeldParts{Traffic: true, Offload: true}},
		{"selection", "d=outage:AMS-IX", func(o *Options) { o.TrafficSeed = 4; o.IXPs = []int{0, 1, 2} }, HeldParts{Traffic: true, Offload: true}},
	}
	for _, st := range steps {
		opts := heldOpts()
		if st.edit != nil {
			st.edit(&opts)
		}
		g := mustGrid(t, st.grid)
		want, _ := runJSON(t, g, opts)
		opts.Baseline = b
		got, held := runJSON(t, g, opts)
		if held != st.want {
			t.Errorf("%s: held %+v, want %+v", st.name, held, st.want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report with a holder differs from the computed one", st.name)
		}
	}

	// NoReuse ignores the holder, and renders the same bytes.
	opts := heldOpts()
	g := mustGrid(t, steps[1].grid)
	want, _ := runJSON(t, g, opts)
	opts.NoReuse, opts.Baseline = true, b
	if got, held := runJSON(t, g, opts); held != (HeldParts{}) || !bytes.Equal(got, want) {
		t.Errorf("NoReuse with a holder: held %+v, bytes equal %v", held, bytes.Equal(got, want))
	}

	// A view's own parts (a snapshot's persisted sections) serve from the
	// first run when their inputs match.
	opts = heldOpts()
	key, err := spread.NewCampaignKey(w, opts.MeasureSeed, opts.Campaign, opts.Detector, opts.IXPs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spread.Run(w, spread.Options{Seed: opts.MeasureSeed, IXPs: key.IXPs, Campaign: opts.Campaign})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := netflow.Collect(w, netflow.Config{Seed: opts.TrafficSeed, Intervals: opts.Intervals})
	if err != nil {
		t.Fatal(err)
	}
	g = mustGrid(t, steps[0].grid)
	want, _ = runJSON(t, g, opts)
	opts.Baseline = NewBaseline(sp, ds)
	got, held := runJSON(t, g, opts)
	if held != (HeldParts{Campaign: true, Traffic: true}) {
		t.Errorf("persisted parts: held %+v, want both", held)
	}
	if !bytes.Equal(got, want) {
		t.Error("report over persisted parts differs from the computed one")
	}
}

// TestBaselineGetOrCompute pins the holder's get-or-compute contract part
// by part. A hit returns the view's own or the held part and runs
// nothing, so it answers even under a cancelled context, where a miss
// returns ctx.Err(). A miss returns the part whole, holds it (a campaign
// without its raw observations), and makes the next request a hit. A nil
// holder computes every time.
func TestBaselineGetOrCompute(t *testing.T) {
	w := testWorld(t)
	opts := heldOpts()
	key, err := spread.NewCampaignKey(w, opts.MeasureSeed, opts.Campaign, opts.Detector, opts.IXPs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	b := NewBaseline(nil, nil)
	if _, held, err := b.Campaign(cancelled, w, key, 0, nil); held || !errors.Is(err, context.Canceled) {
		t.Errorf("campaign miss under a cancelled context: held %v, err %v", held, err)
	}
	sp, held, err := b.Campaign(ctx, w, key, 0, nil)
	if err != nil || held || len(sp.Raw) != sp.Observations {
		t.Fatalf("campaign miss: held %v, err %v, or not whole", held, err)
	}
	got, held, err := b.Campaign(cancelled, w, key, 0, nil)
	if err != nil || !held || got == sp || got.Raw != nil || got.Report != sp.Report {
		t.Errorf("campaign after a miss: held %v, err %v; want the held copy without Raw", held, err)
	}
	if got, held, err := NewBaseline(sp, nil).Campaign(cancelled, w, key, 0, nil); err != nil || !held || got != sp {
		t.Errorf("the view's own campaign: held %v, err %v", held, err)
	}

	tcfg := netflow.Config{Seed: opts.TrafficSeed, Intervals: opts.Intervals}
	ds, held, err := b.Traffic(w, tcfg, nil)
	if err != nil || held {
		t.Fatalf("traffic miss: held %v, err %v", held, err)
	}
	if got, held, err := b.Traffic(w, tcfg, nil); err != nil || !held || got != ds {
		t.Errorf("traffic after a miss: held %v, err %v, same dataset %v", held, err, got == ds)
	}
	if got, held, err := NewBaseline(nil, ds).Traffic(w, tcfg, nil); err != nil || !held || got != ds {
		t.Errorf("the view's own dataset: held %v, err %v", held, err)
	}

	computed := 0
	compute := func() (Metrics, error) {
		computed++
		return Metrics{FittedB: float64(computed)}, nil
	}
	for i, want := range []bool{false, true} {
		if m, held, err := b.offload(ds, 2, 4, compute); err != nil || held != want || m.FittedB != 1 {
			t.Errorf("offload request %d: held %v (want %v), err %v, read-out of computation %v", i, held, want, err, m.FittedB)
		}
	}

	var none *Baseline
	if _, held, err := none.Campaign(cancelled, w, key, 0, nil); held || !errors.Is(err, context.Canceled) {
		t.Errorf("nil holder campaign: held %v, err %v; want a computation", held, err)
	}
	a, heldA, errA := none.Traffic(w, tcfg, nil)
	c, heldC, errC := none.Traffic(w, tcfg, nil)
	if errA != nil || errC != nil || heldA || heldC || a == c {
		t.Error("a nil holder did not compute each dataset")
	}
	none.offload(ds, 2, 4, compute)
	none.offload(ds, 2, 4, compute)
	if computed != 3 {
		t.Errorf("offload computed %d times, want 1 through the holder and 2 through nil", computed)
	}
}

// TestBaselineConcurrentFirstUse races first uses of one holder: every
// run must render the reference bytes, whichever store wins. Run it under
// -race.
func TestBaselineConcurrentFirstUse(t *testing.T) {
	grids := []Grid{
		mustGrid(t, "a=churn:AMS-IX:3:1"),
		mustGrid(t, "b=traffic:1.3"),
		mustGrid(t, "c=outage:LINX;d=portprice:0.7"),
	}
	want := make([][]byte, len(grids))
	for i, g := range grids {
		want[i], _ = runJSON(t, g, heldOpts())
	}
	b := NewBaseline(nil, nil)
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, g := range grids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := heldOpts()
				opts.Workers = 1
				opts.Baseline = b
				rep, err := Run(testWorld(t), g, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := rep.JSON(); !bytes.Equal(got, want[i]) {
					t.Errorf("grid %d: concurrent run with a shared holder differs", i)
				}
			}()
		}
	}
	wg.Wait()
}

// TestBaselineHeldOffload pins the held offload read-out. A second run
// over one holder reports Held.Offload and renders the bytes of a
// holder-less run and of a NoReuse run. Each step below differs from the
// slot's key in one input — the coverage depth, the fit depth, the
// traffic seed, the month's length — and misses; repeating a key holds;
// after Reset the same key misses again.
func TestBaselineHeldOffload(t *testing.T) {
	g := mustGrid(t, "a=churn:AMS-IX:3:1;b=traffic:1.2")
	b := NewBaseline(nil, nil)
	steps := []struct {
		name  string
		edit  func(*Options)
		reset bool
		want  bool
	}{
		{"first", nil, false, false},
		{"second", nil, false, true},
		{"coverage", func(o *Options) { o.CoverageIXPs = 3 }, false, false},
		{"fit", func(o *Options) { o.CoverageIXPs, o.GreedyIXPs = 3, 5 }, false, false},
		{"traffic-seed", func(o *Options) { o.CoverageIXPs, o.GreedyIXPs, o.TrafficSeed = 3, 5, 4 }, false, false},
		{"intervals", func(o *Options) { o.CoverageIXPs, o.GreedyIXPs, o.TrafficSeed, o.Intervals = 3, 5, 4, 24 }, false, false},
		{"repeat", func(o *Options) { o.CoverageIXPs, o.GreedyIXPs, o.TrafficSeed, o.Intervals = 3, 5, 4, 24 }, false, true},
		{"after-reset", func(o *Options) { o.CoverageIXPs, o.GreedyIXPs, o.TrafficSeed, o.Intervals = 3, 5, 4, 24 }, true, false},
	}
	for _, st := range steps {
		opts := heldOpts()
		if st.edit != nil {
			st.edit(&opts)
		}
		want, _ := runJSON(t, g, opts)
		if st.reset {
			b.Reset()
		}
		opts.Baseline = b
		got, held := runJSON(t, g, opts)
		if held.Offload != st.want {
			t.Errorf("%s: held %+v, want Offload %v", st.name, held, st.want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report with a holder differs from the holder-less one", st.name)
		}
		if st.want {
			opts.Baseline, opts.NoReuse = nil, true
			if ref, _ := runJSON(t, g, opts); !bytes.Equal(got, ref) {
				t.Errorf("%s: report on a held read-out differs from the NoReuse one", st.name)
			}
		}
	}
}

// TestHeldOffloadOnlyForTheBaselineCell plants a read-out in a holder,
// through its get-or-compute, under the exact key a run's baseline cell
// looks up. The baseline cell must take it; the churn and outage cells,
// whose offload stage runs over the baseline's own dataset and so meets
// the same key, must compute theirs; and EvalEvolved, handed the holder
// in its options, never reads it either.
func TestHeldOffloadOnlyForTheBaselineCell(t *testing.T) {
	w := testWorld(t)
	opts := heldOpts()
	ds, err := netflow.Collect(w, netflow.Config{Seed: opts.TrafficSeed, Intervals: opts.Intervals})
	if err != nil {
		t.Fatal(err)
	}
	planted := Metrics{PotentialPeers: -1, CoveredNets: -2, OffloadedFrac: -3, FittedB: -4}
	g := mustGrid(t, "a=churn:AMS-IX:3:1;b=outage:LINX")

	ref, err := Run(w, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBaseline(nil, ds)
	plant := func(ds *netflow.Dataset) {
		t.Helper()
		if _, held, err := b.offload(ds, opts.CoverageIXPs, opts.GreedyIXPs, func() (Metrics, error) { return planted, nil }); held || err != nil {
			t.Fatalf("planting the read-out: held %v, err %v", held, err)
		}
	}
	plant(ds)
	opts.Baseline = b
	rep, err := Run(w, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Held.Offload || rep.Baseline.PotentialPeers != planted.PotentialPeers || rep.Baseline.FittedB != planted.FittedB {
		t.Fatalf("baseline cell did not take the planted read-out: held %+v, metrics %+v", rep.Held, rep.Baseline)
	}
	for i, c := range rep.Cells[1:] {
		if c.Metrics != ref.Cells[i+1].Metrics {
			t.Errorf("cell %s read the held part: %+v, want %+v", c.Scenario, c.Metrics, ref.Cells[i+1].Metrics)
		}
	}

	// A tick whose churn leaves the traffic clean runs its offload stage
	// over prev's dataset: the planted key again.
	prev, err := EvalEvolved(context.Background(), &EvolveState{World: w, Traffic: netflow.Config{Seed: opts.TrafficSeed, Intervals: opts.Intervals}, Econ: econ.DefaultParams(0)}, Dirty{}, nil, heldOpts())
	if err != nil {
		t.Fatal(err)
	}
	es := &EvolveState{World: w.Clone(), Traffic: netflow.Config{Seed: opts.TrafficSeed, Intervals: opts.Intervals}, Econ: econ.DefaultParams(0)}
	d, err := ApplyOps(es, []Op{MemberChurn{IXP: "AMS-IX", Join: 3, Leave: 1}}, stats.NewSource(5).Split("tick"))
	if err != nil {
		t.Fatal(err)
	}
	plant(prev.Dataset)
	want, err := EvalEvolved(context.Background(), es, d, prev, heldOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalEvolved(context.Background(), es, d, prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics != want.Metrics || got.held != (HeldParts{}) {
		t.Errorf("EvalEvolved read the holder: %+v (held %+v), want %+v", got.Metrics, got.held, want.Metrics)
	}
}
