package scenario

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
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
		{"second", "b=churn:LINX:2:2;c=remoteprice:0.5", nil, HeldParts{Campaign: true, Traffic: true}},
		{"traffic-seed", "b=churn:LINX:2:2", func(o *Options) { o.TrafficSeed = 4 }, HeldParts{Campaign: true}},
		{"detector", "d=outage:AMS-IX", func(o *Options) { o.TrafficSeed = 4; o.Detector.RemoteThreshold = 20 * time.Millisecond }, HeldParts{Traffic: true}},
		{"selection", "d=outage:AMS-IX", func(o *Options) { o.TrafficSeed = 4; o.IXPs = []int{0, 1, 2} }, HeldParts{Traffic: true}},
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
