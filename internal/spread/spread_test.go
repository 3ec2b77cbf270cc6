package spread

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/parallel"
	"remotepeering/internal/worldgen"
)

var (
	worldOnce sync.Once
	worldVal  *worldgen.World
	worldErr  error
)

// testWorld is a reduced-scale world shared by the package tests.
func testWorld(t *testing.T) *worldgen.World {
	t.Helper()
	worldOnce.Do(func() {
		worldVal, worldErr = worldgen.Generate(worldgen.Config{Seed: 3, LeafNetworks: 1500})
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return worldVal
}

// testOptions is a short campaign over three IXPs. Rounds × pings clear
// the detector's 8-replies-per-LG floor (PCH 3×5, RIPE 3×3).
func testOptions(workers int) Options {
	return Options{
		Seed:    7,
		IXPs:    []int{0, 1, 2},
		Workers: workers,
		Campaign: lg.Config{
			Duration:  8 * 24 * time.Hour,
			PCHRounds: 3, RIPERounds: 3,
		},
	}
}

func run(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(testWorld(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares the fields a campaign's consumers read. Truth is a
// closure, so whole Results cannot be compared. simulated names the IXPs
// got's run simulated (nil: all of them, a fresh run): its Raw must hold
// exactly their share of want's observations.
func sameResult(t *testing.T, what string, got, want *Result, simulated func(ixp int) bool) {
	t.Helper()
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("%s: Report differs", what)
	}
	wantRaw := want.Raw
	if simulated != nil {
		wantRaw = nil
		for _, o := range want.Raw {
			if simulated(o.IXPIndex) {
				wantRaw = append(wantRaw, o)
			}
		}
	}
	if !slices.Equal(got.Raw, wantRaw) {
		t.Errorf("%s: Raw differs (%d vs %d observations)", what, len(got.Raw), len(wantRaw))
	}
	if got.Validation != want.Validation {
		t.Errorf("%s: Validation %+v, want %+v", what, got.Validation, want.Validation)
	}
	if got.Observations != want.Observations {
		t.Errorf("%s: Observations %d, want %d", what, got.Observations, want.Observations)
	}
}

func only(ixp int) func(int) bool { return func(idx int) bool { return idx == ixp } }

func TestReuseAllCleanReproducesSource(t *testing.T) {
	opts := testOptions(1)
	from := run(t, opts)
	opts.Reuse = &Reuse{From: from}
	got := run(t, opts)
	sameResult(t, "all-clean reuse", got, from, func(int) bool { return false })

	// Every IXP was spliced as verdicts: the run simulated and allocated
	// no observation.
	if cap(got.Raw) != 0 {
		t.Errorf("all-clean reuse allocated room for %d observations", cap(got.Raw))
	}
	if _, err := got.Reanalyze(testWorld(t), opts.Detector); !errors.Is(err, ErrPartialRaw) {
		t.Errorf("Reanalyze of a spliced result: %v, want ErrPartialRaw", err)
	}
}

func TestReuseOneDirtyMatchesFreshRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		fresh := run(t, testOptions(workers))
		opts := testOptions(workers)
		from := run(t, opts)
		opts.Reuse = &Reuse{From: from, Dirty: only(1)}
		sameResult(t, "one-dirty reuse", run(t, opts), fresh, only(1))
	}
}

func TestVerdictRangesAliasReport(t *testing.T) {
	opts := testOptions(2)
	res := run(t, opts)
	if !slices.Equal(res.measured(), opts.IXPs) {
		t.Fatalf("recorded IXPs %v, want %v", res.measured(), opts.IXPs)
	}
	lo := 0
	for _, idx := range res.measured() {
		seg := res.ixps[idx].verdicts
		hi := lo
		for hi < len(res.Report.Interfaces) && res.Report.Interfaces[hi].IXPIndex == idx {
			hi++
		}
		if len(seg) == 0 || hi == lo {
			t.Fatalf("IXP %d: empty verdict range", idx)
		}
		if &seg[0] != &res.Report.Interfaces[lo] || len(seg) != hi-lo {
			t.Errorf("IXP %d: verdict range is not Report.Interfaces[%d:%d]", idx, lo, hi)
		}
		if cap(seg) != len(seg) {
			t.Errorf("IXP %d: verdict range cap %d, len %d; an append could overwrite the next IXP", idx, cap(seg), len(seg))
		}
		lo = hi
	}
	if lo != len(res.Report.Interfaces) {
		t.Errorf("verdict ranges cover %d of %d interfaces", lo, len(res.Report.Interfaces))
	}
}

func TestDuplicatedSelectionIsTypedError(t *testing.T) {
	opts := testOptions(1)
	opts.IXPs = []int{1, 0, 1}
	if _, err := Run(testWorld(t), opts); !errors.Is(err, ErrDuplicateIXP) {
		t.Fatalf("duplicated selection: %v, want ErrDuplicateIXP", err)
	}
}

// TestRunSkipsDarkIXPs pins NewCampaignKey as the one rule for which IXPs
// a campaign measures. Over a world whose studied IXP 1 was emptied (an
// outage), Run with no selection measures exactly the key's IXPs, and
// the key matches the result; a selection naming the dark IXP measures
// the rest; an all-dark selection is an error; and a duplicated dark IXP
// is still ErrDuplicateIXP.
func TestRunSkipsDarkIXPs(t *testing.T) {
	dark := testWorld(t).Clone()
	if err := dark.RemoveIXPMembers(1); err != nil {
		t.Fatal(err)
	}
	opts := testOptions(0)
	opts.IXPs = nil
	res, err := Run(dark, opts)
	if err != nil {
		t.Fatalf("a campaign over every studied IXP, one dark: %v", err)
	}
	key, err := NewCampaignKey(dark, opts.Seed, opts.Campaign, opts.Detector, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.measured(); !slices.Equal(got, key.IXPs) || slices.Contains(got, 1) || len(got) != dark.NumStudied()-1 {
		t.Errorf("measured %v, want the key's %v", got, key.IXPs)
	}
	if !key.Matches(res) {
		t.Error("the key of the run's own inputs does not match it")
	}

	opts.IXPs = []int{2, 1, 0}
	if res, err := Run(dark, opts); err != nil || !slices.Equal(res.measured(), []int{0, 2}) {
		t.Errorf("a selection naming the dark IXP: %v, want IXPs [0 2] measured", err)
	}
	opts.IXPs = []int{1}
	if _, err := Run(dark, opts); err == nil {
		t.Error("an all-dark selection was accepted")
	}
	opts.IXPs = []int{1, 0, 1}
	if _, err := Run(dark, opts); !errors.Is(err, ErrDuplicateIXP) {
		t.Errorf("a duplicated dark IXP: %v, want ErrDuplicateIXP", err)
	}
}

func TestReuseRejectsOtherInputs(t *testing.T) {
	from := run(t, testOptions(1))
	for name, edit := range map[string]func(*Options){
		"seed":     func(o *Options) { o.Seed++ },
		"campaign": func(o *Options) { o.Campaign.PCHRounds++ },
		"detector": func(o *Options) { o.Detector.RemoteThreshold = 20 * time.Millisecond },
	} {
		opts := testOptions(1)
		edit(&opts)
		opts.Reuse = &Reuse{From: from, Dirty: only(1)}
		if _, err := Run(testWorld(t), opts); err == nil {
			t.Errorf("Reuse across a different %s was accepted", name)
		}
	}
}

func TestRehydrateMatchesLiveResult(t *testing.T) {
	w := testWorld(t)
	live := run(t, testOptions(1))
	ixps, remote := live.RemoteTruth()
	re, err := Rehydrate(w, live.Seed, live.Campaign, live.Detector, live.Raw, ixps, remote)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rehydrated", re, live, nil)
	for _, r := range live.Report.Interfaces {
		if re.Truth(r.IXPIndex, r.IP) != live.Truth(r.IXPIndex, r.IP) {
			t.Fatalf("IXP %d %v: rehydrated truth differs", r.IXPIndex, r.IP)
		}
	}

	// A rehydrated Result is a splice source.
	opts := testOptions(2)
	opts.Reuse = &Reuse{From: re, Dirty: only(2)}
	sameResult(t, "reuse from a rehydrated result", run(t, opts), live, only(2))
}

func TestRejectsBadInput(t *testing.T) {
	if _, err := Run(nil, testOptions(1)); err == nil {
		t.Error("Run accepted a nil world")
	}
	opts := testOptions(1)
	opts.Workers = -1
	if _, err := Run(testWorld(t), opts); err == nil {
		t.Error("Run accepted negative Workers")
	}
	if _, err := Rehydrate(nil, 7, lg.Config{}, opts.Detector, nil, nil, nil); err == nil {
		t.Error("Rehydrate accepted a nil world")
	}
}

// TestRunRejectsBadCampaign pins that a campaign configuration the
// simulator cannot run is a typed error from Run, never a panic in a
// worker goroutine or a silently wrong campaign.
func TestRunRejectsBadCampaign(t *testing.T) {
	for name, c := range map[string]lg.Config{
		"negative duration":     {Duration: -time.Hour},
		"duration below rounds": {Duration: 5},
		"negative timeout":      {PingTimeout: -time.Second},
		"negative rounds":       {PCHRounds: -1},
		"negative pings":        {PingsPerQueryRIPE: -3},
		"negative spacing":      {QuerySpacing: -time.Minute},
		"interleaving rounds":   {Duration: time.Minute},
	} {
		for _, workers := range []int{1, 2} {
			opts := testOptions(workers)
			opts.Campaign = c
			if _, err := Run(testWorld(t), opts); !errors.Is(err, lg.ErrBadConfig) {
				t.Errorf("%s at %d workers: err = %v, want lg.ErrBadConfig", name, workers, err)
			}
		}
	}
}

// TestRunRepanicsShardPanicOnCaller pins that a panic inside a campaign
// worker — here a panicking Reuse.Dirty — reaches Run's caller instead of
// killing the process from a pool goroutine.
func TestRunRepanicsShardPanicOnCaller(t *testing.T) {
	from := run(t, testOptions(2))
	opts := testOptions(2)
	opts.Reuse = &Reuse{From: from, Dirty: func(int) bool { panic("dirty predicate") }}
	defer func() {
		p, ok := recover().(*parallel.ShardPanic)
		if !ok || p.Value != "dirty predicate" {
			t.Fatalf("recovered %v, want the Dirty predicate's panic as a *parallel.ShardPanic", p)
		}
	}()
	_, _ = Run(testWorld(t), opts)
	t.Fatal("Run returned after its Dirty predicate panicked")
}
