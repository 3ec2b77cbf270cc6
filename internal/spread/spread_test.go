package spread

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/lg"
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
// closure, so whole Results cannot be compared.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("%s: Report differs", what)
	}
	if !slices.Equal(got.Raw, want.Raw) {
		t.Errorf("%s: Raw differs (%d vs %d observations)", what, len(got.Raw), len(want.Raw))
	}
	if got.Validation != want.Validation {
		t.Errorf("%s: Validation %+v, want %+v", what, got.Validation, want.Validation)
	}
	if got.Observations != want.Observations {
		t.Errorf("%s: Observations %d, want %d", what, got.Observations, want.Observations)
	}
}

func TestReuseAllCleanReproducesSource(t *testing.T) {
	opts := testOptions(1)
	opts.Retain = true
	from := run(t, opts)
	opts.Retain = false
	opts.Reuse = &Reuse{From: from}
	sameResult(t, "all-clean reuse", run(t, opts), from)

	// The clean IXPs were spliced from segments of the source's Raw, so
	// a change to it shows through.
	from.Raw[0].RTT++
	if got := run(t, opts); got.Raw[0] != from.Raw[0] {
		t.Error("all-clean reuse did not splice the source's Raw")
	}
}

func TestReuseOneDirtyMatchesFreshRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		fresh := run(t, testOptions(workers))
		opts := testOptions(workers)
		opts.Retain = true
		from := run(t, opts)
		opts.Retain = false
		opts.Reuse = &Reuse{From: from, Dirty: func(idx int) bool { return idx == 1 }}
		sameResult(t, "one-dirty reuse", run(t, opts), fresh)
	}
}

func TestRetainedSegmentsAliasRaw(t *testing.T) {
	opts := testOptions(2)
	opts.Retain = true
	res := run(t, opts)
	if len(res.perIXP) != len(opts.IXPs) {
		t.Fatalf("retained %d segments for %d IXPs", len(res.perIXP), len(opts.IXPs))
	}
	for idx, seg := range res.perIXP {
		lo := slices.IndexFunc(res.Raw, func(o lg.Observation) bool { return o.IXPIndex == idx })
		if lo < 0 || len(seg) == 0 {
			t.Fatalf("IXP %d: empty segment or absent from Raw", idx)
		}
		hi := lo
		for hi < len(res.Raw) && res.Raw[hi].IXPIndex == idx {
			hi++
		}
		if &seg[0] != &res.Raw[lo] || len(seg) != hi-lo {
			t.Errorf("IXP %d: segment is not Raw[%d:%d]", idx, lo, hi)
		}
		if cap(seg) != len(seg) {
			t.Errorf("IXP %d: segment cap %d, len %d; an append could overwrite the next IXP", idx, cap(seg), len(seg))
		}
	}
}

func TestDuplicatedSelectionRetainsNothing(t *testing.T) {
	// A duplicated selection merges through the global sort and keeps no
	// segments, so a Reuse from it re-simulates every IXP.
	opts := testOptions(1)
	opts.IXPs = []int{1, 0, 1}
	opts.Retain = true
	dup := run(t, opts)
	if len(dup.perIXP) != 0 {
		t.Fatalf("duplicated selection retained %d segments", len(dup.perIXP))
	}
	fresh := run(t, testOptions(1))
	opts = testOptions(1)
	opts.Reuse = &Reuse{From: dup}
	sameResult(t, "reuse from a duplicated selection", run(t, opts), fresh)
}

func TestRehydrateMatchesLiveResult(t *testing.T) {
	w := testWorld(t)
	live := run(t, testOptions(1))
	ixps, remote := live.RemoteTruth()
	re, err := Rehydrate(w, live.Seed, live.Campaign, live.Detector, live.Raw, ixps, remote)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rehydrated", re, live)
	for _, r := range live.Report.Interfaces {
		if re.Truth(r.IXPIndex, r.IP) != live.Truth(r.IXPIndex, r.IP) {
			t.Fatalf("IXP %d %v: rehydrated truth differs", r.IXPIndex, r.IP)
		}
	}

	// A rehydrated Result is a splice source.
	opts := testOptions(2)
	opts.Reuse = &Reuse{From: re, Dirty: func(idx int) bool { return idx == 2 }}
	sameResult(t, "reuse from a rehydrated result", run(t, opts), live)
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
