package remotepeering

// The snapshot round-trip extension of the equivalence suite: every
// report computed from an attached snapshot must be byte-identical to the
// same report computed from the live GenerateWorld/CollectTraffic/
// RunSpreadStudy objects. Floats compare with ==, never a tolerance —
// the snapshot layer is persistence, not approximation. The bitset
// goldens under testdata/ are untouched by this file; it reuses their
// reduced-scale configuration so the two suites pin the same numbers
// from two directions.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// flatAttachRoundTrip saves s, attaches the file, materializes, and
// closes the attachment: a materialized snapshot owns its memory, so
// every comparison below runs after the file is unmapped.
func flatAttachRoundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "equiv.flat")
	digest, err := SaveSnapshot(path, s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AttachSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Digest != digest {
		t.Fatalf("digest mismatch: saved %s, attached %s", digest, got.Digest)
	}
	return got
}

// roundTrips drives a comparison body through the one persistence path:
// save, attach, materialize.
func roundTrips(t *testing.T, s *Snapshot, check func(t *testing.T, loaded *Snapshot)) {
	t.Run("v2-attach", func(t *testing.T) { check(t, flatAttachRoundTrip(t, s)) })
}

// TestSnapshotOffloadEquivalence pins the Section 4 surface: the loaded
// world+dataset reproduce the greedy expansions, coverage sets, series,
// and billing relief of the live objects exactly.
func TestSnapshotOffloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot equivalence is not short-mode material")
	}
	w, err := GenerateWorld(WorldConfig{Seed: 1, LeafNetworks: 4000})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := CollectTraffic(w, TrafficConfig{Seed: 101, Intervals: 288})
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewOffloadStudy(w, ds)
	if err != nil {
		t.Fatal(err)
	}

	roundTrips(t, &Snapshot{World: w, Dataset: ds}, func(t *testing.T, loaded *Snapshot) {
		study, err := NewOffloadStudy(loaded.World, loaded.Dataset)
		if err != nil {
			t.Fatal(err)
		}

		if got, want := study.PotentialPeerCount(), live.PotentialPeerCount(); got != want {
			t.Errorf("potential peers: %d vs live %d", got, want)
		}
		if got, want := study.Greedy(GroupAll, 0), live.Greedy(GroupAll, 0); !reflect.DeepEqual(got, want) {
			t.Error("greedy expansion differs from live")
		}
		if got, want := study.GreedyInterfaces(GroupOpenSelective, 20), live.GreedyInterfaces(GroupOpenSelective, 20); !reflect.DeepEqual(got, want) {
			t.Error("interface expansion differs from live")
		}
		if got, want := study.SingleIXP(GroupOpen), live.SingleIXP(GroupOpen); !reflect.DeepEqual(got, want) {
			t.Error("single-IXP potentials differ from live")
		}
		ixps := []int{0, 5, 12, 40}
		if got, want := study.Covered(ixps, GroupAll), live.Covered(ixps, GroupAll); !reflect.DeepEqual(got, want) {
			t.Error("covered set differs from live")
		}
		gin, gout := loaded.Dataset.SeriesTotal(live.Covered(ixps, GroupAll))
		win, wout := ds.SeriesTotal(live.Covered(ixps, GroupAll))
		if !reflect.DeepEqual(gin, win) || !reflect.DeepEqual(gout, wout) {
			t.Error("covered-set series differ from live")
		}
		gr, err := study.EstimateBillingRelief(ixps, GroupAll)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := live.EstimateBillingRelief(ixps, GroupAll)
		if err != nil {
			t.Fatal(err)
		}
		if gr != wr {
			t.Errorf("billing relief differs: %+v vs live %+v", gr, wr)
		}
	})
}

// TestSnapshotSpreadEquivalence pins the Section 3 surface: the
// rehydrated campaign reproduces Table 1, the figures, and the validation
// of the live run byte-for-byte, and re-analysis over its raw
// observations matches too.
func TestSnapshotSpreadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot equivalence is not short-mode material")
	}
	w, err := GenerateWorld(WorldConfig{Seed: 2, LeafNetworks: 3000})
	if err != nil {
		t.Fatal(err)
	}
	opts := SpreadOptions{Seed: 9, IXPs: []int{0, 3, 7}}
	opts.Campaign.Duration = 15 * 24 * time.Hour
	opts.Campaign.PCHRounds = 4
	opts.Campaign.RIPERounds = 3
	live, err := RunSpreadStudy(w, opts)
	if err != nil {
		t.Fatal(err)
	}

	roundTrips(t, &Snapshot{World: w, Spread: live}, func(t *testing.T, loaded *Snapshot) {
		got := loaded.Spread
		if got == nil {
			t.Fatal("loaded snapshot lost the campaign")
		}
		if !reflect.DeepEqual(got.Report, live.Report) {
			t.Error("rehydrated detector report differs from live")
		}
		if !reflect.DeepEqual(got.Report.Table1(), live.Report.Table1()) {
			t.Error("Table 1 differs from live")
		}
		if !reflect.DeepEqual(got.Report.Figure3(), live.Report.Figure3()) {
			t.Error("Figure 3 differs from live")
		}
		if got.Validation != live.Validation {
			t.Errorf("validation differs: %+v vs live %+v", got.Validation, live.Validation)
		}
		// Reanalysis over rehydrated raw observations — the ablation path —
		// must agree with the live raw stream too.
		rep1, err := got.Reanalyze(loaded.World, DetectorConfig{RemoteThreshold: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := live.Reanalyze(w, DetectorConfig{RemoteThreshold: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep1, rep2) {
			t.Error("reanalysis over the rehydrated campaign differs from live")
		}
	})
}

// TestSnapshotScenarioEquivalence pins the serving surface end to end: a
// what-if grid over the loaded world renders — text, CSV, and the JSON
// the server embeds — byte-identically to the same grid over the live
// world.
func TestSnapshotScenarioEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot equivalence is not short-mode material")
	}
	w, err := GenerateWorld(WorldConfig{Seed: 3, LeafNetworks: 2500})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ParseScenarioGrid("ams-outage=outage:AMS-IX;cheap=remoteprice:0.5")
	if err != nil {
		t.Fatal(err)
	}
	opts := ScenarioOptions{
		MeasureSeed: 2, TrafficSeed: 3,
		CoverageIXPs: 3, GreedyIXPs: 10, Intervals: 96,
	}
	opts.Campaign.Duration = 6 * 24 * time.Hour
	liveRep, err := RunScenarios(w, grid, opts)
	if err != nil {
		t.Fatal(err)
	}

	liveJSON, err := liveRep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	roundTrips(t, &Snapshot{World: w}, func(t *testing.T, loaded *Snapshot) {
		loadedRep, err := RunScenarios(loaded.World, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		if liveRep.Text() != loadedRep.Text() {
			t.Error("scenario text report differs over the loaded world")
		}
		loadedJSON, err := loadedRep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(liveJSON) != string(loadedJSON) {
			t.Error("scenario JSON report differs over the loaded world")
		}
	})
}

// TestSnapshotFileErrors pins the facade-level error surface on real
// files (the internal suite covers the byte-level cases).
func TestSnapshotFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenSnapshot(filepath.Join(dir, "missing.flat")); err == nil {
		t.Error("opening a missing file should fail")
	}
	bogus := filepath.Join(dir, "bogus.flat")
	if err := os.WriteFile(bogus, []byte("hello, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bogus); !errors.Is(err, ErrSnapshotBadMagic) {
		t.Errorf("opening a non-snapshot file: err = %v, want ErrSnapshotBadMagic", err)
	}
	retired := filepath.Join(dir, "world.rpsnap")
	if err := os.WriteFile(retired, []byte("RPSNAP1\n\x00\x01 a retired stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(retired); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("opening a retired snapshot: err = %v, want ErrSnapshotVersion", err)
	}
}
