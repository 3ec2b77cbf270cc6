package remotepeering

// The determinism regression suite enforces the parallel execution layer's
// core invariant: every pipeline stage produces byte-identical results for
// every worker count, given the same seed. This is what makes campaigns
// replayable for debugging regardless of the hardware they ran on, and it
// is the contract future sharding/batching work must keep.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// workerCounts are the fan-outs the invariant is checked at: serial, the
// smallest genuine pool, and more workers than this container has cores.
var workerCounts = []int{1, 2, 8}

// detWorld builds one reduced-scale world shared by the determinism tests.
var detWorldCache *World

func detWorld(t *testing.T) *World {
	t.Helper()
	if detWorldCache == nil {
		w, err := GenerateWorld(WorldConfig{Seed: 17, LeafNetworks: 5000})
		if err != nil {
			t.Fatal(err)
		}
		detWorldCache = w
	}
	return detWorldCache
}

// flatImage saves s through the facade and returns the file's bytes and
// content digest. A snapshot's bytes — and so the digest the serve tier
// keys, routes, and traces by — depend on content alone, never on the
// worker count that produced it.
func flatImage(t *testing.T, s *Snapshot) ([]byte, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "det.flat")
	digest, err := SaveSnapshot(path, s)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img, digest
}

func TestGenerateWorldIdenticalAcrossWorkers(t *testing.T) {
	base, err := GenerateWorld(WorldConfig{Seed: 23, LeafNetworks: 1500, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseImg, baseDigest := flatImage(t, &Snapshot{World: base})
	for _, workers := range workerCounts[1:] {
		w, err := GenerateWorld(WorldConfig{Seed: 23, LeafNetworks: 1500, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.Ifaces, base.Ifaces) {
			t.Errorf("workers=%d: interface table differs from workers=1", workers)
		}
		for i := range base.IXPs {
			if !reflect.DeepEqual(w.IXPs[i].Members, base.IXPs[i].Members) {
				t.Errorf("workers=%d: IXP %s membership differs", workers, base.IXPs[i].Acronym)
			}
		}
		if img, digest := flatImage(t, &Snapshot{World: w}); !bytes.Equal(img, baseImg) {
			t.Errorf("workers=%d: world snapshot digest %.12s, workers=1 saved %.12s", workers, digest, baseDigest)
		}
	}
}

func TestRunSpreadStudyIdenticalAcrossWorkers(t *testing.T) {
	w := detWorld(t)
	opts := func(workers int) SpreadOptions {
		return SpreadOptions{
			Seed:    31,
			IXPs:    []int{0, 7, 13, 19}, // AMS-IX (big), MSK-IX (multi-site), VIX (dual LG), INEX (small)
			Workers: workers,
			Campaign: CampaignConfig{
				Duration:   30 * 24 * time.Hour,
				PCHRounds:  4,
				RIPERounds: 3,
			},
		}
	}
	base, err := RunSpreadStudy(w, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Observations == 0 {
		t.Fatal("no observations in base run")
	}
	for _, workers := range workerCounts[1:] {
		res, err := RunSpreadStudy(w, opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Raw, base.Raw) {
			t.Errorf("workers=%d: raw observation stream differs from workers=1", workers)
		}
		if !reflect.DeepEqual(res.Report, base.Report) {
			t.Errorf("workers=%d: detector report differs from workers=1", workers)
		}
		if res.Validation != base.Validation {
			t.Errorf("workers=%d: validation %+v != %+v", workers, res.Validation, base.Validation)
		}
	}
}

func TestCollectTrafficIdenticalAcrossWorkers(t *testing.T) {
	w := detWorld(t)
	collect := func(workers int) *TrafficDataset {
		ds, err := CollectTraffic(w, TrafficConfig{Seed: 37, Intervals: 288, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	base := collect(1)
	baseIn, baseOut := base.SeriesTotal(nil)
	baseImg, baseDigest := flatImage(t, &Snapshot{World: w, Dataset: base})
	for _, workers := range workerCounts[1:] {
		ds := collect(workers)
		if !reflect.DeepEqual(ds.Entries, base.Entries) {
			t.Errorf("workers=%d: dataset entries differ from workers=1", workers)
		}
		in, out := ds.SeriesTotal(nil)
		// Bit-identical series, not merely close: the interval-sharded
		// synthesis must not change floating-point addition order.
		if !reflect.DeepEqual(in, baseIn) || !reflect.DeepEqual(out, baseOut) {
			t.Errorf("workers=%d: synthesized series differ from workers=1", workers)
		}
		gi, go_ := ds.TransitTotals()
		bi, bo := base.TransitTotals()
		if gi != bi || go_ != bo {
			t.Errorf("workers=%d: transit totals (%v,%v) != (%v,%v)", workers, gi, go_, bi, bo)
		}
		// Transient (Figure 6) accounting is the one stage rebuilt as a
		// block-merged floating-point reduction, so check it explicitly
		// for every ASN in the universe — not just the entry fields.
		for _, asn := range w.Graph.ASNs() {
			gt, gin, gout := ds.Transient(asn)
			bt, bin, bout := base.Transient(asn)
			if gt != bt || gin != bin || gout != bout {
				t.Errorf("workers=%d: transient accounting for AS%d differs: (%v,%v,%v) != (%v,%v,%v)",
					workers, asn, gt, gin, gout, bt, bin, bout)
				break
			}
		}
		// The warmed series ride along, so this pins the world, entry
		// table, and month of series bytes at once.
		if img, digest := flatImage(t, &Snapshot{World: w, Dataset: ds}); !bytes.Equal(img, baseImg) {
			t.Errorf("workers=%d: world+dataset snapshot digest %.12s, workers=1 saved %.12s", workers, digest, baseDigest)
		}
	}
}

func TestGreedyIdenticalAcrossWorkers(t *testing.T) {
	w := detWorld(t)
	ds, err := CollectTraffic(w, TrafficConfig{Seed: 41, Intervals: 288})
	if err != nil {
		t.Fatal(err)
	}
	study := func(workers int) *OffloadStudy {
		s, err := NewOffloadStudyOptions(w, ds, OffloadOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := study(1)
	baseSteps := base.Greedy(GroupAll, 0)
	baseIfaces := base.GreedyInterfaces(GroupOpenSelective, 20)
	baseSingle := base.SingleIXP(GroupAll)
	for _, workers := range workerCounts[1:] {
		s := study(workers)
		if steps := s.Greedy(GroupAll, 0); !reflect.DeepEqual(steps, baseSteps) {
			t.Errorf("workers=%d: greedy steps differ from workers=1", workers)
		}
		if ifs := s.GreedyInterfaces(GroupOpenSelective, 20); !reflect.DeepEqual(ifs, baseIfaces) {
			t.Errorf("workers=%d: interface greedy differs from workers=1", workers)
		}
		if single := s.SingleIXP(GroupAll); !reflect.DeepEqual(single, baseSingle) {
			t.Errorf("workers=%d: single-IXP potentials differ from workers=1", workers)
		}
	}
}

// TestBitsetAdaptersAgreeAcrossWorkers pins the contract of the dense
// bitset engine introduced for the Section 4 hot paths: the bitset-valued
// fast paths (CoveredSet, SeriesTotalSet) and their map-valued facade
// adapters (Covered, SeriesTotal) must produce identical results — and
// identical to each other — at every worker count.
func TestBitsetAdaptersAgreeAcrossWorkers(t *testing.T) {
	w := detWorld(t)
	ixps := []int{0, 3, 12, 40, 64}
	type outcome struct {
		coveredASNs []uint32
		in, out     []float64
	}
	run := func(workers int) outcome {
		ds, err := CollectTraffic(w, TrafficConfig{Seed: 47, Intervals: 288, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewOffloadStudyOptions(w, ds, OffloadOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		covered := s.Covered(ixps, GroupOpenSelective)
		set := s.CoveredSet(ixps, GroupOpenSelective)
		if len(covered) != set.Count() {
			t.Fatalf("workers=%d: Covered map has %d networks, CoveredSet %d", workers, len(covered), set.Count())
		}
		var asns []uint32
		set.ForEach(func(id int32) {
			asn := w.Graph.ASN(id)
			if !covered[asn] {
				t.Fatalf("workers=%d: CoveredSet contains AS%d missing from Covered map", workers, asn)
			}
			asns = append(asns, uint32(asn))
		})
		mapIn, mapOut := ds.SeriesTotal(covered)
		setIn, setOut := ds.SeriesTotalSet(set)
		if !reflect.DeepEqual(mapIn, setIn) || !reflect.DeepEqual(mapOut, setOut) {
			t.Fatalf("workers=%d: SeriesTotal and SeriesTotalSet disagree for the same selection", workers)
		}
		return outcome{coveredASNs: asns, in: setIn, out: setOut}
	}
	base := run(1)
	if len(base.coveredASNs) == 0 {
		t.Fatal("empty coverage in base run")
	}
	for _, workers := range workerCounts[1:] {
		got := run(workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: bitset-path results differ from workers=1", workers)
		}
	}
}

// scenarioTestGrid is the ≥6-cell what-if matrix the scenario determinism
// and baseline-exactness tests share: three scenarios × two seed offsets
// plus the runner's implicit baseline cell = 7 cells.
func scenarioTestGrid(t *testing.T) ScenarioGrid {
	t.Helper()
	grid, err := ParseScenarioGrid(
		"dark-msk=outage:MSK-IX;" +
			"slow-pw=latency:all:2;" +
			"ams-churn=churn:AMS-IX:10:5,traffic:1.25")
	if err != nil {
		t.Fatal(err)
	}
	grid.Seeds = []int64{0, 1}
	return grid
}

// scenarioTestOptions keeps the per-cell pipeline affordable: a 6-day
// campaign over four studied IXPs and a half-day traffic sample.
func scenarioTestOptions(workers int) ScenarioOptions {
	return ScenarioOptions{
		MeasureSeed:  31,
		TrafficSeed:  37,
		Workers:      workers,
		IXPs:         []int{0, 7, 13, 19}, // AMS-IX, MSK-IX, VIX, INEX
		Campaign:     CampaignConfig{Duration: 6 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 3},
		Intervals:    144,
		CoverageIXPs: 2,
		GreedyIXPs:   10,
	}
}

// TestRunScenariosIdenticalAcrossWorkers extends the determinism suite to
// the scenario engine: a 7-cell grid must produce a deep-equal report at
// every worker count — cell RNG streams are keyed by grid coordinates, so
// neither cell scheduling nor inner-stage fan-out may leak in.
func TestRunScenariosIdenticalAcrossWorkers(t *testing.T) {
	w := detWorld(t)
	grid := scenarioTestGrid(t)
	base, err := RunScenarios(w, grid, scenarioTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cells) != 7 {
		t.Fatalf("grid expanded to %d cells, want 7", len(base.Cells))
	}
	if base.Baseline.DetectedRemote == 0 || base.Baseline.Observations == 0 {
		t.Fatalf("degenerate baseline cell: %+v", base.Baseline)
	}
	for _, workers := range workerCounts[1:] {
		rep, err := RunScenarios(w, grid, scenarioTestOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, base) {
			t.Errorf("workers=%d: scenario report differs from workers=1", workers)
		}
	}
}

// TestScenarioBaselineReproducesPipeline pins the engine's anchor: the
// implicit empty-op baseline cell must reproduce the unperturbed pipeline
// — the Table 1 detector view and the Figure 9 greedy/decay numbers —
// exactly (integer and float equality, not tolerances), even though it ran
// on a cloned world inside the grid runner.
func TestScenarioBaselineReproducesPipeline(t *testing.T) {
	w := detWorld(t)
	opts := scenarioTestOptions(0)
	rep, err := RunScenarios(w, scenarioTestGrid(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Baseline

	res, err := RunSpreadStudy(w, SpreadOptions{
		Seed: opts.MeasureSeed, IXPs: opts.IXPs, Campaign: opts.Campaign,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Observations != res.Observations {
		t.Errorf("baseline observations %d != pipeline %d", got.Observations, res.Observations)
	}
	if want := len(res.Report.Analyzed()); got.AnalyzedIfaces != want {
		t.Errorf("baseline analyzed %d != pipeline %d", got.AnalyzedIfaces, want)
	}
	wantRemote := 0
	for _, row := range res.Report.Table1() {
		wantRemote += row.Remote
	}
	if got.DetectedRemote != wantRemote {
		t.Errorf("baseline Table 1 remote %d != pipeline %d", got.DetectedRemote, wantRemote)
	}
	var wantBands [3]int
	for _, row := range res.Report.Figure3() {
		wantBands[0] += row.Counts[1]
		wantBands[1] += row.Counts[2]
		wantBands[2] += row.Counts[3]
	}
	if got.BandCounts != wantBands {
		t.Errorf("baseline bands %v != pipeline %v", got.BandCounts, wantBands)
	}

	ds, err := CollectTraffic(w, TrafficConfig{Seed: opts.TrafficSeed, Intervals: opts.Intervals})
	if err != nil {
		t.Fatal(err)
	}
	study, err := NewOffloadStudy(w, ds)
	if err != nil {
		t.Fatal(err)
	}
	if want := study.PotentialPeerCount(); got.PotentialPeers != want {
		t.Errorf("baseline potential peers %d != pipeline %d", got.PotentialPeers, want)
	}
	in, out := ds.TransitTotals()
	steps := study.Greedy(GroupAll, opts.GreedyIXPs)
	at := steps[opts.CoverageIXPs-1]
	if want := (at.OffloadedInBps + at.OffloadedOutBps) / (in + out); got.OffloadedFrac != want {
		t.Errorf("baseline offload fraction %v != pipeline %v", got.OffloadedFrac, want)
	}
	fit, err := FitDecayFromGreedy(steps, in+out)
	if err != nil {
		t.Fatal(err)
	}
	if got.FittedB != fit.B {
		t.Errorf("baseline fitted b %v != pipeline %v", got.FittedB, fit.B)
	}
}

// TestRepeatedRunsIdentical guards the weaker but equally load-bearing
// property that two runs at the *same* worker count are identical — i.e.
// no scheduling- or map-iteration-order dependence leaks into results.
func TestRepeatedRunsIdentical(t *testing.T) {
	w := detWorld(t)
	run := func() ([]GreedyStep, float64) {
		ds, err := CollectTraffic(w, TrafficConfig{Seed: 43, Intervals: 144, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewOffloadStudyOptions(w, ds, OffloadOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(w.IXPs))
		for i := range all {
			all[i] = i
		}
		in, out := s.Potential(all, GroupAll)
		return s.Greedy(GroupAll, 10), in + out
	}
	steps1, pot1 := run()
	steps2, pot2 := run()
	if !reflect.DeepEqual(steps1, steps2) {
		t.Error("two identical runs produced different greedy steps")
	}
	if pot1 != pot2 {
		t.Errorf("two identical runs produced different potentials: %v vs %v", pot1, pot2)
	}
}
