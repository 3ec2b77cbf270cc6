package remotepeering

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark measures the analysis that produces one
// artifact; the expensive fixtures (paper-scale world, four-month campaign,
// month of traffic) are built once and shared. Run with:
//
//	go test -bench=. -benchmem
//
// The printed metrics (b.ReportMetric) carry the headline numbers so a
// bench run doubles as a reproduction log; EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/offload"
)

// fixtures are shared across benchmarks and built on first use.
var (
	fixOnce    sync.Once
	fixWorld   *World
	fixSpread  *SpreadResult
	fixTraffic *TrafficDataset
	fixStudy   *OffloadStudy
	fixErr     error
)

func fixtures(b *testing.B) (*World, *SpreadResult, *TrafficDataset, *OffloadStudy) {
	b.Helper()
	// Each stage wraps its error with the pipeline stage name: fixOnce
	// caches the first failure for every subsequent benchmark, so a bare
	// error would otherwise surface dozens of times with no hint of which
	// fixture broke.
	fixOnce.Do(func() {
		var err error
		if fixWorld, err = GenerateWorld(WorldConfig{Seed: 1}); err != nil {
			fixErr = fmt.Errorf("world fixture (GenerateWorld): %w", err)
			return
		}
		if fixSpread, err = RunSpreadStudy(fixWorld, SpreadOptions{Seed: 2}); err != nil {
			fixErr = fmt.Errorf("spread-campaign fixture (RunSpreadStudy): %w", err)
			return
		}
		if fixTraffic, err = CollectTraffic(fixWorld, TrafficConfig{Seed: 3}); err != nil {
			fixErr = fmt.Errorf("traffic fixture (CollectTraffic): %w", err)
			return
		}
		if fixStudy, err = NewOffloadStudy(fixWorld, fixTraffic); err != nil {
			fixErr = fmt.Errorf("offload fixture (NewOffloadStudy): %w", err)
		}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixWorld, fixSpread, fixTraffic, fixStudy
}

func allIXPIndices(w *World) []int {
	out := make([]int, len(w.IXPs))
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkTable1 regenerates Table 1: the per-IXP probed/analyzed
// interface counts after the six filters.
func BenchmarkTable1(b *testing.B) {
	w, spread, _, _ := fixtures(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rep, err := spread.Reanalyze(w, DetectorConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(rep.Table1())
	}
	b.ReportMetric(float64(rows), "IXPs")
	b.ReportMetric(float64(len(spread.Report.Analyzed())), "analyzed-ifaces")
}

// BenchmarkFigure2 regenerates the minimum-RTT CDF.
func BenchmarkFigure2(b *testing.B) {
	_, spread, _, _ := fixtures(b)
	b.ResetTimer()
	var median float64
	for i := 0; i < b.N; i++ {
		cdf, err := spread.Report.Figure2CDF()
		if err != nil {
			b.Fatal(err)
		}
		median = cdf.Quantile(0.5)
	}
	b.ReportMetric(median, "median-ms")
}

// BenchmarkFigure3 regenerates the per-IXP classification into the four
// minimum-RTT ranges.
func BenchmarkFigure3(b *testing.B) {
	_, spread, _, _ := fixtures(b)
	b.ResetTimer()
	var withRemote int
	for i := 0; i < b.N; i++ {
		_ = spread.Report.Figure3()
		withRemote, _ = spread.Report.IXPsWithRemotePeering()
	}
	b.ReportMetric(float64(withRemote), "IXPs-with-remote")
	b.ReportMetric(float64(spread.Report.IXPsWithIntercontinental()), "IXPs-intercontinental")
}

// BenchmarkFigure4a regenerates the IXP-count distributions of identified
// and remotely peering networks.
func BenchmarkFigure4a(b *testing.B) {
	_, spread, _, _ := fixtures(b)
	b.ResetTimer()
	var nets, remote int
	for i := 0; i < b.N; i++ {
		all, rem := spread.Report.Figure4a()
		nets, remote = 0, 0
		for _, n := range all {
			nets += n
		}
		for _, n := range rem {
			remote += n
		}
	}
	b.ReportMetric(float64(nets), "identified-networks")
	b.ReportMetric(float64(remote), "remote-networks")
}

// BenchmarkFigure4b regenerates the interface-class fractions of remotely
// peering networks by IXP count.
func BenchmarkFigure4b(b *testing.B) {
	_, spread, _, _ := fixtures(b)
	b.ResetTimer()
	var buckets int
	for i := 0; i < b.N; i++ {
		buckets = len(spread.Report.Figure4b())
	}
	b.ReportMetric(float64(buckets), "ixp-count-buckets")
}

// BenchmarkFigure5a regenerates the rank-ordered traffic contributions.
func BenchmarkFigure5a(b *testing.B) {
	w, _, ds, study := fixtures(b)
	_ = w
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		entries := ds.TransitEntries()
		top = entries[0].AvgInBps
		_ = study
	}
	b.ReportMetric(top/1e6, "top-contributor-Mbps")
	b.ReportMetric(float64(len(ds.TransitEntries())), "transit-networks")
}

// BenchmarkFigure5b regenerates one week of the transit and offload time
// series (the full month is exercised by cmd/rpoffload). Each iteration
// collects a fresh dataset outside the timer and times its series query.
func BenchmarkFigure5b(b *testing.B) {
	w, _, _, study := fixtures(b)
	covered := study.Covered(allIXPIndices(w), GroupAll)
	b.ResetTimer()
	var peakIn float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ds, err := CollectTraffic(w, TrafficConfig{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		in, _ := ds.SeriesTotal(covered)
		peakIn = 0
		for _, v := range in[:2016] {
			if v > peakIn {
				peakIn = v
			}
		}
	}
	b.ReportMetric(peakIn/1e9, "offload-peak-Gbps")
}

// BenchmarkFigure6 regenerates the top-30 offload contributors with their
// origin/destination vs transient decomposition.
func BenchmarkFigure6(b *testing.B) {
	_, _, _, study := fixtures(b)
	b.ResetTimer()
	var originDominates int
	for i := 0; i < b.N; i++ {
		top := study.TopContributors(30)
		originDominates = 0
		for _, c := range top {
			if c.OriginInBps+c.DestOutBps > c.TransientInBps+c.TransientOutBps {
				originDominates++
			}
		}
	}
	b.ReportMetric(float64(originDominates), "origin-dominant-of-30")
}

// BenchmarkFigure7 regenerates the single-IXP offload potentials across
// the four peer groups.
func BenchmarkFigure7(b *testing.B) {
	_, _, _, study := fixtures(b)
	b.ResetTimer()
	var topGbps float64
	for i := 0; i < b.N; i++ {
		for _, g := range PeerGroups {
			pots := study.SingleIXP(g)
			if g == GroupAll {
				topGbps = pots[0].Total() / 1e9
			}
		}
	}
	b.ReportMetric(topGbps, "best-IXP-Gbps")
}

// BenchmarkFigure8 regenerates the second-IXP residuals among AMS-IX,
// LINX, DE-CIX, and the Terremark-analogue.
func BenchmarkFigure8(b *testing.B) {
	w, _, _, study := fixtures(b)
	names := []string{"AMS-IX", "LINX", "DE-CIX", "Terremark"}
	idx := make([]int, len(names))
	for i, n := range names {
		_, j, err := w.IXPByAcronym(n)
		if err != nil {
			b.Fatal(err)
		}
		idx[i] = j
	}
	b.ResetTimer()
	var amsAfterLINX float64
	for i := 0; i < b.N; i++ {
		for a := range idx {
			for c := range idx {
				if a == c {
					continue
				}
				r := study.Residual(idx[a], idx[c], GroupAll)
				if names[a] == "LINX" && names[c] == "AMS-IX" {
					amsAfterLINX = r / 1e9
				}
			}
		}
	}
	b.ReportMetric(amsAfterLINX, "AMS-after-LINX-Gbps")
}

// BenchmarkFigure9 regenerates the greedy remaining-transit curves for all
// four peer groups.
func BenchmarkFigure9(b *testing.B) {
	_, _, ds, study := fixtures(b)
	in, out := ds.TransitTotals()
	b.ResetTimer()
	var g4Final float64
	for i := 0; i < b.N; i++ {
		for _, g := range PeerGroups {
			steps := study.Greedy(g, 0)
			if g == GroupAll {
				g4Final = 100 * steps[len(steps)-1].Remaining() / (in + out)
			}
		}
	}
	b.ReportMetric(g4Final, "group4-remaining-%")
}

// BenchmarkFigure10 regenerates the reachable-interfaces greedy curves.
func BenchmarkFigure10(b *testing.B) {
	_, _, _, study := fixtures(b)
	b.ResetTimer()
	var after1 float64
	for i := 0; i < b.N; i++ {
		steps := study.GreedyInterfaces(GroupAll, 30)
		after1 = steps[0].Remaining / 1e9
	}
	b.ReportMetric(study.TotalInterfaces()/1e9, "total-B")
	b.ReportMetric(after1, "after-first-IXP-B")
}

// BenchmarkOffloadStudy measures one pipeline offload stage at paper
// scale: a study over a 96-interval dataset from a warm shared cone cache
// (the cache a world view keeps), read at the scenario defaults — the
// greedy curve at 5 exchanges and its decay over 30 steps.
func BenchmarkOffloadStudy(b *testing.B) {
	w, err := GenerateWorld(WorldConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := CollectTraffic(w, TrafficConfig{Seed: 3, Intervals: 96})
	if err != nil {
		b.Fatal(err)
	}
	opts := OffloadOptions{Cones: offload.NewConeCache()}
	if _, err := NewOffloadStudyOptions(w, ds, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		study, err := NewOffloadStudyOptions(w, ds, opts)
		if err != nil {
			b.Fatal(err)
		}
		x, err := study.Expand(GroupAll, 5, 30)
		if err != nil {
			b.Fatal(err)
		}
		frac = x.OffloadedFrac
	}
	b.ReportMetric(100*frac, "offload-at-5-%")
}

// BenchmarkEconModel fits b from the Figure 9 curve and evaluates
// equations 11, 13 and 14.
func BenchmarkEconModel(b *testing.B) {
	_, _, ds, study := fixtures(b)
	in, out := ds.TransitTotals()
	steps := study.Greedy(GroupAll, 30)
	floor := steps[len(steps)-1].Remaining() * 0.98
	var remaining []float64
	for _, s := range steps {
		v := (s.Remaining() - floor) / (in + out - floor)
		if v > 0 {
			remaining = append(remaining, v)
		}
	}
	b.ResetTimer()
	var fittedB float64
	var viable bool
	for i := 0; i < b.N; i++ {
		fit, err := FitDecay(remaining)
		if err != nil {
			b.Fatal(err)
		}
		fittedB = fit.B
		p := DefaultEconParams(fit.B)
		viable = p.RemoteViable()
		_ = p.OptimalDirectN()
		_ = p.OptimalRemoteM()
	}
	b.ReportMetric(fittedB, "fitted-b")
	if viable {
		b.ReportMetric(1, "remote-viable")
	} else {
		b.ReportMetric(0, "remote-viable")
	}
}

// BenchmarkAblationThreshold sweeps the remoteness threshold (Section 3.1
// sets 10 ms after inspecting Figure 2) and reports the false-positive and
// false-negative counts at 5 ms — the design choice the high threshold
// guards against.
func BenchmarkAblationThreshold(b *testing.B) {
	w, spread, _, _ := fixtures(b)
	thresholds := []float64{5, 10, 15, 20}
	b.ResetTimer()
	var fpAt5, fnAt20 int
	for i := 0; i < b.N; i++ {
		for _, ms := range thresholds {
			rep, err := spread.Reanalyze(w, DetectorConfig{
				RemoteThreshold: durationMs(ms),
			})
			if err != nil {
				b.Fatal(err)
			}
			v := rep.Validate(spread.Truth)
			switch ms {
			case 5:
				fpAt5 = v.FalsePositives
			case 20:
				fnAt20 = v.FalseNegatives
			}
		}
	}
	b.ReportMetric(float64(fpAt5), "FP-at-5ms")
	b.ReportMetric(float64(fnAt20), "FN-at-20ms")
}

// BenchmarkAblationFilters disables each filter in turn and reports the
// precision drop without the TTL-match filter (which guards against
// misdirected probes and odd OSes).
func BenchmarkAblationFilters(b *testing.B) {
	w, spread, _, _ := fixtures(b)
	b.ResetTimer()
	var worstPrecision float64
	for i := 0; i < b.N; i++ {
		worstPrecision = 1
		for _, f := range []Filter{
			FilterSampleSize, FilterTTLSwitch, FilterTTLMatch,
			FilterRTTConsistent, FilterLGConsistent, FilterASNChange,
		} {
			rep, err := spread.Reanalyze(w, DetectorConfig{
				Disabled: map[Filter]bool{f: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			if p := rep.Validate(spread.Truth).Precision(); p < worstPrecision {
				worstPrecision = p
			}
		}
	}
	b.ReportMetric(worstPrecision, "worst-precision-one-filter-off")
}

// BenchmarkAblationLG compares detection with PCH-only observations
// against the full dual-LG campaign (the LG-consistent filter needs both).
func BenchmarkAblationLG(b *testing.B) {
	w, spread, _, _ := fixtures(b)
	var pchOnly []Observation
	for _, o := range spread.Raw {
		if o.Family == "PCH" {
			pchOnly = append(pchOnly, o)
		}
	}
	reg := RegistryFromWorld(w)
	b.ResetTimer()
	var analyzedPCH int
	for i := 0; i < b.N; i++ {
		rep, err := AnalyzeObservations(pchOnly, reg, spread.Campaign.Duration, DetectorConfig{})
		if err != nil {
			b.Fatal(err)
		}
		analyzedPCH = len(rep.Analyzed())
	}
	b.ReportMetric(float64(analyzedPCH), "analyzed-PCH-only")
	b.ReportMetric(float64(len(spread.Report.Analyzed())), "analyzed-dual-LG")
}

// BenchmarkAblationSampleSize sweeps the per-LG reply floor (the paper
// chose 8 empirically). A floor above the RIPE NCC ceiling of 21 replies
// wipes out every target at the dual-LG IXPs — the constraint that pinned
// the paper's choice low.
func BenchmarkAblationSampleSize(b *testing.B) {
	w, spread, _, _ := fixtures(b)
	b.ResetTimer()
	var analyzedAt8, analyzedAt24 int
	for i := 0; i < b.N; i++ {
		for _, floor := range []int{4, 8, 24} {
			rep, err := spread.Reanalyze(w, DetectorConfig{MinRepliesPerLG: floor})
			if err != nil {
				b.Fatal(err)
			}
			switch floor {
			case 8:
				analyzedAt8 = len(rep.Analyzed())
			case 24:
				analyzedAt24 = len(rep.Analyzed())
			}
		}
	}
	b.ReportMetric(float64(analyzedAt8), "analyzed-at-floor-8")
	b.ReportMetric(float64(analyzedAt24), "analyzed-at-floor-24")
}

// benchWorkerCounts are the explicit pool sizes the parallel campaign
// benchmarks contrast. Explicit sub-benchmarks are used instead of leaning
// on `-cpu`/GOMAXPROCS because the testing framework reuses the discovery
// run's timing for the first -cpu entry, which would misattribute the
// serial baseline; the workers=N variants measure exactly what they claim
// regardless of the -cpu list. The determinism suite guarantees every
// variant produces byte-identical results.
var benchWorkerCounts = []int{1, 2, 4}

// BenchmarkSpreadStudy measures the full Section 3 campaign — the
// four-month looking-glass study across all 22 studied IXPs at paper
// scale — per worker count.
func BenchmarkSpreadStudy(b *testing.B) {
	w, _, _, _ := fixtures(b)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var obs int
			for i := 0; i < b.N; i++ {
				res, err := RunSpreadStudy(w, SpreadOptions{Seed: 2, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				obs = res.Observations
			}
			b.ReportMetric(float64(obs), "observations")
		})
	}
}

// BenchmarkCollectTraffic measures the Section 4.1 traffic pipeline at
// paper scale per worker count, split so the trajectory attributes time
// to the right stage: collect/ is dataset collection alone (RIB, paths,
// transient accounting), series/ is the month-long 5-minute series
// synthesis alone (the entry-major kernel, measured cold on a fresh
// dataset each iteration so the per-dataset cache cannot serve it).
func BenchmarkCollectTraffic(b *testing.B) {
	w, _, _, _ := fixtures(b)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("collect/workers=%d", workers), func(b *testing.B) {
			var transit int
			for i := 0; i < b.N; i++ {
				ds, err := CollectTraffic(w, TrafficConfig{Seed: 3, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				transit = len(ds.TransitEntries())
			}
			b.ReportMetric(float64(transit), "transit-networks")
		})
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("series/workers=%d", workers), func(b *testing.B) {
			var p95 float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds, err := CollectTraffic(w, TrafficConfig{Seed: 3, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				// Collect's garbage must not bill its GC to the timed
				// synthesis below.
				runtime.GC()
				b.StartTimer()
				in, _ := ds.SeriesTotal(nil)
				if p95, err = P95(in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p95/1e9, "p95-in-Gbps")
		})
	}
}

// BenchmarkScenarioGrid measures the what-if engine end to end: a 4-cell
// grid (baseline + outage + latency shift + churn/traffic combo) at
// reduced scale, each cell cloning the world and re-running the full
// spread/traffic/offload/econ pipeline.
func BenchmarkScenarioGrid(b *testing.B) {
	w, err := GenerateWorld(WorldConfig{Seed: 5, LeafNetworks: 4000})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := ParseScenarioGrid(
		"dark=outage:AMS-IX;fast-pw=latency:city:-3;surge=churn:LINX:25:10,traffic:1.5")
	if err != nil {
		b.Fatal(err)
	}
	opts := ScenarioOptions{
		MeasureSeed:  2,
		TrafficSeed:  3,
		IXPs:         []int{0, 2, 7},
		Campaign:     CampaignConfig{Duration: 6 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 3},
		Intervals:    288,
		CoverageIXPs: 3,
		GreedyIXPs:   12,
	}
	b.ResetTimer()
	var cells int
	var baselineOffload float64
	for i := 0; i < b.N; i++ {
		rep, err := RunScenarios(w, grid, opts)
		if err != nil {
			b.Fatal(err)
		}
		cells = len(rep.Cells)
		baselineOffload = 100 * rep.Baseline.OffloadedFrac
	}
	b.ReportMetric(float64(cells), "cells")
	b.ReportMetric(baselineOffload, "baseline-offload-%")
}

// BenchmarkScenarioGridReuse measures the stage-invalidation fast path:
// a grid whose scenarios dirty only the traffic and econ stages, so
// every cell after the baseline reuses the spread campaign (and the
// price-only cells everything but the closing formula). Contrast with
// BenchmarkScenarioGrid, whose ops force spread re-simulation.
func BenchmarkScenarioGridReuse(b *testing.B) {
	w, err := GenerateWorld(WorldConfig{Seed: 5, LeafNetworks: 4000})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := ParseScenarioGrid(
		"cheap-port=portprice:0.5;cheap-remote=remoteprice:0.5;surge=traffic:1.5;shift=diurnal:6")
	if err != nil {
		b.Fatal(err)
	}
	opts := ScenarioOptions{
		MeasureSeed:  2,
		TrafficSeed:  3,
		IXPs:         []int{0, 2, 7},
		Campaign:     CampaignConfig{Duration: 6 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 3},
		Intervals:    288,
		CoverageIXPs: 3,
		GreedyIXPs:   12,
	}
	b.ResetTimer()
	var flips int
	for i := 0; i < b.N; i++ {
		rep, err := RunScenarios(w, grid, opts)
		if err != nil {
			b.Fatal(err)
		}
		flips = 0
		for _, c := range rep.Cells {
			if c.Diff(rep.Baseline).ViableFlipped {
				flips++
			}
		}
	}
	b.ReportMetric(float64(flips), "viable-flips")
}

// BenchmarkWorldGeneration measures paper-scale world construction.
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWorld(WorldConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSingleIXP measures the full simulate-and-probe loop for
// one mid-size IXP.
func BenchmarkCampaignSingleIXP(b *testing.B) {
	w, _, _, _ := fixtures(b)
	_, idx, err := w.IXPByAcronym("France-IX")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSpreadStudy(w, SpreadOptions{Seed: int64(i + 10), IXPs: []int{idx}}); err != nil {
			b.Fatal(err)
		}
	}
}

func durationMs(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// BenchmarkSnapshotRoundTrip measures the snapshot round trip over the
// paper-scale world and traffic dataset: one full save (encode + CRC +
// digest + atomic write), attach, and materialize (decode + rehydrate
// derived tables) per iteration. The reported bytes metric is the file
// size — the cost of feeding rpserve one warm start.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	w, _, ds, _ := fixtures(b)
	path := filepath.Join(b.TempDir(), "bench.flat")
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SaveSnapshot(path, &Snapshot{World: w, Dataset: ds}); err != nil {
			b.Fatal(err)
		}
		a, err := AttachSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		size = a.Size()
		loaded, err := a.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if loaded.World.Graph.Len() != w.Graph.Len() {
			b.Fatal("attached world lost networks")
		}
		if err := a.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "snapshot_bytes")
}

// BenchmarkSnapshotMaterialize measures what a fleet pays each time a
// query lands on a cold world, in catalog-churn's file shape: a
// paper-scale world with a 288-interval traffic dataset. Each iteration
// is one OpenSnapshot: attach, decode the world into its dense graph,
// rehydrate the dataset, and unmap.
func BenchmarkSnapshotMaterialize(b *testing.B) {
	w, _, _, _ := fixtures(b)
	ds, err := CollectTraffic(w, TrafficConfig{Seed: 3, Intervals: 288})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.flat")
	if _, err := SaveSnapshot(path, &Snapshot{World: w, Dataset: ds}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if snap.World.Graph.Len() != w.Graph.Len() || len(snap.Dataset.Entries) != len(ds.Entries) {
			b.Fatal("materialized snapshot lost networks or entries")
		}
	}
}

// BenchmarkSnapshotAttach measures the flat format's core claim: a
// paper-scale world+dataset attaches in microseconds — header and
// directory validation only, O(sections) not O(file) — where the
// materialization the round trip above pays costs tens of milliseconds. Like
// BenchmarkServeWhatifCached, the acceptance bar is enforced in-bench
// (< 1 ms and < 1,000 allocations per attach); the one-time lazy
// materialization is timed separately and reported as a metric.
func BenchmarkSnapshotAttach(b *testing.B) {
	w, _, ds, _ := fixtures(b)
	path := filepath.Join(b.TempDir(), "bench.flat")
	if _, err := SaveSnapshot(path, &Snapshot{World: w, Dataset: ds}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := AttachSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Sections()) < 3 { // world, asn.ids, dataset
			b.Fatal("attached file is missing sections")
		}
		if err := a.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp >= time.Millisecond {
		b.Errorf("attach costs %v per op, want < 1ms", perOp)
	}
	allocs := testing.AllocsPerRun(10, func() {
		a, err := AttachSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		a.Close()
	})
	if allocs >= 1000 {
		b.Errorf("attach allocates %.0f objects, want < 1,000", allocs)
	}
	b.ReportMetric(allocs, "allocs/attach")

	// One lazy materialization — the cost the first query pays, reported
	// for the EXPERIMENTS trajectory but outside the attach bar. The
	// mapping stays open: the materialized snapshot aliases it.
	start := time.Now()
	a, err := AttachSnapshot(path)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	if snap.World.Graph.Len() != w.Graph.Len() {
		b.Fatal("materialized world lost networks")
	}
	b.ReportMetric(time.Since(start).Seconds()*1e3, "materialize_ms")
}

// BenchmarkServeWhatifCached measures the warm path of the query service:
// an identical /v1/whatif query answered from the LRU result cache. The
// cold evaluation is timed once during setup and reported alongside, so
// the benchmark records the cache's speedup (the acceptance bar is ≥10×;
// in practice it is three to four orders of magnitude).
func BenchmarkServeWhatifCached(b *testing.B) {
	w, err := GenerateWorld(WorldConfig{Seed: 1, LeafNetworks: 3000})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.flat")
	if _, err := SaveSnapshot(path, &Snapshot{World: w}); err != nil {
		b.Fatal(err)
	}
	a, err := AttachSnapshot(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })
	snap, err := a.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServeConfig{Snapshot: snap})
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	const url = "/v1/whatif?scenarios=cheap%3Dremoteprice%3A0.5%3Bsurge%3Dtraffic%3A1.4&days=6&intervals=96&k=3&greedy=8"
	query := func() (string, int) {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		res := rec.Result()
		body, _ := io.ReadAll(res.Body)
		if res.StatusCode != 200 {
			b.Fatalf("status %d: %s", res.StatusCode, body)
		}
		return res.Header.Get("X-Cache"), len(body)
	}

	coldStart := time.Now()
	if cache, _ := query(); cache != "miss" {
		b.Fatalf("first query X-Cache = %q, want miss", cache)
	}
	cold := time.Since(coldStart)

	warmStart := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cache, _ := query(); cache != "hit" {
			b.Fatalf("warm query X-Cache = %q, want hit", cache)
		}
	}
	b.StopTimer()
	warm := time.Since(warmStart) / time.Duration(b.N)
	speedup := float64(cold) / float64(warm)
	b.ReportMetric(float64(cold.Milliseconds()), "cold_ms")
	b.ReportMetric(speedup, "speedup_x")
	if speedup < 10 {
		b.Errorf("cached query only %.1f× faster than cold (%v vs %v) — acceptance bar is 10×", speedup, warm, cold)
	}
}

// BenchmarkServeWhatifCold measures the cold path of the query service on
// a held baseline: one attached world whose holder one what-if warms
// before the timer starts, then distinct churn-plus-traffic what-ifs, so
// every query misses the result cache but takes its baseline campaign and
// dataset from the holder — it simulates only the churned exchange and
// prices only the scaled traffic. Each iteration times a batch of
// queries, so a one-iteration run averages over the GC cycles that land
// inside it instead of reading whether one did; query_ms is the time per
// query.
func BenchmarkServeWhatifCold(b *testing.B) {
	w, err := GenerateWorld(WorldConfig{Seed: 1, LeafNetworks: 3000})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.flat")
	if _, err := SaveSnapshot(path, &Snapshot{World: w}); err != nil {
		b.Fatal(err)
	}
	a, err := AttachSnapshot(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { a.Close() })
	snap, err := a.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServeConfig{Snapshot: snap})
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()
	query := func(i int) {
		scenarios := url.QueryEscape(fmt.Sprintf("c=churn:DE-CIX:%d:%d,traffic:%.3f", 1+i%8, 1+i%4, 1+float64(i+1)/1000))
		req := httptest.NewRequest("GET", "/v1/whatif?scenarios="+scenarios+"&days=6&intervals=96&k=3&greedy=8", nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		res := rec.Result()
		if body, _ := io.ReadAll(res.Body); res.StatusCode != 200 {
			b.Fatalf("status %d: %s", res.StatusCode, body)
		}
		if cache := res.Header.Get("X-Cache"); cache != "miss" {
			b.Fatalf("query %d X-Cache = %q, want miss", i, cache)
		}
	}
	query(0) // warms the holder: the one query that computes the baseline
	const queriesPerOp = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < queriesPerOp; k++ {
			query(1 + i*queriesPerOp + k)
		}
	}
	b.StopTimer()
	perQuery := b.Elapsed() / time.Duration(b.N*queriesPerOp)
	b.ReportMetric(perQuery.Seconds()*1e3, "query_ms")
}

// BenchmarkCatalogAttachEvict measures the catalog's world-churn cost:
// with a resident budget of one world, every acquire of the *other*
// world is a full evict + attach + materialize cycle — the price a
// fleet pays each time a query lands on a cold world. The bar is loose
// (< 250 ms per cycle at 3,000 leaves) because the cycle includes the
// lazy materialization; the attach itself is the microsecond path
// BenchmarkSnapshotAttach pins. Lease hygiene is asserted in-bench: no
// refcount drift, every cycle evicts exactly one world.
func BenchmarkCatalogAttachEvict(b *testing.B) {
	dir := b.TempDir()
	digests := make([]string, 2)
	var budget int64
	for i, seed := range []int64{31, 32} {
		w, err := GenerateWorld(WorldConfig{Seed: seed, LeafNetworks: 3000})
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("w%d.flat", i+1))
		if digests[i], err = SaveSnapshot(path, &Snapshot{World: w}); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		if fi.Size() > budget {
			budget = fi.Size()
		}
	}
	cat, err := OpenCatalog(dir, CatalogOptions{ResidentBytes: budget})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := cat.Acquire(ctx, digests[i%2])
		if err != nil {
			b.Fatal(err)
		}
		if lease.Snapshot().World == nil {
			b.Fatal("leased world is nil")
		}
		lease.Release()
	}
	b.StopTimer()

	if refs := cat.PinnedRefs(); refs != 0 {
		b.Errorf("%d lease refs pinned after churn, want 0", refs)
	}
	if got, want := cat.Attaches(), int64(b.N); got != want {
		b.Errorf("%d attaches over %d alternating acquires, want one each", got, want)
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp >= 250*time.Millisecond {
		b.Errorf("attach+evict cycle costs %v per op, want < 250ms", perOp)
	}
	b.ReportMetric(float64(cat.Evictions()), "evictions")
	if err := cat.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTickAdvance measures the living world's per-tick cost against
// the cold pipeline it replaces. The regime is churn-only — member
// arrivals and departures at one exchange per tick, no traffic or price
// drift — so each tick dirties only the spread/offload/econ stages of one
// simulation and splices the previous tick's artifacts for everything
// else. The cold cost (the tick-0 genesis evaluation: clone + full
// pipeline) is timed during setup and reported alongside; the acceptance
// bar, enforced in-bench, is that a churn-only tick costs less than half
// a cold run (in practice the ratio is far higher).
func BenchmarkTickAdvance(b *testing.B) {
	w, err := GenerateWorld(WorldConfig{Seed: 5, LeafNetworks: 3000})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultTickConfig()
	cfg.Seed = 7
	cfg.TrafficDrift, cfg.DiurnalDrift, cfg.PriceDrift, cfg.OutageRate = 0, 0, 0, 0
	cfg.Pipeline = ScenarioOptions{
		MeasureSeed:  2,
		TrafficSeed:  3,
		Campaign:     CampaignConfig{Duration: 6 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 3},
		Intervals:    96,
		CoverageIXPs: 3,
		GreedyIXPs:   8,
	}
	ctx := context.Background()

	coldStart := time.Now()
	eng, err := NewTickEngine(ctx, w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cold := time.Since(coldStart)

	// Each iteration advances several ticks so the per-tick figure
	// averages over which exchange the churn lands on — a single tick's
	// cost swings with the chosen IXP's size.
	const ticksPerOp = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < ticksPerOp; k++ {
			if _, err := eng.Advance(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()

	perTick := b.Elapsed() / time.Duration(b.N*ticksPerOp)
	b.ReportMetric(perTick.Seconds()*1e3, "tick_ms")
	b.ReportMetric(cold.Seconds()*1e3, "cold_ms")
	b.ReportMetric(float64(cold)/float64(perTick), "cold_over_tick_x")
	if perTick >= cold/2 {
		b.Errorf("churn-only tick costs %v vs %v cold — the stage-reuse path is not paying", perTick, cold)
	}
}

// BenchmarkTickAdvanceDefault measures a tick of the default regime on a
// paper-scale world: DefaultTickConfig's traffic, diurnal and price
// drifts, churn and outages, with the default pipeline. Unlike
// BenchmarkTickAdvance, whose regime is churn-only, nearly every tick
// here draws a traffic scale or a diurnal shift, so it re-prices the
// previous tick's traffic ranking — the path a live world takes on every
// tick. Each iteration advances several ticks, because a single tick's
// cost swings with the ops it draws.
func BenchmarkTickAdvanceDefault(b *testing.B) {
	w, err := GenerateWorld(WorldConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	eng, err := NewTickEngine(ctx, w, DefaultTickConfig())
	if err != nil {
		b.Fatal(err)
	}
	const ticksPerOp = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < ticksPerOp; k++ {
			if _, err := eng.Advance(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	perTick := b.Elapsed() / time.Duration(b.N*ticksPerOp)
	b.ReportMetric(perTick.Seconds()*1e3, "tick_ms")
}

// BenchmarkJournalReplay measures recovery speed: rebuilding an evolved
// world from its genesis recipe and journalled event records alone
// (world-only replay, one closing evaluation), the path Open takes for
// the tail past the newest checkpoint. Setup advances a journalled
// timeline once; each iteration replays the whole record set to the
// byte-identical final state.
func BenchmarkJournalReplay(b *testing.B) {
	const ticks = 8
	w, err := GenerateWorld(WorldConfig{Seed: 5, LeafNetworks: 1500})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultTickConfig()
	cfg.Seed = 7
	cfg.OutageRate = 0.2
	cfg.Pipeline = ScenarioOptions{
		MeasureSeed:  2,
		TrafficSeed:  3,
		Campaign:     CampaignConfig{Duration: 6 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 3},
		Intervals:    96,
		CoverageIXPs: 3,
		GreedyIXPs:   8,
	}
	cfg.CheckpointEvery = ticks + 1 // force pure journal replay, no checkpoint shortcut
	ctx := context.Background()
	dir := b.TempDir()
	eng, err := OpenTickEngine(ctx, dir, w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.AdvanceTo(ctx, ticks); err != nil {
		b.Fatal(err)
	}
	want := eng.Metrics()
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	contents, err := ReadJournal(filepath.Join(dir, "journal.rpj"))
	if err != nil {
		b.Fatal(err)
	}

	var events int
	for _, r := range contents.Records {
		events += len(r.Events)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := ReplayTicks(ctx, w, cfg, contents.Records, false)
		if err != nil {
			b.Fatal(err)
		}
		if re.Tick() != ticks || re.Metrics() != want {
			b.Fatal("replay diverged from the live run")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ticks), "ticks")
	b.ReportMetric(float64(events), "events")
}
