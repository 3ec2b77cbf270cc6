package netflow

import (
	"math"
	"sort"
	"testing"
	"time"

	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
	"remotepeering/internal/vecmath"
	"remotepeering/internal/worldgen"
)

var (
	worldCache *worldgen.World
	dsCache    *Dataset
)

func testData(t *testing.T) (*worldgen.World, *Dataset) {
	t.Helper()
	if worldCache == nil {
		w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 8000})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := Collect(w, Config{Seed: 7, Intervals: 2016}) // one week
		if err != nil {
			t.Fatal(err)
		}
		worldCache, dsCache = w, ds
	}
	return worldCache, dsCache
}

func TestCollectDeterministic(t *testing.T) {
	w, _ := testData(t)
	a, err := Collect(w, Config{Seed: 7, Intervals: 2016})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(w, Config{Seed: 7, Intervals: 2016})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ")
	}
	for i := range a.Entries {
		if a.Entries[i].ASN != b.Entries[i].ASN ||
			a.Entries[i].AvgInBps != b.Entries[i].AvgInBps {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestTransitTotalsNormalised(t *testing.T) {
	_, ds := testData(t)
	in, out := ds.TransitTotals()
	if math.Abs(in-8e9) > 1 {
		t.Errorf("inbound total = %v, want 8e9", in)
	}
	if math.Abs(out-4.5e9) > 1 {
		t.Errorf("outbound total = %v, want 4.5e9", out)
	}
	if in <= out {
		t.Error("inbound must dominate outbound (paper)")
	}
}

func TestTransitUniverseScale(t *testing.T) {
	w, ds := testData(t)
	n := len(ds.TransitEntries())
	// With 8000 leaves the transit universe is smaller than the paper's
	// 29,570 but must cover the vast majority of the world's networks.
	if n < w.Graph.Len()*8/10 {
		t.Errorf("transit universe %d of %d networks", n, w.Graph.Len())
	}
	// NREN (GÉANT member) traffic must not ride transit.
	for _, nren := range w.NRENs {
		if e, ok := ds.Entry(nren); ok && e.Transit {
			t.Errorf("NREN %d marked transit; it reaches RedIRIS via GÉANT", nren)
		}
	}
	// Peered CDNs are not transit either.
	for _, cdn := range w.PeeredCDNs {
		if e, ok := ds.Entry(cdn); ok && e.Transit {
			t.Errorf("peered CDN %d marked transit", cdn)
		}
	}
	// Research backbones DO ride transit.
	e, ok := ds.Entry(worldgen.ASNResearch)
	if !ok || !e.Transit {
		t.Error("research backbone should ride transit")
	}
}

func TestRankDistributionShape(t *testing.T) {
	// Figure 5a: few networks near the top, a heavy tail, and a bend
	// toward faster decline deep in the tail.
	_, ds := testData(t)
	var rates []float64
	for _, e := range ds.TransitEntries() {
		rates = append(rates, e.AvgInBps)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(rates)))
	if rates[0] < 1e8 || rates[0] > 2.5e9 {
		t.Errorf("top contributor = %v bps, want order 10^8-10^9", rates[0])
	}
	// Top 1% must carry a large share but not everything.
	top := int(float64(len(rates)) * 0.01)
	var topSum, total float64
	for i, r := range rates {
		if i < top {
			topSum += r
		}
		total += r
	}
	frac := topSum / total
	if frac < 0.3 || frac > 0.9 {
		t.Errorf("top-1%% share = %.2f, want heavy but not total concentration", frac)
	}
	// Monotone non-increasing by construction.
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1] {
			t.Fatal("rank ordering violated")
		}
	}
}

func TestPathsPresentAndEndAtRedIRIS(t *testing.T) {
	w, ds := testData(t)
	for _, e := range ds.Entries[:500] {
		if len(e.Path) < 2 {
			t.Fatalf("entry %d has path %v", e.ASN, e.Path)
		}
		if e.Path[0] != e.ASN || e.Path[len(e.Path)-1] != w.RedIRIS {
			t.Fatalf("path endpoints wrong: %v", e.Path)
		}
		gw := e.Path[len(e.Path)-2]
		if e.Transit != (gw == w.Transit1 || gw == w.Transit2) {
			t.Fatalf("transit flag inconsistent with gateway %d", gw)
		}
	}
}

func TestRateDiurnalShape(t *testing.T) {
	_, ds := testData(t)
	e := ds.TransitEntries()[0]
	// Average over many samples at the busy hour vs the quiet hour:
	// inbound must swing visibly.
	busySum, quietSum := 0.0, 0.0
	n := 0
	for day := 0; day < 5; day++ { // weekdays
		busyIdx := day*288 + 19*12 // 19:00
		quietIdx := day*288 + 7*12 // 07:00
		bi, _ := ds.Rate(e.ASN, busyIdx)
		qi, _ := ds.Rate(e.ASN, quietIdx)
		busySum += bi
		quietSum += qi
		n++
	}
	if busySum <= quietSum {
		t.Errorf("busy-hour inbound %.0f ≤ quiet-hour %.0f; diurnal cycle missing", busySum, quietSum)
	}
}

func TestRateDeterministicRandomAccess(t *testing.T) {
	_, ds := testData(t)
	e := ds.TransitEntries()[3]
	a1, b1 := ds.Rate(e.ASN, 1234)
	a2, b2 := ds.Rate(e.ASN, 1234)
	if a1 != a2 || b1 != b2 {
		t.Error("Rate must be pure")
	}
	if _, out := ds.Rate(topo.ASN(9999999), 0); out != 0 {
		t.Error("unknown ASN must rate zero")
	}
}

func TestWeekendQuieterProperty(t *testing.T) {
	_, ds := testData(t)
	e := ds.TransitEntries()[0]
	// Compare the same hour on Wednesday vs Sunday, averaged across jitter
	// by summing many 5-min slots.
	wed, sun := 0.0, 0.0
	for h := 18; h <= 21; h++ {
		for m := 0; m < 12; m++ {
			wi, _ := ds.Rate(e.ASN, 2*288+h*12+m) // Wednesday
			si, _ := ds.Rate(e.ASN, 6*288+h*12+m) // Sunday
			wed += wi
			sun += si
		}
	}
	if sun >= wed {
		t.Errorf("Sunday evening %.0f ≥ Wednesday evening %.0f", sun, wed)
	}
}

func TestSeriesTotalAndP95(t *testing.T) {
	_, ds := testData(t)
	// Use a small subset for speed.
	set := map[topo.ASN]bool{}
	for _, e := range ds.TransitEntries()[:50] {
		set[e.ASN] = true
	}
	in, out := ds.SeriesTotal(set)
	if len(in) != ds.Cfg.Intervals || len(out) != ds.Cfg.Intervals {
		t.Fatalf("series lengths %d/%d", len(in), len(out))
	}
	p95, err := P95(in)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Sum(in) / float64(len(in))
	if p95 <= mean {
		t.Errorf("p95 %.0f should exceed the mean %.0f for a diurnal series", p95, mean)
	}
	max, _ := stats.Max(in)
	if p95 > max {
		t.Error("p95 cannot exceed the maximum")
	}
}

func TestTransientAccounting(t *testing.T) {
	w, ds := testData(t)
	// The transit providers see almost all transit traffic as transient.
	tot, tin, tout := ds.Transient(w.Transit1)
	tot2, _, _ := ds.Transient(w.Transit2)
	in, out := ds.TransitTotals()
	if tot+tot2 < (in+out)*0.95 {
		t.Errorf("tier-1 transient %.2e+%.2e should carry nearly all transit %.2e", tot, tot2, in+out)
	}
	if math.Abs(tot-(tin+tout)) > 1 {
		t.Error("directional transient split inconsistent")
	}
	// A random stub leaf should have no transient traffic.
	if tl, _, _ := ds.Transient(worldgen.ASNLeafBase + 17); tl != 0 {
		// Some leaves resell transit; pick one that does not.
		if len(w.Graph.Customers(worldgen.ASNLeafBase+17)) == 0 {
			t.Errorf("stub leaf carries transient traffic %v", tl)
		}
	}
}

func TestEntryLookup(t *testing.T) {
	_, ds := testData(t)
	e := ds.Entries[0]
	got, ok := ds.Entry(e.ASN)
	if !ok || got.ASN != e.ASN {
		t.Error("Entry lookup failed")
	}
	if _, ok := ds.Entry(topo.ASN(42424242)); ok {
		t.Error("unknown ASN should not resolve")
	}
}

func TestInboundFractionBounds(t *testing.T) {
	for k := topo.KindTransit; k <= topo.KindEnterprise; k++ {
		f := inboundFraction(k)
		if f <= 0 || f >= 1 {
			t.Errorf("inboundFraction(%v) = %v", k, f)
		}
	}
}

func TestNormFromUniform(t *testing.T) {
	// Sanity: median 0, symmetric tails, strictly increasing.
	if math.Abs(vecmath.NormFromUniform(0.5)) > 1e-9 {
		t.Errorf("median = %v", vecmath.NormFromUniform(0.5))
	}
	if math.Abs(vecmath.NormFromUniform(0.975)-1.96) > 0.01 {
		t.Errorf("q(0.975) = %v, want ≈ 1.96", vecmath.NormFromUniform(0.975))
	}
	if math.Abs(vecmath.NormFromUniform(0.025)+1.96) > 0.01 {
		t.Errorf("q(0.025) = %v, want ≈ -1.96", vecmath.NormFromUniform(0.025))
	}
	prev := math.Inf(-1)
	for u := 0.01; u < 1; u += 0.01 {
		v := vecmath.NormFromUniform(u)
		if v <= prev {
			t.Fatalf("not increasing at %v", u)
		}
		prev = v
	}
	// Extremes are clamped, not NaN.
	if math.IsNaN(vecmath.NormFromUniform(0)) || math.IsNaN(vecmath.NormFromUniform(1)) {
		t.Error("extremes must not be NaN")
	}
}

func TestDiurnalFactorBounds(t *testing.T) {
	for i := 0; i < 2016; i++ {
		f := diurnalFactor(i, 5*time.Minute, 0.55, 0)
		if f < 0.2 || f > 1.6 {
			t.Fatalf("diurnal factor %v at %d out of bounds", f, i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Intervals != 8064 || c.IntervalLength != 5*time.Minute {
		t.Errorf("defaults: %+v", c)
	}
	if c.TotalInboundBps != 8e9 || c.TotalOutboundBps != 4.5e9 {
		t.Errorf("traffic defaults: %+v", c)
	}
}

func TestRejectsNegativeKnobs(t *testing.T) {
	// A negative interval count used to pass Collect and panic in the
	// first series synthesis; both knobs are now typed errors.
	w, ds := testData(t)
	for _, cfg := range []Config{{Seed: 7, Intervals: -1}, {Seed: 7, Workers: -1}} {
		if _, err := Collect(w, cfg); err == nil {
			t.Errorf("Collect accepted %+v", cfg)
		}
		if _, err := Rehydrate(w, cfg, ds.Entries); err == nil {
			t.Errorf("Rehydrate accepted %+v", cfg)
		}
	}
}
