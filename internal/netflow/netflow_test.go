package netflow

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/asindex"
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

// TestSeriesTotalSetWithoutRanking pins that a dataset built by hand (no
// ranking to resolve ids through) selects nothing for a non-nil set and
// every transit entry for a nil one, instead of dereferencing the missing
// ranking's graph.
func TestSeriesTotalSetWithoutRanking(t *testing.T) {
	_, ds := testData(t)
	byHand := &Dataset{Cfg: ds.Cfg, Entries: ds.TransitEntries()[:2]}
	in, out := byHand.SeriesTotalSet(asindex.NewBitSet(64))
	if len(in) != ds.Cfg.Intervals || stats.Sum(in) != 0 || stats.Sum(out) != 0 {
		t.Errorf("a non-nil set over a dataset without a ranking selected traffic: %d intervals, in %v, out %v", len(in), stats.Sum(in), stats.Sum(out))
	}
	all, _ := byHand.SeriesTotalSet(nil)
	if want, _ := byHand.SeriesTotal(nil); !slices.Equal(all, want) || stats.Sum(all) == 0 {
		t.Error("a nil set does not select every transit entry")
	}
}

// TestConfigMatches pins the "Intervals 0 means the full paper month"
// semantics of dataset reuse: a short-run dataset never satisfies a
// full-month request, and vice versa; a nil dataset or a seed mismatch
// never matches.
func TestConfigMatches(t *testing.T) {
	mk := func(seed int64, intervals int) *Dataset {
		return &Dataset{Cfg: Config{Seed: seed, Intervals: intervals}}
	}
	if (Config{Seed: 2}).Matches(nil) {
		t.Error("a nil dataset must not match")
	}
	if (Config{Seed: 2}).Matches(mk(2, 288)) {
		t.Error("a 288-interval dataset must not satisfy the full-month default")
	}
	if !(Config{Seed: 2}).Matches(mk(2, DefaultIntervals)) {
		t.Error("a full-month dataset must satisfy the full-month default")
	}
	if !(Config{Seed: 2, Intervals: 288}).Matches(mk(2, 288)) {
		t.Error("an exact intervals match must succeed")
	}
	if (Config{Seed: 2, Intervals: 288}).Matches(mk(3, 288)) {
		t.Error("a seed mismatch must fail")
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
	if _, ok := (&Dataset{}).Entry(e.ASN); ok {
		t.Error("a dataset built by hand should resolve nothing")
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

// TestRejectsUncomputableConfig pins that a config no dataset can be
// computed from is a typed error from both constructors: a NaN, infinite
// or negative total (each poisoned every rate, the transit totals and
// the p95 with NaN), a phase that is not finite or whose time.Duration
// overflows (Go leaves that conversion to the architecture), and a
// negative interval length.
func TestRejectsUncomputableConfig(t *testing.T) {
	w, ds := priceWorld(t, 600)
	for _, cfg := range []Config{
		{Seed: 7, TotalInboundBps: math.NaN()},
		{Seed: 7, TotalInboundBps: math.Inf(1)},
		{Seed: 7, TotalInboundBps: -1},
		{Seed: 7, TotalOutboundBps: math.NaN()},
		{Seed: 7, TotalOutboundBps: math.Inf(-1)},
		{Seed: 7, TotalOutboundBps: -4.5e9},
		{Seed: 7, PhaseHours: math.NaN()},
		{Seed: 7, PhaseHours: math.Inf(1)},
		{Seed: 7, PhaseHours: 1e300},
		{Seed: 7, PhaseHours: -3e6},
		{Seed: 7, IntervalLength: -time.Minute},
	} {
		if _, err := Collect(w, cfg); err == nil {
			t.Errorf("Collect accepted %+v", cfg)
		}
		if _, err := Price(ds, w, cfg); err == nil {
			t.Errorf("Price accepted %+v", cfg)
		}
		if _, err := Rehydrate(w, cfg, ds.Entries); err == nil {
			t.Errorf("Rehydrate accepted %+v", cfg)
		}
	}
	// The largest phase that fits a duration still collects.
	if _, err := Collect(w, Config{Seed: 7, Intervals: 12, PhaseHours: 2.5e6}); err != nil {
		t.Errorf("Collect refused a 2.5e6 h phase: %v", err)
	}
}

// priceWorld generates a world of the given leaf count (0: paper scale)
// and collects a short dataset over it.
func priceWorld(t *testing.T, leaves int) (*worldgen.World, *Dataset) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.Config{Seed: 1, LeafNetworks: leaves})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Collect(w, Config{Seed: 7, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	return w, ds
}

// pricedConfig is the traffic config a cell reaches from the default
// regime through traffic:factor and diurnal:phase.
func pricedConfig(factor, phase float64) Config {
	return Config{
		Seed:             7,
		Intervals:        96,
		TotalInboundBps:  DefaultInboundBps * factor,
		TotalOutboundBps: DefaultOutboundBps * factor,
		PhaseHours:       phase,
	}
}

// samePriced fails t unless got is bit-for-bit the dataset want is:
// every entry, the transit totals, the all-transit series and the
// transient accounting over every AS inside a path.
func samePriced(t *testing.T, got, want *Dataset) {
	t.Helper()
	if got.Cfg != want.Cfg || len(got.Entries) != len(want.Entries) {
		t.Fatalf("config %+v with %d entries, want %+v with %d", got.Cfg, len(got.Entries), want.Cfg, len(want.Entries))
	}
	bits := math.Float64bits
	mids := map[topo.ASN]bool{}
	for i := range want.Entries {
		g, e := &got.Entries[i], &want.Entries[i]
		if g.ASN != e.ASN || g.Transit != e.Transit || !slices.Equal(g.Path, e.Path) ||
			bits(g.AvgInBps) != bits(e.AvgInBps) || bits(g.AvgOutBps) != bits(e.AvgOutBps) {
			t.Fatalf("entry %d = %+v, want %+v", i, *g, *e)
		}
		for _, a := range e.Path[1:max(1, len(e.Path)-1)] {
			mids[a] = true
		}
	}
	gi, gout := got.TransitTotals()
	wi, wout := want.TransitTotals()
	if bits(gi) != bits(wi) || bits(gout) != bits(wout) {
		t.Fatalf("transit totals %v/%v, want %v/%v", gi, gout, wi, wout)
	}
	gsIn, gsOut := got.SeriesTotal(nil)
	wsIn, wsOut := want.SeriesTotal(nil)
	for k := range wsIn {
		if bits(gsIn[k]) != bits(wsIn[k]) || bits(gsOut[k]) != bits(wsOut[k]) {
			t.Fatalf("series interval %d = %v/%v, want %v/%v", k, gsIn[k], gsOut[k], wsIn[k], wsOut[k])
		}
	}
	for a := range mids {
		g1, g2, g3 := got.Transient(a)
		w1, w2, w3 := want.Transient(a)
		if bits(g1) != bits(w1) || bits(g2) != bits(w2) || bits(g3) != bits(w3) {
			t.Fatalf("transient of %d = %v/%v/%v, want %v/%v/%v", a, g1, g2, g3, w1, w2, w3)
		}
	}
}

// TestPriceMatchesCollect pins that pricing a ranking is a fresh
// collection, bit for bit, over the demand factors and phases a what-if
// or a tick drift reaches, whether the ranking came from Collect or from
// a snapshot's entry order through Rehydrate — and that the priced
// dataset shares the source's ranking instead of ranking again.
func TestPriceMatchesCollect(t *testing.T) {
	scales := []int{1200}
	if !testing.Short() {
		scales = append(scales, 0) // paper scale
	}
	for _, leaves := range scales {
		t.Run(fmt.Sprintf("leaves=%d", leaves), func(t *testing.T) {
			w, collected := priceWorld(t, leaves)
			entries := slices.Clone(collected.Entries)
			rehydrated, err := Rehydrate(w, collected.Cfg, entries)
			if err != nil {
				t.Fatal(err)
			}
			sources := map[string]*Dataset{"collected": collected, "rehydrated": rehydrated}
			for _, factor := range []float64{1.001, 1.05, 0.5, 3.7, 1e-3} {
				for _, phase := range []float64{0, 5.5} {
					cfg := pricedConfig(factor, phase)
					want, err := Collect(w, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for name, src := range sources {
						got, err := Price(src, w, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got.rank != src.rank {
							t.Errorf("factor %v phase %v from %s: priced dataset ranked afresh", factor, phase, name)
						}
						samePriced(t, got, want)
					}
				}
			}
		})
	}
}

// TestPriceRefusesForeignRanking pins that a ranking built under another
// traffic seed, or over another graph (a second Generate of the same
// config, equal in content but not the same frozen graph), is not
// adopted: Price ranks afresh and still equals Collect.
func TestPriceRefusesForeignRanking(t *testing.T) {
	w, _ := priceWorld(t, 1200)
	_, regenerated := priceWorld(t, 1200)
	cfg := pricedConfig(1.05, 5.5)
	want, err := Collect(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reseeded, err := Collect(w, Config{Seed: 8, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*Dataset{"another seed": reseeded, "another graph": regenerated} {
		got, err := Price(src, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.rank == src.rank {
			t.Errorf("%s: adopted the foreign ranking", name)
		}
		samePriced(t, got, want)
	}
}

// TestPriceConcurrentReaders prices one source from several goroutines
// while they all read the lazily built tables — the shared ranking's ASN
// lookup and the source's transient accounting. Run under -race: every
// goroutine must see what a fresh collection answers.
func TestPriceConcurrentReaders(t *testing.T) {
	w, src := priceWorld(t, 600)
	cfg := pricedConfig(1.3, 2)
	want, err := Collect(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := src.Entries[:40]
	wantIDs := entryIDs(w.Graph, want.Entries)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Price(src, w, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			// The priced dataset and its source share one ranking, so
			// these calls race to fill one id table.
			if ids := got.EntryIDs(w.Graph); !slices.Equal(ids, wantIDs) {
				t.Error("EntryIDs of the priced dataset differ from the fresh collection's")
				return
			}
			if ids := src.EntryIDs(w.Graph); !slices.Equal(ids, wantIDs) {
				t.Error("EntryIDs of the source dataset differ from the fresh collection's")
				return
			}
			for _, e := range probe {
				ge, ok := got.Entry(e.ASN)
				we, _ := want.Entry(e.ASN)
				if !ok || ge.AvgInBps != we.AvgInBps || ge.AvgOutBps != we.AvgOutBps {
					t.Errorf("Entry(%d) = %+v, %v; want %+v", e.ASN, ge, ok, we)
					return
				}
				if s, _ := src.Entry(e.ASN); s.ASN != e.ASN {
					t.Errorf("source Entry(%d) = %+v", e.ASN, s)
					return
				}
				for _, a := range e.Path {
					gt, _, _ := got.Transient(a)
					st, _, _ := src.Transient(a)
					wt, _, _ := want.Transient(a)
					if gt != wt || (st == 0) != (wt == 0) {
						t.Errorf("Transient(%d) = %v (source %v), want %v", a, gt, st, wt)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEntryIDs pins the dense-id accessor: over the ranking's own graph
// the ids are each entry's Graph.ID, built once and shared by every
// dataset priced from that ranking; over another graph, or for a dataset
// built by hand, they are computed on the spot, -1 where the graph lacks
// the network.
func TestEntryIDs(t *testing.T) {
	w, ds := priceWorld(t, 600)
	ids := ds.EntryIDs(w.Graph)
	if len(ids) != len(ds.Entries) {
		t.Fatalf("%d ids for %d entries", len(ids), len(ds.Entries))
	}
	for i, e := range ds.Entries {
		if id, ok := w.Graph.ID(e.ASN); !ok || ids[i] != id {
			t.Fatalf("entry %d (AS %d): id %d, want %d", i, e.ASN, ids[i], id)
		}
	}
	priced, err := Price(ds, w, pricedConfig(1.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if again := priced.EntryIDs(w.Graph); &again[0] != &ids[0] {
		t.Error("a dataset priced from the ranking rebuilt its ids instead of sharing them")
	}

	other, err := worldgen.Generate(worldgen.Config{Seed: 2, LeafNetworks: 300})
	if err != nil {
		t.Fatal(err)
	}
	absent := 0
	for i, id := range ds.EntryIDs(other.Graph) {
		want, ok := other.Graph.ID(ds.Entries[i].ASN)
		if !ok {
			want = -1
			absent++
		}
		if id != want {
			t.Fatalf("entry %d over another graph: id %d, want %d", i, id, want)
		}
	}
	if absent == 0 {
		t.Error("the smaller graph holds every network; the -1 path is untested")
	}

	byHand := &Dataset{Cfg: ds.Cfg, Entries: ds.Entries[:5]}
	if got := byHand.EntryIDs(w.Graph); !slices.Equal(got, ids[:5]) {
		t.Errorf("hand-built dataset: ids %v, want %v", got, ids[:5])
	}
}
