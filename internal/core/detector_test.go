package core

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"remotepeering/internal/geo"
	"remotepeering/internal/lg"
	"remotepeering/internal/registry"
	"remotepeering/internal/worldgen"
)

const day = 24 * time.Hour

// obsBuilder constructs synthetic observation sets for one interface.
type obsBuilder struct {
	ixp     int
	acronym string
	ip      netip.Addr
	obs     []lg.Observation
}

func newObs(ixp int, ipStr string) *obsBuilder {
	return &obsBuilder{ixp: ixp, acronym: "TEST-IX", ip: netip.MustParseAddr(ipStr)}
}

// replies appends n replies with the given family, RTT, and TTL.
func (b *obsBuilder) replies(family string, n int, rtt time.Duration, ttl uint8) *obsBuilder {
	for i := 0; i < n; i++ {
		b.obs = append(b.obs, lg.Observation{
			IXPIndex: b.ixp, Acronym: b.acronym, Family: family,
			Target: b.ip, SentAt: time.Duration(len(b.obs)) * time.Hour,
			RTT: rtt, TTL: ttl,
		})
	}
	return b
}

func (b *obsBuilder) timeouts(family string, n int) *obsBuilder {
	for i := 0; i < n; i++ {
		b.obs = append(b.obs, lg.Observation{
			IXPIndex: b.ixp, Acronym: b.acronym, Family: family,
			Target: b.ip, SentAt: time.Duration(len(b.obs)) * time.Hour,
			TimedOut: true,
		})
	}
	return b
}

// emptyRegistry builds a registry with no identified entries.
func emptyRegistry() *registry.Registry {
	w := &worldgen.World{}
	return registry.FromWorld(w)
}

func analyzeOne(t *testing.T, b *obsBuilder, cfg Config) InterfaceResult {
	t.Helper()
	rep, err := Analyze(b.obs, emptyRegistry(), 120*day, cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(rep.Interfaces) != 1 {
		t.Fatalf("got %d interface results", len(rep.Interfaces))
	}
	return rep.Interfaces[0]
}

func TestAnalyzeEmptyErrors(t *testing.T) {
	if _, err := Analyze(nil, emptyRegistry(), 120*day, Config{}); err == nil {
		t.Error("want error for no observations")
	}
	b := newObs(0, "10.1.0.10").replies("PCH", 10, time.Millisecond, 64)
	if _, err := Analyze(b.obs, emptyRegistry(), 0, Config{}); err == nil {
		t.Error("want error for zero campaign duration")
	}
}

func TestDirectPeerAnalyzedLocal(t *testing.T) {
	b := newObs(0, "10.1.0.10").replies("PCH", 30, 800*time.Microsecond, 255)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterNone {
		t.Fatalf("discarded by %v", res.Discard)
	}
	if res.Remote {
		t.Error("sub-millisecond interface classified remote")
	}
	if res.Class != geo.ClassLocal {
		t.Errorf("class = %v", res.Class)
	}
	if res.MinRTT != 800*time.Microsecond {
		t.Errorf("MinRTT = %v", res.MinRTT)
	}
}

func TestRemotePeerDetected(t *testing.T) {
	b := newObs(0, "10.1.0.10").replies("PCH", 30, 23*time.Millisecond, 64)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterNone || !res.Remote {
		t.Fatalf("result %+v", res)
	}
	if res.Class != geo.ClassIntercountry {
		t.Errorf("class = %v", res.Class)
	}
}

func TestSampleSizeFilter(t *testing.T) {
	// Only 7 replies from PCH: below the paper's floor of 8.
	b := newObs(0, "10.1.0.10").replies("PCH", 7, time.Millisecond, 64).timeouts("PCH", 40)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterSampleSize {
		t.Errorf("discard = %v, want sample-size", res.Discard)
	}
}

func TestSampleSizePerLGServer(t *testing.T) {
	// 30 replies from PCH but only 3 from RIPE: the rule is per probing
	// LG server, so the interface is discarded.
	b := newObs(0, "10.1.0.10").
		replies("PCH", 30, time.Millisecond, 64).
		replies("RIPE", 3, time.Millisecond, 64).timeouts("RIPE", 18)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterSampleSize {
		t.Errorf("discard = %v, want sample-size", res.Discard)
	}
}

func TestBlackholeDiscardedBySampleSize(t *testing.T) {
	b := newObs(0, "10.1.0.10").timeouts("PCH", 55)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterSampleSize {
		t.Errorf("discard = %v, want sample-size", res.Discard)
	}
}

func TestTTLSwitchFilter(t *testing.T) {
	// An OS change mid-campaign: 20 replies at TTL 64, then 20 at 255.
	b := newObs(0, "10.1.0.10").
		replies("PCH", 20, time.Millisecond, 64).
		replies("PCH", 20, time.Millisecond, 255)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterTTLSwitch {
		t.Errorf("discard = %v, want ttl-switch", res.Discard)
	}
}

func TestTTLMatchFilterOddOS(t *testing.T) {
	// Windows-style initial TTL 128: consistent but not an expected
	// maximum.
	b := newObs(0, "10.1.0.10").replies("PCH", 30, time.Millisecond, 128)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterTTLMatch {
		t.Errorf("discard = %v, want ttl-match", res.Discard)
	}
}

func TestTTLMatchFilterExtraHop(t *testing.T) {
	// A reply that crossed one router: TTL 63.
	b := newObs(0, "10.1.0.10").replies("PCH", 30, 3*time.Millisecond, 63)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterTTLMatch {
		t.Errorf("discard = %v, want ttl-match", res.Discard)
	}
}

func TestTTLSwitchTakesPrecedenceOverTTLMatch(t *testing.T) {
	// Mixed 64 and 63: a changing TTL is a switch discard (filter order).
	b := newObs(0, "10.1.0.10").
		replies("PCH", 15, time.Millisecond, 64).
		replies("PCH", 15, time.Millisecond, 63)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterTTLSwitch {
		t.Errorf("discard = %v, want ttl-switch", res.Discard)
	}
}

func TestRTTConsistentFilter(t *testing.T) {
	// One low anchor, everything else far above min+max(5ms,10%):
	// fewer than 4 consistent replies.
	b := newObs(0, "10.1.0.10").
		replies("PCH", 2, time.Millisecond, 64).
		replies("PCH", 40, 30*time.Millisecond, 64)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterRTTConsistent {
		t.Errorf("discard = %v, want rtt-consistent", res.Discard)
	}
}

func TestRTTConsistentWindowIsRelativeForLargeMin(t *testing.T) {
	// min = 100 ms ⇒ window = 10% = 10 ms, not 5 ms. Replies at 108 ms
	// are within.
	b := newObs(0, "10.1.0.10").
		replies("PCH", 1, 100*time.Millisecond, 64).
		replies("PCH", 30, 108*time.Millisecond, 64)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterNone {
		t.Errorf("discard = %v, want analyzed", res.Discard)
	}
	if !res.Remote || res.Class != geo.ClassIntercontinental {
		t.Errorf("result %+v", res)
	}
}

func TestLGConsistentFilter(t *testing.T) {
	// PCH sees 1 ms, RIPE sees 9 ms: 9 > 1 + max(5, 0.1) ⇒ discard.
	b := newObs(0, "10.1.0.10").
		replies("PCH", 30, time.Millisecond, 64).
		replies("RIPE", 21, 9*time.Millisecond, 64)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterLGConsistent {
		t.Errorf("discard = %v, want lg-consistent", res.Discard)
	}
}

func TestLGConsistentPassesWhenClose(t *testing.T) {
	b := newObs(0, "10.1.0.10").
		replies("PCH", 30, 20*time.Millisecond, 64).
		replies("RIPE", 21, 23*time.Millisecond, 64)
	res := analyzeOne(t, b, Config{})
	if res.Discard != FilterNone {
		t.Errorf("discard = %v, want analyzed", res.Discard)
	}
	if res.MinRTT != 20*time.Millisecond {
		t.Errorf("MinRTT = %v", res.MinRTT)
	}
}

func TestASNChangeFilter(t *testing.T) {
	// Build a registry whose entry churns mid-campaign.
	w := &worldgen.World{
		Ifaces: []worldgen.IfaceRecord{{
			IXPIndex: 0, IP: netip.MustParseAddr("10.1.0.10"),
			ASN: 100, RegistryHasASN: true,
			Hazard: worldgen.HazardASNChurn, ChurnASN: 200,
		}},
	}
	reg := registry.FromWorld(w)
	b := newObs(0, "10.1.0.10").replies("PCH", 30, time.Millisecond, 64)
	rep, err := Analyze(b.obs, reg, 120*day, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interfaces[0].Discard != FilterASNChange {
		t.Errorf("discard = %v, want asn-change", rep.Interfaces[0].Discard)
	}
}

func TestIdentificationFlowsThrough(t *testing.T) {
	w := &worldgen.World{
		Ifaces: []worldgen.IfaceRecord{{
			IXPIndex: 0, IP: netip.MustParseAddr("10.1.0.10"),
			ASN: 4242, RegistryHasASN: true,
		}},
	}
	reg := registry.FromWorld(w)
	b := newObs(0, "10.1.0.10").replies("PCH", 30, time.Millisecond, 64)
	rep, err := Analyze(b.obs, reg, 120*day, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Interfaces[0]
	if !res.Identified || res.ASN != 4242 {
		t.Errorf("identification: %+v", res)
	}
}

func TestDisableFilterAblation(t *testing.T) {
	// With the TTL-match filter disabled, the odd-OS interface survives.
	b := newObs(0, "10.1.0.10").replies("PCH", 30, time.Millisecond, 128)
	cfg := Config{Disabled: map[Filter]bool{FilterTTLMatch: true}}
	res := analyzeOne(t, b, cfg)
	if res.Discard != FilterNone {
		t.Errorf("discard = %v, want analyzed with ttl-match disabled", res.Discard)
	}
}

func TestCustomThreshold(t *testing.T) {
	b := newObs(0, "10.1.0.10").replies("PCH", 30, 12*time.Millisecond, 64)
	if res := analyzeOne(t, b, Config{}); !res.Remote {
		t.Error("12 ms should be remote at the default 10 ms threshold")
	}
	if res := analyzeOne(t, b, Config{RemoteThreshold: 15 * time.Millisecond}); res.Remote {
		t.Error("12 ms should be local at a 15 ms threshold")
	}
}

func TestDiscardCountsAggregated(t *testing.T) {
	var obs []lg.Observation
	obs = append(obs, newObs(0, "10.1.0.10").replies("PCH", 30, time.Millisecond, 64).obs...)
	obs = append(obs, newObs(0, "10.1.0.11").replies("PCH", 30, time.Millisecond, 128).obs...)
	obs = append(obs, newObs(0, "10.1.0.12").timeouts("PCH", 30).obs...)
	rep, err := Analyze(obs, emptyRegistry(), 120*day, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Discards[FilterTTLMatch] != 1 || rep.Discards[FilterSampleSize] != 1 {
		t.Errorf("discards = %v", rep.Discards)
	}
	if len(rep.Analyzed()) != 1 {
		t.Errorf("analyzed = %d, want 1", len(rep.Analyzed()))
	}
}

func TestFilterString(t *testing.T) {
	for _, f := range append([]Filter{FilterNone}, AllFilters...) {
		if f.String() == "" {
			t.Errorf("filter %d renders empty", int(f))
		}
	}
	if Filter(99).String() == "" {
		t.Error("unknown filter renders empty")
	}
}

func TestMinRTTAcrossFamilies(t *testing.T) {
	// The pooled minimum must consider both LGs.
	b := newObs(0, "10.1.0.10").
		replies("PCH", 30, 15*time.Millisecond, 64).
		replies("RIPE", 21, 14*time.Millisecond, 64)
	res := analyzeOne(t, b, Config{})
	if res.MinRTT != 14*time.Millisecond {
		t.Errorf("MinRTT = %v, want the RIPE minimum", res.MinRTT)
	}
}

// TestAnalyzeAllocsIndependentOfReplies pins the in-place walk over
// canonical input: Analyze allocates per report and per interface, never
// per reply, so doubling every interface's replies adds no allocation.
func TestAnalyzeAllocsIndependentOfReplies(t *testing.T) {
	campaign := func(replies int) []lg.Observation {
		var obs []lg.Observation
		for i := 0; i < 20; i++ {
			rtt := time.Duration(1+i) * time.Millisecond
			obs = append(obs, newObs(0, fmt.Sprintf("10.1.0.%d", 10+i)).
				replies("PCH", replies, rtt, 64).
				replies("RIPE", replies, rtt, 64).obs...)
		}
		return obs
	}
	reg := emptyRegistry()
	allocs := func(obs []lg.Observation) float64 {
		if _, canonical := countRuns(obs); !canonical {
			t.Fatal("test campaign is not in canonical order")
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Analyze(obs, reg, 120*day, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if base, doubled := allocs(campaign(16)), allocs(campaign(32)); doubled > base {
		t.Errorf("Analyze allocates %.0f times at 32 replies per family, %.0f at 16: it copies replies", doubled, base)
	}
}
