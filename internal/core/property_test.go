package core

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/registry"
	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

// randomObservations builds a deterministic pseudo-random campaign and
// the registry that identifies its interfaces. Interfaces sit at up to
// three IXPs (the same address may appear at several) and carry varied
// reply counts, RTTs and TTLs, plus the detector's edge cases: LG
// families whose pings all time out, TTL switches inside one family,
// replies exactly on the consistency window's edge (and one nanosecond
// past it), and registry entries that are missing, unidentified, or whose
// ASN churns mid-campaign.
func randomObservations(seed int64) ([]lg.Observation, *registry.Registry) {
	src := stats.NewSource(seed)
	window := Config{}.withDefaults().window
	var obs []lg.Observation
	var recs []worldgen.IfaceRecord
	nIXPs := 1 + src.Intn(3)
	for ixp := 0; ixp < nIXPs; ixp++ {
		acronym := fmt.Sprintf("RAND-IX-%d", ixp)
		nIfaces := 2 + src.Intn(8)
		for i := 0; i < nIfaces; i++ {
			ip := netip.AddrFrom4([4]byte{10, 1, 0, byte(10 + i)})
			if r := src.Float64(); r < 0.8 {
				rec := worldgen.IfaceRecord{
					IXPIndex: ixp, IP: ip, ASN: topo.ASN(100 + i),
					RegistryHasASN: r < 0.6,
				}
				if src.Float64() < 0.3 {
					rec.Hazard, rec.ChurnASN = worldgen.HazardASNChurn, topo.ASN(900+i)
				}
				recs = append(recs, rec)
			}
			families := []string{"PCH"}
			if src.Float64() < 0.5 {
				families = append(families, "RIPE")
			}
			// m anchors the pooled minimum; w is the consistency window
			// above it.
			m := time.Duration(src.Float64()*80)*time.Millisecond + 100*time.Microsecond
			w := window(m)
			ttl := uint8(64)
			if src.Float64() < 0.5 {
				ttl = 255
			}
			if src.Float64() < 0.15 {
				ttl = 128 // odd OS
			}
			for f, fam := range families {
				famMin := m
				if f > 0 {
					switch r := src.Float64(); {
					case r < 0.2:
						famMin = m + w // LG-consistent edge: agrees
					case r < 0.4:
						famMin = m + w + 1 // one nanosecond past it
					case r < 0.5:
						famMin = m + 20*time.Millisecond
					default:
						famMin = m + time.Duration(src.Float64()*3)*time.Millisecond
					}
				}
				n := src.Intn(30)
				if src.Float64() < 0.15 {
					n = 0 // every ping of this family times out
				}
				switchAt := -1
				if src.Float64() < 0.1 {
					switchAt = src.Intn(n + 1)
				}
				famTTL := ttl
				for k := 0; k < n; k++ {
					if k == switchAt {
						if famTTL == 64 {
							famTTL = 255
						} else {
							famTTL = 64
						}
					}
					rtt := famMin
					if k > 0 {
						switch r := src.Float64(); {
						case r < 0.1:
							rtt = m + w // RTT-consistent edge: counted
						case r < 0.2:
							rtt = m + w + 1 // not counted
						default:
							rtt = famMin + time.Duration(src.Float64()*3)*time.Millisecond
						}
					}
					obs = append(obs, lg.Observation{
						IXPIndex: ixp, Acronym: acronym, Family: fam, Target: ip,
						SentAt: time.Duration(k) * time.Hour,
						RTT:    rtt,
						TTL:    famTTL,
					})
				}
				timeouts := src.Intn(5)
				if n == 0 {
					timeouts++
				}
				for k := 0; k < timeouts; k++ {
					obs = append(obs, lg.Observation{
						IXPIndex: ixp, Acronym: acronym, Family: fam, Target: ip,
						SentAt: time.Duration(100+k) * time.Hour, TimedOut: true,
					})
				}
			}
		}
	}
	return obs, registry.FromWorld(&worldgen.World{Ifaces: recs})
}

func TestThresholdMonotonicityProperty(t *testing.T) {
	// Raising the remoteness threshold can only shrink the set of
	// interfaces classified remote; it never changes which interfaces
	// are analyzed.
	f := func(seed int64) bool {
		obs, reg := randomObservations(seed)
		if len(obs) == 0 {
			return true
		}
		prevRemote := 1 << 30
		prevAnalyzed := -1
		for _, ms := range []time.Duration{5, 10, 20, 50} {
			rep, err := Analyze(obs, reg, 120*day, Config{RemoteThreshold: ms * time.Millisecond})
			if err != nil {
				return false
			}
			remote := 0
			for _, r := range rep.Analyzed() {
				if r.Remote {
					remote++
				}
			}
			if remote > prevRemote {
				return false
			}
			if prevAnalyzed >= 0 && len(rep.Analyzed()) != prevAnalyzed {
				return false
			}
			prevRemote = remote
			prevAnalyzed = len(rep.Analyzed())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDisablingFiltersNeverShrinksAnalyzedProperty(t *testing.T) {
	// Each filter only removes interfaces: disabling any one of them can
	// only grow (or keep) the analyzed set.
	f := func(seed int64) bool {
		obs, reg := randomObservations(seed)
		if len(obs) == 0 {
			return true
		}
		base, err := Analyze(obs, reg, 120*day, Config{})
		if err != nil {
			return false
		}
		baseN := len(base.Analyzed())
		for _, filter := range AllFilters {
			rep, err := Analyze(obs, reg, 120*day, Config{Disabled: map[Filter]bool{filter: true}})
			if err != nil {
				return false
			}
			if len(rep.Analyzed()) < baseN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDiscardCountsPartitionProperty(t *testing.T) {
	// Probed = analyzed + Σ discards, and every interface carries exactly
	// one verdict.
	f := func(seed int64) bool {
		obs, reg := randomObservations(seed)
		if len(obs) == 0 {
			return true
		}
		rep, err := Analyze(obs, reg, 120*day, Config{})
		if err != nil {
			return false
		}
		discards := 0
		for _, n := range rep.Discards {
			discards += n
		}
		return len(rep.Analyzed())+discards == len(rep.Interfaces)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeOrderInvariantProperty(t *testing.T) {
	// The verdicts must not depend on observation order.
	f := func(seed int64) bool {
		obs, reg := randomObservations(seed)
		if len(obs) < 2 {
			return true
		}
		rep1, err := Analyze(obs, reg, 120*day, Config{})
		if err != nil {
			return false
		}
		// Reverse the observations.
		rev := make([]lg.Observation, len(obs))
		for i, o := range obs {
			rev[len(obs)-1-i] = o
		}
		rep2, err := Analyze(rev, reg, 120*day, Config{})
		if err != nil {
			return false
		}
		if len(rep1.Interfaces) != len(rep2.Interfaces) {
			return false
		}
		for i := range rep1.Interfaces {
			a, b := rep1.Interfaces[i], rep2.Interfaces[i]
			if a.IP != b.IP || a.Discard != b.Discard || a.MinRTT != b.MinRTT || a.Remote != b.Remote {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAnalyzeMatchesReference holds Analyze to analyzeRef, the map-based
// detector it replaced, over generated campaigns in canonical, reversed
// and shuffled order, and checks that Analyze leaves the caller's slice
// as it found it. It runs the paper's configuration, each filter
// disabled alone, and all six disabled.
func TestAnalyzeMatchesReference(t *testing.T) {
	cfgs := []Config{{}}
	all := map[Filter]bool{}
	for _, f := range AllFilters {
		cfgs = append(cfgs, Config{Disabled: map[Filter]bool{f: true}})
		all[f] = true
	}
	cfgs = append(cfgs, Config{Disabled: all})
	for seed := int64(0); seed < 300; seed++ {
		obs, reg := randomObservations(seed)
		canonical := slices.Clone(obs)
		lg.Sort(canonical)
		reversed := slices.Clone(canonical)
		slices.Reverse(reversed)
		shuffled := slices.Clone(canonical)
		stats.NewSource(seed).Split("shuffle").Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, in := range []struct {
			name string
			obs  []lg.Observation
		}{{"canonical", canonical}, {"reversed", reversed}, {"shuffled", shuffled}} {
			before := slices.Clone(in.obs)
			for ci, cfg := range cfgs {
				want, wantErr := analyzeRef(in.obs, reg, 120*day, cfg)
				got, err := Analyze(in.obs, reg, 120*day, cfg)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d, %s input, config %d: error %v, reference error %v", seed, in.name, ci, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s input, config %d (disabled %v): Analyze differs from the reference: %s",
						seed, in.name, ci, cfg.Disabled, firstDifference(got, want))
				}
				if !slices.Equal(in.obs, before) {
					t.Fatalf("seed %d, %s input: Analyze reordered the caller's slice", seed, in.name)
				}
			}
		}
	}
}

// firstDifference describes where two reports part ways.
func firstDifference(got, want *Report) string {
	if got == nil || want == nil {
		return fmt.Sprintf("got %v, want %v", got, want)
	}
	for i := range min(len(got.Interfaces), len(want.Interfaces)) {
		if got.Interfaces[i] != want.Interfaces[i] {
			return fmt.Sprintf("interface %d: got %+v, want %+v", i, got.Interfaces[i], want.Interfaces[i])
		}
	}
	if len(got.Interfaces) != len(want.Interfaces) {
		return fmt.Sprintf("%d interfaces, want %d", len(got.Interfaces), len(want.Interfaces))
	}
	return fmt.Sprintf("discards %v, want %v; config %+v, want %+v", got.Discards, want.Discards, got.Cfg, want.Cfg)
}
