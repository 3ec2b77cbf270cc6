package ixpsim_test

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/ixpsim"
	"remotepeering/internal/lg"
	"remotepeering/internal/netsim"
	"remotepeering/internal/registry"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

// smallWorld generates a reduced world once.
var worldCache *worldgen.World

func smallWorld(t *testing.T) *worldgen.World {
	t.Helper()
	if worldCache == nil {
		w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 6000})
		if err != nil {
			t.Fatal(err)
		}
		worldCache = w
	}
	return worldCache
}

const campaign = 120 * 24 * time.Hour

func TestBuildRejectsNonStudied(t *testing.T) {
	w := smallWorld(t)
	var e netsim.Engine
	if _, err := ixpsim.Build(&e, w, 25, campaign, stats.NewSource(1)); err == nil {
		t.Error("want error for a non-studied IXP index")
	}
	if _, err := ixpsim.Build(&e, w, -1, campaign, stats.NewSource(1)); err == nil {
		t.Error("want error for a negative index")
	}
}

func TestBuildTargetsMatchWorld(t *testing.T) {
	w := smallWorld(t)
	var e netsim.Engine
	s, err := ixpsim.Build(&e, w, 3, campaign, stats.NewSource(1)) // HKIX
	if err != nil {
		t.Fatal(err)
	}
	if s.Acronym != "HKIX" {
		t.Errorf("acronym = %s", s.Acronym)
	}
	want := 0
	for _, rec := range w.Ifaces {
		if rec.IXPIndex == 3 {
			want++
			if s.IsRemote(rec.IP) != rec.Remote {
				t.Errorf("truth mismatch for %s", rec.IP)
			}
			if s.MemberNode(rec.IP) == nil {
				t.Errorf("no node for %s", rec.IP)
			}
		}
	}
	if len(s.Targets) != want {
		t.Errorf("targets = %d, want %d", len(s.Targets), want)
	}
	if s.MemberNode(netip.MustParseAddr("192.0.2.1")) != nil {
		t.Error("unknown address should have no node")
	}
}

func TestLGPlacement(t *testing.T) {
	w := smallWorld(t)
	var e netsim.Engine
	// AMS-IX (index 0) has both LGs.
	s, err := ixpsim.Build(&e, w, 0, campaign, stats.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]bool{}
	for _, l := range s.LGs {
		fams[l.Family] = true
	}
	if !fams[ixpsim.FamilyPCH] || !fams[ixpsim.FamilyRIPE] {
		t.Errorf("AMS-IX LGs = %v, want both families", fams)
	}
	// HKIX (index 3) has PCH only.
	s2, err := ixpsim.Build(&e, w, 3, campaign, stats.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.LGs) != 1 || s2.LGs[0].Family != ixpsim.FamilyPCH {
		t.Errorf("HKIX LGs: %+v", s2.LGs)
	}
}

// TestEndToEndSingleIXP runs the full Section 3 pipeline on one mid-size
// IXP and checks the detector against the simulator's ground truth.
func TestEndToEndSingleIXP(t *testing.T) {
	w := smallWorld(t)
	var e netsim.Engine
	src := stats.NewSource(7)
	const ixp = 7 // France-IX: 213 targets, single LG, remote peers in all bands
	s, err := ixpsim.Build(&e, w, ixp, campaign, src.Split("sim"))
	if err != nil {
		t.Fatal(err)
	}
	camp := lg.NewCampaign(lg.Config{Duration: campaign})
	if err := camp.Schedule(&e, s, src.Split("camp")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	obs := camp.Observations()
	if len(obs) == 0 {
		t.Fatal("no observations")
	}

	rep, err := core.Analyze(obs, registry.FromWorld(w), campaign, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Validate(func(_ int, ip netip.Addr) bool { return s.IsRemote(ip) })
	if v.FalsePositives != 0 {
		t.Errorf("false positives: %+v", v)
	}
	if v.Recall() < 0.95 {
		t.Errorf("recall = %v, want ≥ 0.95", v.Recall())
	}
	if v.TruePositives < 20 {
		t.Errorf("true positives = %d; France-IX should host ≈30 remote peers", v.TruePositives)
	}
	// Analyzed count should be close to the registry target minus the
	// IXP's share of hazards.
	analyzed := len(rep.Analyzed())
	targetIfaces := w.RegistryIfaceTarget(ixp)
	if analyzed < targetIfaces-25 || analyzed > targetIfaces {
		t.Errorf("analyzed = %d of %d targets", analyzed, targetIfaces)
	}
}

// TestEndToEndDualLGMultiSite exercises the LG-consistent filter at a
// multi-site IXP with far-site hazards (MSK-IX).
func TestEndToEndDualLGMultiSite(t *testing.T) {
	w := smallWorld(t)
	var e netsim.Engine
	src := stats.NewSource(11)
	const ixp = 5 // MSK-IX
	s, err := ixpsim.Build(&e, w, ixp, campaign, src.Split("sim"))
	if err != nil {
		t.Fatal(err)
	}
	camp := lg.NewCampaign(lg.Config{Duration: campaign})
	if err := camp.Schedule(&e, s, src.Split("camp")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	rep, err := core.Analyze(camp.Observations(), registry.FromWorld(w), campaign, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The 10 far-site members must be discarded by the LG-consistent
	// filter, and nothing else should be.
	if got := rep.Discards[core.FilterLGConsistent]; got != 10 {
		t.Errorf("lg-consistent discards = %d, want the 10 far-site ports", got)
	}
	v := rep.Validate(func(_ int, ip netip.Addr) bool { return s.IsRemote(ip) })
	if v.FalsePositives != 0 {
		t.Errorf("false positives at a multi-site IXP: %+v", v)
	}
}

func TestMisdirectedInterfaceRepliesWithDecrementedTTL(t *testing.T) {
	w := smallWorld(t)
	// Find a misdirected interface and ping it directly.
	var target worldgen.IfaceRecord
	found := false
	for _, rec := range w.Ifaces {
		if rec.Hazard == worldgen.HazardMisdirect {
			target, found = rec, true
			break
		}
	}
	if !found {
		t.Fatal("no misdirected interface in world")
	}
	var e netsim.Engine
	s, err := ixpsim.Build(&e, w, target.IXPIndex, campaign, stats.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	var got netsim.PingResult
	e.OnPing(func(r netsim.PingResult) { got = r })
	s.LGs[0].Node.Ping(0, target.IP, 5*time.Second, 0)
	e.Run()
	if got.TimedOut {
		t.Fatal("misdirected target should still answer (via the far host)")
	}
	if got.TTL == 64 || got.TTL == 255 {
		t.Errorf("reply TTL = %d; the extra IP hop must decrement it", got.TTL)
	}
}

func TestDeterministicRebuild(t *testing.T) {
	w := smallWorld(t)
	run := func() []netsim.PingResult {
		var e netsim.Engine
		s, err := ixpsim.Build(&e, w, 19, campaign, stats.NewSource(21)) // INEX, small
		if err != nil {
			t.Fatal(err)
		}
		var out []netsim.PingResult
		e.OnPing(func(r netsim.PingResult) { out = append(out, r) })
		for i, target := range s.Targets {
			s.LGs[0].Node.Ping(time.Duration(i)*time.Minute, target, 5*time.Second, 0)
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	_ = fmt.Sprint() // keep fmt in imports if unused elsewhere
}
