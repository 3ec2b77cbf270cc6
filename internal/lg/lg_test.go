package lg

import (
	"cmp"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"remotepeering/internal/ixpsim"
	"remotepeering/internal/netsim"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

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

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Duration != 120*24*time.Hour {
		t.Errorf("Duration = %v", c.Duration)
	}
	if c.PCHRounds != 11 || c.RIPERounds != 7 {
		t.Errorf("rounds = %d/%d", c.PCHRounds, c.RIPERounds)
	}
	if c.PingsPerQueryPCH != 5 || c.PingsPerQueryRIPE != 3 {
		t.Errorf("pings per query = %d/%d", c.PingsPerQueryPCH, c.PingsPerQueryRIPE)
	}
	if c.QuerySpacing != time.Minute || c.PingTimeout != 5*time.Second {
		t.Errorf("spacing %v timeout %v", c.QuerySpacing, c.PingTimeout)
	}
}

func TestScheduleRequiresTargets(t *testing.T) {
	var e netsim.Engine
	c := NewCampaign(Config{})
	if err := c.Schedule(&e, &ixpsim.SimIXP{Acronym: "EMPTY"}, stats.NewSource(1)); err == nil {
		t.Error("want error for an IXP without targets")
	}
}

func TestCampaignReplyBudgets(t *testing.T) {
	// Run a campaign over a small IXP and verify the per-target reply
	// ceilings match the paper: ≤ 55 from PCH (11×5) and ≤ 21 from RIPE
	// (7×3), with most targets close to the ceiling.
	w := smallWorld(t)
	var e netsim.Engine
	src := stats.NewSource(3)
	const ixp = 20 // DIX-IE: 59 targets, dual LG
	sim, err := ixpsim.Build(&e, w, ixp, 120*24*time.Hour, src.Split("sim"))
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign(Config{})
	if err := camp.Schedule(&e, sim, src.Split("camp")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	obs := camp.Observations()

	type k struct {
		ip     string
		family string
	}
	sent := map[k]int{}
	replies := map[k]int{}
	for _, o := range obs {
		key := k{o.Target.String(), o.Family}
		sent[key]++
		if !o.TimedOut {
			replies[key]++
		}
	}
	for key, n := range sent {
		switch key.family {
		case ixpsim.FamilyPCH:
			if n != 55 {
				t.Errorf("%v: %d PCH probes, want 55", key, n)
			}
		case ixpsim.FamilyRIPE:
			if n != 21 {
				t.Errorf("%v: %d RIPE probes, want 21", key, n)
			}
		}
		if replies[key] > n {
			t.Errorf("%v: more replies than probes", key)
		}
	}
	// Campaign must span a real fraction of the four months.
	var maxSent time.Duration
	for _, o := range obs {
		if o.SentAt > maxSent {
			maxSent = o.SentAt
		}
	}
	if maxSent < 90*24*time.Hour {
		t.Errorf("campaign compressed into %v; rounds must spread over months", maxSent)
	}
}

func TestObservationsSortedAndDeterministic(t *testing.T) {
	w := smallWorld(t)
	run := func() []Observation {
		var e netsim.Engine
		src := stats.NewSource(9)
		sim, err := ixpsim.Build(&e, w, 19, 120*24*time.Hour, src.Split("sim")) // INEX
		if err != nil {
			t.Fatal(err)
		}
		camp := NewCampaign(Config{})
		if err := camp.Schedule(&e, sim, src.Split("camp")); err != nil {
			t.Fatal(err)
		}
		e.Run()
		return camp.Observations()
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d differs", i)
		}
	}
	for i := 1; i < len(a); i++ {
		p, q := a[i-1], a[i]
		if p.IXPIndex > q.IXPIndex {
			t.Fatal("not sorted by IXP")
		}
		if p.IXPIndex == q.IXPIndex && p.Target == q.Target && p.Family == q.Family && p.SentAt > q.SentAt {
			t.Fatal("not sorted by send time within a target/family")
		}
	}
}

func TestRateLimitRespected(t *testing.T) {
	// Within one LG server and one round, consecutive targets' queries
	// must be spaced by at least the configured limit.
	w := smallWorld(t)
	var e netsim.Engine
	src := stats.NewSource(17)
	sim, err := ixpsim.Build(&e, w, 19, 120*24*time.Hour, src.Split("sim"))
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign(Config{PCHRounds: 1, RIPERounds: 1})
	if err := camp.Schedule(&e, sim, src.Split("camp")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	obs := camp.Observations()
	// Group the first ping of each query per family; check spacing.
	firstPing := map[string]map[string]time.Duration{} // family → target → first SentAt
	for _, o := range obs {
		m, ok := firstPing[o.Family]
		if !ok {
			m = map[string]time.Duration{}
			firstPing[o.Family] = m
		}
		ts := o.Target.String()
		if cur, ok := m[ts]; !ok || o.SentAt < cur {
			m[ts] = o.SentAt
		}
	}
	for fam, m := range firstPing {
		var times []time.Duration
		for _, at := range m {
			times = append(times, at)
		}
		if len(times) < 2 {
			continue
		}
		// Sort and check neighbouring gaps.
		for i := 0; i < len(times); i++ {
			for j := i + 1; j < len(times); j++ {
				if times[j] < times[i] {
					times[i], times[j] = times[j], times[i]
				}
			}
		}
		for i := 1; i < len(times); i++ {
			if gap := times[i] - times[i-1]; gap < time.Minute {
				t.Fatalf("%s: queries %v apart, limit is 1/min", fam, gap)
			}
		}
	}
}

func TestScheduleSizesObservationsExactly(t *testing.T) {
	// Every planned ping completes once into the sink, so Schedule can size
	// the observation buffer for the whole campaign: after the run it is
	// full, never grown past the schedule. Two IXPs share one engine and
	// one campaign, as the package allows.
	w := smallWorld(t)
	var e netsim.Engine
	src := stats.NewSource(21)
	cfg := Config{PCHRounds: 2, RIPERounds: 3, PingsPerQueryPCH: 4, PingsPerQueryRIPE: 2}
	camp := NewCampaign(cfg)
	want := 0
	for _, idx := range []int{19, 20} {
		sim, err := ixpsim.Build(&e, w, idx, 120*24*time.Hour, src.Split(fmt.Sprintf("sim-%d", idx)))
		if err != nil {
			t.Fatal(err)
		}
		if err := camp.Schedule(&e, sim, src.Split(fmt.Sprintf("camp-%d", idx))); err != nil {
			t.Fatal(err)
		}
		for _, server := range sim.LGs {
			rounds, pings := cfg.PCHRounds, cfg.PingsPerQueryPCH
			if server.Family == ixpsim.FamilyRIPE {
				rounds, pings = cfg.RIPERounds, cfg.PingsPerQueryRIPE
			}
			want += rounds * len(sim.Targets) * pings
		}
	}
	e.Run()
	raw := camp.Observations()
	if len(raw) != want || cap(raw) != want {
		t.Errorf("len %d, cap %d after the run; the schedule implies exactly %d observations", len(raw), cap(raw), want)
	}
}

// refCompare is the canonical comparator as Sort applied it through a
// stable merge sort before Sort permuted indices; it stays here as the
// reference order.
func refCompare(a, b Observation) int {
	if a.IXPIndex != b.IXPIndex {
		return cmp.Compare(a.IXPIndex, b.IXPIndex)
	}
	if a.Target != b.Target {
		if a.Target.Less(b.Target) {
			return -1
		}
		return 1
	}
	if a.Family != b.Family {
		return cmp.Compare(a.Family, b.Family)
	}
	return cmp.Compare(a.SentAt, b.SentAt)
}

func TestSortMatchesStableSortProperty(t *testing.T) {
	// Few distinct keys force (IXP, target, family, send time) ties;
	// distinct RTTs make every tie's order visible. Sort must produce
	// exactly the stable order of the reference comparator.
	targets := []netip.Addr{
		netip.MustParseAddr("10.1.0.10"), netip.MustParseAddr("10.1.0.9"),
		netip.MustParseAddr("10.2.0.1"), netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:10.1.0.10"),
	}
	families := []string{ixpsim.FamilyPCH, ixpsim.FamilyRIPE}
	for seed := int64(0); seed < 300; seed++ {
		src := stats.NewSource(seed)
		obs := make([]Observation, src.Intn(400))
		for i := range obs {
			obs[i] = Observation{
				IXPIndex: src.Intn(3),
				Family:   families[src.Intn(len(families))],
				Target:   targets[src.Intn(len(targets))],
				SentAt:   time.Duration(src.Intn(3)) * time.Second,
				RTT:      time.Duration(i),
			}
		}
		for i := 1; i < len(obs); i++ {
			if got, want := Compare(&obs[i-1], &obs[i]), refCompare(obs[i-1], obs[i]); got != want {
				t.Fatalf("seed %d: Compare(%+v, %+v) = %d, reference %d", seed, obs[i-1], obs[i], got, want)
			}
		}
		want := slices.Clone(obs)
		slices.SortStableFunc(want, refCompare)
		Sort(obs)
		for i := range obs {
			if obs[i] != want[i] {
				t.Fatalf("seed %d: position %d of %d holds %+v, stable order wants %+v", seed, i, len(obs), obs[i], want[i])
			}
		}
	}
}

// TestScheduleAllocatesNoPerPingPlan pins the campaign's allocation:
// scheduling one IXP allocates its observation buffer and O(targets +
// rounds) besides — ranks, round starts, one slot per target and server
// — never a record per planned ping.
func TestScheduleAllocatesNoPerPingPlan(t *testing.T) {
	w := smallWorld(t)
	_, idx, err := w.IXPByAcronym("DIX-IE")
	if err != nil {
		t.Fatal(err)
	}
	var e netsim.Engine
	src := stats.NewSource(7)
	sim, err := ixpsim.Build(&e, w, idx, 120*24*time.Hour, src.Split("sim"))
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign(Config{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := camp.Schedule(&e, sim, src.Split("camp")); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	cfg := camp.Config()
	rounds := 0
	for _, server := range sim.LGs {
		r, _ := cfg.budget(server.Family)
		rounds += r
	}
	planned := len(camp.Observations())
	buffer := uint64(planned) * uint64(unsafe.Sizeof(Observation{}))
	// 64 bytes per target and per round, and 16 KiB for the page
	// rounding of the buffer and the engine's first run heads.
	bound := buffer + 64*uint64(len(sim.Targets)+rounds) + 16<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("Schedule of %d targets, %d rounds, %d pings allocated %d bytes: %d past its %d-byte buffer, bound %d",
			len(sim.Targets), rounds, planned, got, got-buffer, buffer, bound)
	}
}
