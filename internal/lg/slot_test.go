package lg

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"remotepeering/internal/ixpsim"
	"remotepeering/internal/netsim"
	"remotepeering/internal/stats"
)

// TestSlottedStreamMatchesSortedCompletions is the oracle for the slotted
// stream: every planned ping completes exactly once, into a slot naming
// its target, and Sort over the observations in the order the sink
// received them equals Observations element by element. It covers a
// single-LG IXP, a dual-LG one (DIX-IE) and a multi-site one (MSK-IX),
// over the paper's 120 days and over 1 day, where a server's rounds
// overlap.
func TestSlottedStreamMatchesSortedCompletions(t *testing.T) {
	w := smallWorld(t)
	single := -1
	for i := 0; i < w.NumStudied(); i++ {
		if !w.IXPs[i].HasRIPELG {
			single = i
			break
		}
	}
	if single < 0 {
		t.Fatal("no single-LG studied IXP in the test world")
	}
	ixps := []int{single}
	for _, acr := range []string{"DIX-IE", "MSK-IX"} {
		_, idx, err := w.IXPByAcronym(acr)
		if err != nil {
			t.Fatal(err)
		}
		ixps = append(ixps, idx)
	}
	for _, days := range []int{120, 1} {
		for _, idx := range ixps {
			t.Run(fmt.Sprintf("%s/%dd", w.IXPs[idx].Acronym, days), func(t *testing.T) {
				campaign := time.Duration(days) * 24 * time.Hour
				var e netsim.Engine
				src := stats.NewSource(int64(idx))
				sim, err := ixpsim.Build(&e, w, idx, campaign, src.Split("sim"))
				if err != nil {
					t.Fatal(err)
				}
				if want := idx == single; (len(sim.LGs) == 1) != want {
					t.Fatalf("%d LG servers, single-LG %t", len(sim.LGs), want)
				}
				camp := NewCampaign(Config{Duration: campaign})
				if err := camp.Schedule(&e, sim, src.Split("camp")); err != nil {
					t.Fatal(err)
				}
				var order []int32
				e.OnPing(func(r netsim.PingResult) {
					if got := camp.obs[r.Tag].Target; got != r.Target {
						t.Errorf("ping to %v completed into slot %d, which records %v", r.Target, r.Tag, got)
					}
					order = append(order, r.Tag)
					camp.collect(r)
				})
				e.Run()
				obs := camp.Observations()
				fired := make([]int, len(obs))
				completed := make([]Observation, 0, len(order))
				for _, tag := range order {
					fired[tag]++
					completed = append(completed, obs[tag])
				}
				for tag, n := range fired {
					if n != 1 {
						t.Fatalf("slot %d completed %d times, want exactly once", tag, n)
					}
				}
				Sort(completed)
				for i := range obs {
					if obs[i] != completed[i] {
						t.Fatalf("position %d of %d: slot holds %+v, sorted completions %+v", i, len(obs), obs[i], completed[i])
					}
				}
			})
		}
	}
}

// lgNode returns an LG server of the given family on a fresh node.
func lgNode(e *netsim.Engine, family string) *ixpsim.LGServer {
	return &ixpsim.LGServer{Family: family, Node: netsim.NewNode(e, "lg-"+family, netsim.DefaultOS, false, nil)}
}

// targets returns n distinct IPv4 addresses.
func targets(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	return out
}

// TestScheduleRejectsInterleavingRounds pins the config precondition: a
// regime where one target's consecutive rounds could interleave is
// ErrBadConfig, from Validate and from Schedule; at the boundary, half a
// round's span equal to a query's length, it is accepted.
func TestScheduleRejectsInterleavingRounds(t *testing.T) {
	// 11 PCH rounds of 5 pings need half a span of 4 s: a span of 8 s.
	boundary := Config{Duration: 11 * 8 * time.Second, RIPERounds: 1}
	if err := boundary.Validate(); err != nil {
		t.Fatalf("boundary regime refused: %v", err)
	}
	for name, c := range map[string]Config{
		"PCH":  {Duration: 11*8*time.Second - 11},
		"RIPE": {Duration: 30 * 24 * time.Hour, RIPERounds: 1 << 20, PingsPerQueryRIPE: 3},
	} {
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", name, err)
		}
		var e netsim.Engine
		sim := &ixpsim.SimIXP{Acronym: "X", LGs: []*ixpsim.LGServer{lgNode(&e, ixpsim.FamilyPCH)}, Targets: targets(1)}
		if err := NewCampaign(c).Schedule(&e, sim, stats.NewSource(1)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Schedule = %v, want ErrBadConfig", name, err)
		}
	}
}

func TestScheduleRejectsDuplicateTarget(t *testing.T) {
	var e netsim.Engine
	ts := targets(3)
	sim := &ixpsim.SimIXP{Acronym: "X", LGs: []*ixpsim.LGServer{lgNode(&e, ixpsim.FamilyPCH)}, Targets: append(ts, ts[1])}
	if err := NewCampaign(Config{}).Schedule(&e, sim, stats.NewSource(1)); !errors.Is(err, ErrDuplicateTarget) {
		t.Errorf("Schedule = %v, want ErrDuplicateTarget", err)
	}
}

func TestScheduleRejectsDuplicateFamily(t *testing.T) {
	var e netsim.Engine
	sim := &ixpsim.SimIXP{Acronym: "X", Targets: targets(2), LGs: []*ixpsim.LGServer{
		lgNode(&e, ixpsim.FamilyRIPE), lgNode(&e, ixpsim.FamilyPCH), lgNode(&e, ixpsim.FamilyRIPE),
	}}
	if err := NewCampaign(Config{}).Schedule(&e, sim, stats.NewSource(1)); !errors.Is(err, ErrDuplicateFamily) {
		t.Errorf("Schedule = %v, want ErrDuplicateFamily", err)
	}
}

// TestScheduleRejectsIXPOrder pins that a shared buffer stays canonical
// across IXPs: each Schedule must name an IXP above the previous one.
func TestScheduleRejectsIXPOrder(t *testing.T) {
	for _, second := range []int{3, 5} {
		var e netsim.Engine
		camp := NewCampaign(Config{PCHRounds: 1, RIPERounds: 1})
		sim := func(idx int) *ixpsim.SimIXP {
			return &ixpsim.SimIXP{IXPIndex: idx, Acronym: "X", LGs: []*ixpsim.LGServer{lgNode(&e, ixpsim.FamilyPCH)}, Targets: targets(2)}
		}
		if err := camp.Schedule(&e, sim(5), stats.NewSource(1)); err != nil {
			t.Fatal(err)
		}
		if err := camp.Schedule(&e, sim(second), stats.NewSource(1)); !errors.Is(err, ErrIXPOrder) {
			t.Errorf("IXP %d after IXP 5: Schedule = %v, want ErrIXPOrder", second, err)
		}
	}
}

// TestScheduleRejectsTooManyPings pins the tag range: a campaign past
// math.MaxInt32 pings is refused before anything is planned, whether one
// target's pings or the targets' product overflows.
func TestScheduleRejectsTooManyPings(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg     Config
		targets int
	}{
		"rounds":           {Config{PCHRounds: math.MaxInt32, PingsPerQueryPCH: 1}, 2},
		"rounds × pings":   {Config{Duration: 1 << 33 * time.Second, PCHRounds: 1 << 16, PingsPerQueryPCH: 1 << 16}, 1},
		"stride × targets": {Config{PCHRounds: 1 << 20, PingsPerQueryPCH: 1}, 1 << 11},
	} {
		var e netsim.Engine
		sim := &ixpsim.SimIXP{Acronym: "X", LGs: []*ixpsim.LGServer{lgNode(&e, ixpsim.FamilyPCH)}, Targets: targets(tc.targets)}
		camp := NewCampaign(tc.cfg)
		if err := camp.Schedule(&e, sim, stats.NewSource(1)); !errors.Is(err, ErrTooManyPings) {
			t.Errorf("%s: Schedule = %v, want ErrTooManyPings", name, err)
		}
		if len(camp.Observations()) != 0 {
			t.Errorf("%s: a refused schedule sized the buffer to %d", name, len(camp.Observations()))
		}
	}
}
