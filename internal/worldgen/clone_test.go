package worldgen

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
)

// cloneWorld builds one reduced world for the clone tests.
func cloneWorld(t *testing.T) *World {
	t.Helper()
	w, err := Generate(Config{Seed: 5, LeafNetworks: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCloneNoAliasing is the copy-on-write property test: a clone that is
// perturbed through every mutation hook the scenario ops use must leave
// the parent bit-identical. The parent is compared against an untouched
// sibling clone, so the check covers unexported state too. The AS graph
// is shared by all three worlds, so instead of graph surgery the test
// pins that the shared graph refuses every mutator.
func TestCloneNoAliasing(t *testing.T) {
	w := cloneWorld(t)
	pristine := w.Clone()
	victim := w.Clone()

	// Membership surgery.
	if err := victim.RemoveIXPMembers(0); err != nil {
		t.Fatal(err)
	}
	_, linx, err := victim.IXPByAcronym("LINX")
	if err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource(99)
	leaf := ASNLeafBase + topo.ASN(3)
	if err := victim.AddDirectMembership(linx, leaf, src); err != nil {
		t.Fatal(err)
	}
	victim.RemoveMemberships(linx, map[topo.ASN]bool{leaf: true})

	// Physics and record-level writes.
	victim.PseudowireDelta[0] = 3 * time.Millisecond
	if len(victim.Ifaces) > 0 {
		victim.Ifaces[0].Hazard = HazardBlackhole
	}
	victim.IXPs[1].Members[0].Remote = !victim.IXPs[1].Members[0].Remote
	victim.Tier1s[0] = 0

	// The graph is shared and frozen: no clone can rewire it.
	if victim.Graph != w.Graph {
		t.Fatal("clone should share the parent's frozen graph")
	}
	if err := victim.Graph.AddNetwork(&topo.Network{ASN: 999999, Kind: topo.KindAccess, City: "Madrid"}); !errors.Is(err, topo.ErrFrozen) {
		t.Errorf("AddNetwork on a shared graph: %v, want ErrFrozen", err)
	}
	if err := victim.Graph.AddTransit(leaf, w.Tier1s[0]); !errors.Is(err, topo.ErrFrozen) {
		t.Errorf("AddTransit on a shared graph: %v, want ErrFrozen", err)
	}
	if err := victim.Graph.AddPeering(victim.RedIRIS, leaf); !errors.Is(err, topo.ErrFrozen) {
		t.Errorf("AddPeering on a shared graph: %v, want ErrFrozen", err)
	}

	if !reflect.DeepEqual(w, pristine) {
		t.Fatal("perturbing a clone changed the parent world")
	}
}

// TestCloneSharesGraph pins what a clone shares: the frozen AS graph,
// which assigns the dense ids, so the clone's ids are the parent's.
func TestCloneSharesGraph(t *testing.T) {
	w := cloneWorld(t)
	c := w.Clone()
	if c.Graph != w.Graph {
		t.Error("clone should share the frozen graph")
	}
	if !c.Graph.Frozen() {
		t.Error("a generated world's graph should be frozen")
	}
}

func TestAddDirectMembershipAllocatesFreshIPs(t *testing.T) {
	w := cloneWorld(t)
	c := w.Clone()
	_, xi, err := c.IXPByAcronym("AMS-IX")
	if err != nil {
		t.Fatal(err)
	}
	x := c.IXPs[xi]
	before := len(x.Members)
	ifacesBefore := len(c.Ifaces)
	src := stats.NewSource(7)
	used := make(map[string]bool, len(x.Members))
	for _, m := range x.Members {
		used[m.IP.String()] = true
	}
	for i := 0; i < 5; i++ {
		asn := ASNLeafBase + topo.ASN(100+i)
		if err := c.AddDirectMembership(xi, asn, src); err != nil {
			t.Fatal(err)
		}
	}
	if len(x.Members) != before+5 {
		t.Fatalf("got %d members, want %d", len(x.Members), before+5)
	}
	for _, m := range x.Members[before:] {
		if used[m.IP.String()] {
			t.Fatalf("new member reused address %s", m.IP)
		}
		if !x.Subnet.Contains(m.IP) {
			t.Fatalf("new member address %s outside subnet %s", m.IP, x.Subnet)
		}
		used[m.IP.String()] = true
		if m.Remote {
			t.Fatal("AddDirectMembership produced a remote membership")
		}
	}
	// AMS-IX is studied: each new port must be a probe target.
	if len(c.Ifaces) != ifacesBefore+5 {
		t.Fatalf("got %d iface records, want %d", len(c.Ifaces), ifacesBefore+5)
	}
}

func TestRemoveIXPMembersDropsTargets(t *testing.T) {
	w := cloneWorld(t)
	c := w.Clone()
	if err := c.RemoveIXPMembers(0); err != nil {
		t.Fatal(err)
	}
	if n := len(c.IXPs[0].Members); n != 0 {
		t.Fatalf("outaged IXP still has %d members", n)
	}
	for _, rec := range c.Ifaces {
		if rec.IXPIndex == 0 {
			t.Fatalf("outaged IXP still has probe target %s", rec.IP)
		}
	}
	if len(w.IXPs[0].Members) == 0 {
		t.Fatal("parent lost its members")
	}
}

func TestDistanceBand(t *testing.T) {
	cases := []struct {
		from, to string
		want     int
	}{
		{"Amsterdam", "Amsterdam", -1}, // local
		{"Amsterdam", "Milan", 0},      // intercity band
		{"Amsterdam", "Madrid", 1},     // intercountry band
		{"Amsterdam", "New York", 2},   // intercontinental
		{"Amsterdam", "Nowhere", -1},   // unknown city
	}
	for _, c := range cases {
		if got := DistanceBand(c.from, c.to); got != c.want {
			t.Errorf("DistanceBand(%s, %s) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestPseudowireShift(t *testing.T) {
	w := cloneWorld(t)
	c := w.Clone()
	c.PseudowireDelta = [3]time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	// IXP 0 is AMS-IX (Amsterdam).
	if got := c.PseudowireShift(0, "Milan"); got != time.Millisecond {
		t.Errorf("intercity shift = %v, want 1ms", got)
	}
	if got := c.PseudowireShift(0, "New York"); got != 3*time.Millisecond {
		t.Errorf("intercontinental shift = %v, want 3ms", got)
	}
	if got := c.PseudowireShift(0, "Amsterdam"); got != 0 {
		t.Errorf("local shift = %v, want 0", got)
	}
	if got := w.PseudowireShift(0, "Milan"); got != 0 {
		t.Errorf("parent shift = %v, want 0", got)
	}
}
