package topo

import (
	"errors"
	"net/netip"
	"testing"
)

// chainGraph builds 1 -> 2 -> 3 (1 is customer of 2, 2 customer of 3) and
// a peer 4 of 2.
func chainGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for asn := ASN(1); asn <= 4; asn++ {
		if err := g.AddNetwork(&Network{ASN: asn, Name: "n", Kind: KindTransit}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddTransit(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTransit(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeering(2, 4); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddNetworkDuplicate(t *testing.T) {
	g := NewGraph()
	if err := g.AddNetwork(&Network{ASN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNetwork(&Network{ASN: 1}); err == nil {
		t.Error("want duplicate error")
	}
	if err := g.AddNetwork(nil); err == nil {
		t.Error("want nil error")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := chainGraph(t)
	if g.Len() != 4 {
		t.Errorf("Len = %d", g.Len())
	}
	if g.Network(2) == nil || g.Network(99) != nil {
		t.Error("Network lookup broken")
	}
	asns := g.ASNs()
	if len(asns) != 4 || asns[0] != 1 || asns[3] != 4 {
		t.Errorf("ASNs = %v", asns)
	}
	if got := g.Providers(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Providers(1) = %v", got)
	}
	if got := g.Customers(3); len(got) != 1 || got[0] != 2 {
		t.Errorf("Customers(3) = %v", got)
	}
	if got := g.Peers(4); len(got) != 1 || got[0] != 2 {
		t.Errorf("Peers(4) = %v", got)
	}
}

// TestFreeze pins the read-only contract clones and concurrent analyses
// rely on: Freeze lays the graph out densely, so no later read writes the
// graph, and every mutator then fails without changing it. Restore freezes
// the graph it returns; a NewGraph graph mutates until Freeze.
func TestFreeze(t *testing.T) {
	g := chainGraph(t)
	g.Freeze()
	if len(g.asns) != 4 || len(g.nets) != 4 || g.b != nil {
		t.Fatalf("Freeze left %d ASNs and %d records (builder dropped: %v), want 4 and 4 with the builder dropped",
			len(g.asns), len(g.nets), g.b == nil)
	}
	if err := g.AddNetwork(&Network{ASN: 5}); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddNetwork after Freeze: %v, want ErrFrozen", err)
	}
	if err := g.AddTransit(4, 3); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddTransit after Freeze: %v, want ErrFrozen", err)
	}
	if err := g.AddPeering(1, 4); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddPeering after Freeze: %v, want ErrFrozen", err)
	}
	if g.Len() != 4 || len(g.Providers(4)) != 0 || len(g.Peers(1)) != 0 {
		t.Error("a refused mutator changed the graph")
	}

	r, err := Restore([]Network{{ASN: 1}, {ASN: 2}},
		Relation{Keys: []ASN{1}, Lens: []uint32{1}, List: []ASN{2}},
		Relation{Keys: []ASN{2}, Lens: []uint32{1}, List: []ASN{1}},
		Relation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.asns) != 2 || !r.Frozen() {
		t.Errorf("Restore left the ASNs %v (frozen %v), want 2 and frozen", r.asns, r.Frozen())
	}
	if err := r.AddPeering(1, 2); !errors.Is(err, ErrFrozen) {
		t.Errorf("AddPeering on a restored graph: %v, want ErrFrozen", err)
	}
}

// TestFrozenGraphIDs pins the dense index a frozen graph is: every ASN's
// id is its position in ascending ASN order whatever order the networks
// were added in, ID and ASN invert each other, and an ASN the graph does
// not hold has no id. An unfrozen graph assigns no ids; Restore assigns
// them like Freeze and refuses networks that are not already in id order.
func TestFrozenGraphIDs(t *testing.T) {
	g := NewGraph()
	for _, asn := range []ASN{31, 10, 500, 1000, 42} {
		if err := g.AddNetwork(&Network{ASN: asn}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := g.ID(10); ok || g.Frozen() {
		t.Fatal("an unfrozen graph assigned an id")
	}
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	want := []ASN{10, 31, 42, 500, 1000}
	for i, a := range want {
		id, ok := g.ID(a)
		if !ok || id != int32(i) {
			t.Errorf("ID(%d) = (%d,%v), want (%d,true)", a, id, ok, i)
		}
		if g.ASN(int32(i)) != a {
			t.Errorf("ASN(%d) = %d, want %d", i, g.ASN(int32(i)), a)
		}
	}
	if _, ok := g.ID(999); ok {
		t.Error("ID(999) reported held")
	}
	var nilGraph *Graph
	if nilGraph.Frozen() {
		t.Error("a nil graph reports frozen")
	}

	r, err := Restore([]Network{{ASN: 3}, {ASN: 7}}, Relation{}, Relation{}, Relation{})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := r.ID(7); !ok || id != 1 || r.ASN(0) != 3 {
		t.Errorf("restored graph: ID(7) = (%d,%v), ASN(0) = %d; want (1,true), 3", id, ok, r.ASN(0))
	}
	// Restore takes the networks in id order: out of order is refused.
	if _, err := Restore([]Network{{ASN: 7}, {ASN: 3}}, Relation{}, Relation{}, Relation{}); err == nil {
		t.Error("Restore accepted networks out of ascending order")
	}
}

func TestTransitValidation(t *testing.T) {
	g := chainGraph(t)
	if err := g.AddTransit(1, 99); err == nil {
		t.Error("want unknown provider error")
	}
	if err := g.AddTransit(99, 1); err == nil {
		t.Error("want unknown customer error")
	}
	if err := g.AddTransit(1, 1); err == nil {
		t.Error("want self-transit error")
	}
	// Idempotence: re-adding must not duplicate the edge.
	if err := g.AddTransit(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := g.Providers(1); len(got) != 1 {
		t.Errorf("transit edge duplicated: %v", got)
	}
}

func TestPeeringValidation(t *testing.T) {
	g := chainGraph(t)
	if err := g.AddPeering(1, 99); err == nil {
		t.Error("want unknown ASN error")
	}
	if err := g.AddPeering(99, 1); err == nil {
		t.Error("want unknown ASN error")
	}
	if err := g.AddPeering(2, 2); err == nil {
		t.Error("want self-peering error")
	}
	if err := g.AddPeering(2, 4); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := g.Peers(2); len(got) != 1 {
		t.Errorf("peer edge duplicated: %v", got)
	}
}

func TestCustomerCone(t *testing.T) {
	g := chainGraph(t)
	cone := g.CustomerCone(3)
	want := []ASN{1, 2, 3}
	if len(cone) != len(want) {
		t.Fatalf("cone(3) = %v", cone)
	}
	for i := range want {
		if cone[i] != want[i] {
			t.Fatalf("cone(3) = %v, want %v", cone, want)
		}
	}
	if got := g.CustomerCone(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("leaf cone = %v", got)
	}
	// Peering does not contribute to cones.
	if got := g.CustomerCone(4); len(got) != 1 {
		t.Errorf("peer-only cone = %v", got)
	}
	if g.ConeSize(3) != 3 || g.ConeSize(1) != 1 {
		t.Errorf("ConeSize mismatch: %d %d", g.ConeSize(3), g.ConeSize(1))
	}
}

func TestCustomerConeDiamond(t *testing.T) {
	// Diamond: 10 has customers 11 and 12; both have customer 13. The
	// cone must contain 13 once.
	g := NewGraph()
	for _, a := range []ASN{10, 11, 12, 13} {
		if err := g.AddNetwork(&Network{ASN: a}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]ASN{{11, 10}, {12, 10}, {13, 11}, {13, 12}} {
		if err := g.AddTransit(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	cone := g.CustomerCone(10)
	if len(cone) != 4 {
		t.Errorf("diamond cone = %v", cone)
	}
}

func TestIsProviderFree(t *testing.T) {
	g := chainGraph(t)
	if !g.IsProviderFree(3) {
		t.Error("3 is tier-1-like")
	}
	if g.IsProviderFree(1) {
		t.Error("1 has a provider")
	}
}

func TestKindAndPolicyStrings(t *testing.T) {
	if KindNREN.String() != "nren" || KindCDN.String() != "cdn" {
		t.Error("kind strings")
	}
	if PolicyOpen.String() != "open" || PolicyRestrictive.String() != "restrictive" {
		t.Error("policy strings")
	}
	if NetworkKind(42).String() == "" || PeeringPolicy(42).String() == "" {
		t.Error("unknown enums must still render")
	}
}

func TestIXPMembers(t *testing.T) {
	x := &IXP{
		Acronym: "AMS-IX",
		Cities:  []string{"Amsterdam"},
		Subnet:  netip.MustParsePrefix("195.69.144.0/21"),
		Members: []Membership{
			{ASN: 100, IP: netip.MustParseAddr("195.69.144.10")},
			{ASN: 200, Remote: true, Provider: "IX Reach", AccessCity: "Istanbul",
				IP: netip.MustParseAddr("195.69.144.11")},
			{ASN: 100, IP: netip.MustParseAddr("195.69.144.12")}, // second port
		},
	}
	if x.City() != "Amsterdam" {
		t.Errorf("City = %q", x.City())
	}
	asns := x.MemberASNs()
	if len(asns) != 2 || asns[0] != 100 || asns[1] != 200 {
		t.Errorf("MemberASNs = %v", asns)
	}
	if !x.HasMember(200) || x.HasMember(300) {
		t.Error("HasMember broken")
	}
	if x.RemoteMemberCount() != 1 {
		t.Errorf("RemoteMemberCount = %d", x.RemoteMemberCount())
	}
	m, ok := x.MembershipByIP(netip.MustParseAddr("195.69.144.11"))
	if !ok || m.ASN != 200 || !m.Remote {
		t.Errorf("MembershipByIP = %+v %v", m, ok)
	}
	if _, ok := x.MembershipByIP(netip.MustParseAddr("195.69.144.99")); ok {
		t.Error("unknown IP should not resolve")
	}
}

func TestIXPEmptyCity(t *testing.T) {
	x := &IXP{}
	if x.City() != "" {
		t.Error("empty IXP city")
	}
}
