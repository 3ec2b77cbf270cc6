// Package ixpsim assembles a runnable netsim model of one studied IXP from
// the generated world: the switching fabric (possibly multi-site), the PCH
// and RIPE NCC looking-glass hosts, and one member router per
// registry-listed interface — direct members on short local tails, remote
// members behind layer-2 pseudowires whose delay follows the geography of
// their access city, and hazard gear (blackholes, flaky responders, odd
// TTLs, mid-campaign OS switches, congested ports, far-site ports, and
// misdirected registry entries routed through a proxy edge router).
package ixpsim

import (
	"fmt"
	"net/netip"
	"time"

	"remotepeering/internal/geo"
	"remotepeering/internal/netsim"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

// LG family identifiers, matching the paper's two vantage-point operators.
const (
	FamilyPCH  = "PCH"
	FamilyRIPE = "RIPE"
)

// LGServer is a looking-glass host on the IXP LAN.
type LGServer struct {
	Family string
	Node   *netsim.Node
	Addr   netip.Addr
}

// SimIXP is the runnable model of one studied IXP.
type SimIXP struct {
	IXPIndex int
	Acronym  string
	Fabric   *netsim.Fabric
	LGs      []*LGServer
	// Targets lists the registry-listed probe-target addresses in the
	// order of the world's interface records.
	Targets []netip.Addr
	// truth maps target IP → ground-truth remoteness.
	truth map[netip.Addr]bool

	memberNodes map[netip.Addr]*netsim.Node
}

// IsRemote returns the ground truth for a target address.
func (s *SimIXP) IsRemote(ip netip.Addr) bool { return s.truth[ip] }

// TruthMap exposes the simulation's ground-truth table (target IP →
// remoteness). The campaign layer retains it after the simulation engine
// is gone — it is the only part of a SimIXP that outlives the run — so
// validation and snapshot persistence need the table, not the simulator.
// Callers must treat the map as read-only.
func (s *SimIXP) TruthMap() map[netip.Addr]bool { return s.truth }

// MemberNode returns the node answering for a target address (for the
// misdirected hazard this is the far host, not a LAN member). Nil when the
// address is unknown.
func (s *SimIXP) MemberNode(ip netip.Addr) *netsim.Node { return s.memberNodes[ip] }

// Build assembles the simulation of the studied IXP with index ixpIndex in
// the world. campaign is the total campaign duration, needed to place
// mid-campaign TTL switches.
func Build(e *netsim.Engine, w *worldgen.World, ixpIndex int, campaign time.Duration, src *stats.Source) (*SimIXP, error) {
	if ixpIndex < 0 || ixpIndex >= w.NumStudied() {
		return nil, fmt.Errorf("ixpsim: IXP index %d is not a studied IXP", ixpIndex)
	}
	x := w.IXPs[ixpIndex]
	ixpCity, err := geo.LookupCity(x.City())
	if err != nil {
		return nil, fmt.Errorf("ixpsim: %s: %w", x.Acronym, err)
	}

	s := &SimIXP{
		IXPIndex:    ixpIndex,
		Acronym:     x.Acronym,
		truth:       make(map[netip.Addr]bool),
		memberNodes: make(map[netip.Addr]*netsim.Node),
	}

	f := netsim.NewFabric(e, x.Acronym)
	f.SwitchLatency = 15 * time.Microsecond
	f.Noise = netsim.NewNoiseModel(src.Split("fabric-noise"), 80*time.Microsecond, 1500*time.Microsecond)
	if d := w.InterSiteDelay(ixpIndex); d > 0 {
		// Multi-site fabric layout: site 0 carries the PCH LG and the
		// bulk of the members; site 1 is a satellite switch close to
		// site 0; site 2 carries the RIPE NCC LG, also close to site 0.
		// The satellite's path to the RIPE site, however, rides a long
		// metro ring (the spec's inter-site delay) — so only satellite
		// members see LG-inconsistent minimum RTTs, while the LGs agree
		// about everyone else. Fabric topologies are not metric spaces;
		// DIX-IE ("Distributed IX in Edo") is exactly this shape.
		f.SetInterLocation(0, 1, 400*time.Microsecond)
		f.SetInterLocation(0, 2, 150*time.Microsecond)
		f.SetInterLocation(1, 2, d)
	}
	s.Fabric = f

	// Looking-glass hosts. All studied IXPs host a PCH LG; some also a
	// RIPE NCC one. At multi-site fabrics the two operators' racks sit at
	// different sites, which is what arms the LG-consistent filter.
	subnetBits := x.Subnet.Bits()
	lgIPs := []netip.Addr{infraIP(x.Subnet, 2), infraIP(x.Subnet, 3)}
	addLG := func(family string, ip netip.Addr, location int) {
		n := netsim.NewNode(e, x.Acronym+"-lg-"+family,
			netsim.OSProfile{InitTTL: 64, ProcMean: 20 * time.Microsecond}, false, src.Split("lg-"+family))
		iface := n.AddIface("eth0", netip.PrefixFrom(ip, subnetBits))
		att := f.Attach(iface, 4*time.Microsecond)
		att.Location = location
		s.LGs = append(s.LGs, &LGServer{Family: family, Node: n, Addr: ip})
	}
	if x.HasPCHLG {
		addLG(FamilyPCH, lgIPs[0], 0)
	}
	if x.HasRIPELG {
		loc := 0
		if w.InterSiteDelay(ixpIndex) > 0 {
			loc = 2
		}
		addLG(FamilyRIPE, lgIPs[1], loc)
	}

	// Member routers, one per listed interface record.
	recIdx := 0
	for _, rec := range w.Ifaces {
		if rec.IXPIndex != ixpIndex {
			continue
		}
		if err := s.addMember(e, w, x.Subnet, ixpCity, rec, campaign, src.Split(fmt.Sprintf("member-%d", recIdx))); err != nil {
			return nil, fmt.Errorf("ixpsim: %s member %s: %w", x.Acronym, rec.IP, err)
		}
		s.Targets = append(s.Targets, rec.IP)
		s.truth[rec.IP] = rec.Remote
		recIdx++
	}
	return s, nil
}

// infraIP returns subnet base + n, used for LG and infrastructure hosts
// (member interfaces start at +10).
func infraIP(p netip.Prefix, n int) netip.Addr {
	a := p.Addr().As4()
	base := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	v := base + uint32(n)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// addMember wires one interface record into the fabric.
func (s *SimIXP) addMember(e *netsim.Engine, w *worldgen.World, subnet netip.Prefix, ixpCity geo.City, rec worldgen.IfaceRecord, campaign time.Duration, src *stats.Source) error {
	bits := subnet.Bits()
	name := fmt.Sprintf("%s-as%d-%s", s.Acronym, rec.ASN, rec.IP)

	if rec.Hazard == worldgen.HazardMisdirect {
		return s.addMisdirected(e, subnet, rec, name, src)
	}

	initTTL := rec.InitTTL
	if rec.Hazard == worldgen.HazardOddTTL {
		initTTL = rec.OddTTL
	}
	node := netsim.NewNode(e, name,
		netsim.OSProfile{InitTTL: initTTL, ProcMean: 150 * time.Microsecond}, true, src.Split("node"))
	node.DropProb = 0.03

	iface := node.AddIface("ixp", netip.PrefixFrom(rec.IP, bits))

	// Access delay: a short local tail for direct members, the
	// remote-peering provider's pseudowire for remote members.
	var access time.Duration
	if rec.Remote {
		home, err := geo.LookupCity(rec.AccessCity)
		if err != nil {
			return err
		}
		prop := geo.DefaultPropagation.OneWayDelay(home.Coord, ixpCity.Coord)
		// Provider aggregation and sub-optimal wavepaths add overhead on
		// top of raw propagation.
		overhead := time.Duration((1.5 + 1.0*src.Float64()) * float64(time.Millisecond))
		access = prop + overhead
		// Scenario-level latency regime shifts (zero outside what-if
		// runs) move the pseudowire delay per distance band; the floor
		// keeps a large negative shift physically plausible.
		if shift := w.PseudowireShift(rec.IXPIndex, rec.AccessCity); shift != 0 {
			access += shift
			if access < 100*time.Microsecond {
				access = 100 * time.Microsecond
			}
		}
	} else {
		// Direct members still reach the switch over metro tails of
		// varying length (same building to across town), which spreads
		// their minimum RTTs almost uniformly over ≈0.3-2 ms — the bulk
		// of the paper's Figure 2 distribution.
		access = time.Duration(120+src.Intn(800)) * time.Microsecond
	}
	att := s.Fabric.Attach(iface, access)
	att.Location = rec.Location

	switch rec.Hazard {
	case worldgen.HazardBlackhole:
		node.Blackhole = true
	case worldgen.HazardFlaky:
		node.DropProb = 0.93
	case worldgen.HazardTTLSwitch:
		at := time.Duration(rec.SwitchFrac * float64(campaign))
		newTTL := uint8(255)
		if initTTL == 255 {
			newTTL = 64
		}
		node.SetInitTTLAt(at, newTTL)
	case worldgen.HazardCongested:
		// A persistently busy port: almost every sample pays a 7 ms+
		// queueing excess; the rare idle samples anchor the minimum RTT
		// low, so the bulk falls outside the min+5 ms consistency window
		// and the RTT-consistent filter discards the interface. The
		// 7 ms busy floor keeps even the no-idle-observed case below the
		// 10 ms remoteness threshold — the hazard can evade the filter
		// occasionally but can never manufacture a false remote.
		noise := netsim.NewNoiseModel(src.Split("congestion"), 0, 0)
		noise.BusyProb = 0.964
		noise.BusyBase = 5500 * time.Microsecond
		noise.BusyMean = 30 * time.Millisecond
		att.ExtraNoise = noise
	}

	s.memberNodes[rec.IP] = node
	return nil
}

// addMisdirected models the paper's "targeted IP addresses ... actually not
// in the IXP subnet" hazard: the registry lists rec.IP, but the address
// lives on a far host behind an edge router that proxy-answers resolution
// on the LAN. Probes and replies each cross one routed hop, so replies
// arrive with a decremented TTL and the TTL-match filter discards the
// interface.
func (s *SimIXP) addMisdirected(e *netsim.Engine, subnet netip.Prefix, rec worldgen.IfaceRecord, name string, src *stats.Source) error {
	bits := subnet.Bits()

	// The edge router occupies an unlisted LAN address derived from the
	// target (offset far into the subnet's host space).
	edgeIP := infraIP(subnet, 1800+int(rec.IP.As4()[3]))
	edge := netsim.NewNode(e, name+"-edge", netsim.DefaultOS, true, src.Split("edge"))
	lanIface := edge.AddIface("lan", netip.PrefixFrom(edgeIP, bits))
	att := s.Fabric.Attach(lanIface, time.Duration(3+src.Intn(18))*time.Microsecond)
	att.Proxy = []netip.Prefix{netip.PrefixFrom(rec.IP, 32)}

	far := netsim.NewNode(e, name+"-far",
		netsim.OSProfile{InitTTL: rec.InitTTL, ProcMean: 150 * time.Microsecond}, true, src.Split("far"))
	// Backhaul /30 carved from a dedicated range.
	wanBase := netip.AddrFrom4([4]byte{172, 20, rec.IP.As4()[2], rec.IP.As4()[3] &^ 3})
	edgeWAN := edge.AddIface("wan", netip.PrefixFrom(nextAddr(wanBase, 1), 30))
	farWAN := far.AddIface("wan", netip.PrefixFrom(nextAddr(wanBase, 2), 30))
	far.AddIface("lo", netip.PrefixFrom(rec.IP, 32))

	backhaul := time.Duration((0.8 + 2.4*src.Float64()) * float64(time.Millisecond))
	netsim.Connect(e, name+"-backhaul", edgeWAN, farWAN, backhaul)

	edge.AddRoute(netip.PrefixFrom(rec.IP, 32), nextAddr(wanBase, 2), edgeWAN)
	far.AddRoute(netip.MustParsePrefix("0.0.0.0/0"), nextAddr(wanBase, 1), farWAN)

	s.memberNodes[rec.IP] = far
	return nil
}

// nextAddr returns base + n.
func nextAddr(base netip.Addr, n int) netip.Addr {
	a := base.As4()
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	v += uint32(n)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
