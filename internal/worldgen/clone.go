package worldgen

// The scenario hooks: deterministic copy-on-write cloning of a generated
// world plus the membership mutators the perturbation ops are built from.
// A clone shares only immutable state with its parent (the frozen AS
// graph, which is also the dense AS index, and the IXP spec table), so a
// cloned-then-perturbed world never writes through to the original.

import (
	"fmt"
	"net/netip"
	"time"

	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
)

// Clone returns a copy of the world that a perturbation can rewrite
// without writing through to the receiver: the IXPs with their
// memberships, the probe-target interface table, the ASN lists and the
// pseudowire deltas are independent copies. The AS graph, and with it
// the dense ids it assigns, is shared. It is immutable: Generate and
// topo.Restore freeze it, so its mutators fail on either world, and no op
// rewires it. An op that must rewire the graph needs a private copy,
// frozen again so it assigns its own ids.
func (w *World) Clone() *World {
	nw := *w
	nw.IXPs = make([]*topo.IXP, len(w.IXPs))
	for i, x := range w.IXPs {
		nw.IXPs[i] = x.Clone()
	}
	nw.Ifaces = append([]IfaceRecord(nil), w.Ifaces...)
	nw.Tier1s = append([]topo.ASN(nil), w.Tier1s...)
	nw.NRENs = append([]topo.ASN(nil), w.NRENs...)
	nw.PeeredCDNs = append([]topo.ASN(nil), w.PeeredCDNs...)
	// PseudowireDelta is an array and the spec table is immutable: the
	// struct copy above covers both.
	return &nw
}

// RestoreSpecTable reattaches the generation-time IXP spec table to a
// world reconstructed from persisted state. The table is a pure function
// of the static Table 1 and extra-IXP specs — no randomness touches it —
// so restoring it from the package constants reproduces exactly what
// Generate installed, and spec-dependent accessors (InterSiteDelay,
// RegistryIfaceCount) answer identically on a rehydrated world. It
// errors if the world's IXP list does not line up with the static table
// (a snapshot from an incompatible build).
func (w *World) RestoreSpecTable() error {
	specs := append(append([]ixpSpec(nil), table1...), extraIXPs...)
	if len(w.IXPs) != len(specs) {
		return fmt.Errorf("worldgen: world has %d IXPs but the spec table describes %d", len(w.IXPs), len(specs))
	}
	for i, x := range w.IXPs {
		if x != nil && x.Acronym != specs[i].Acronym {
			return fmt.Errorf("worldgen: IXP %d is %q but the spec table says %q", i, x.Acronym, specs[i].Acronym)
		}
	}
	w.specs = specs
	return nil
}

// DistanceBand returns the Figure 3 distance band between two cities:
// 0 intercity, 1 intercountry, 2 intercontinental, or -1 for local
// separations and the dead zone between the bands.
func DistanceBand(from, to string) int { return bandOf(from, to) }

// PseudowireShift returns the extra one-way pseudowire delay a remote
// membership of the i-th IXP accessed from accessCity carries under the
// world's current PseudowireDelta (zero for unknown cities and
// out-of-band separations).
func (w *World) PseudowireShift(ixpIndex int, accessCity string) time.Duration {
	if ixpIndex < 0 || ixpIndex >= len(w.IXPs) {
		return 0
	}
	b := bandOf(w.IXPs[ixpIndex].City(), accessCity)
	if b < 0 {
		return 0
	}
	return w.PseudowireDelta[b]
}

// RemoveIXPMembers empties the i-th IXP's membership and, for studied
// IXPs, drops its probe-target interface records — the outage
// perturbation. The IXP itself stays in place so indices and acronym
// lookups remain valid.
func (w *World) RemoveIXPMembers(ixpIndex int) error {
	if ixpIndex < 0 || ixpIndex >= len(w.IXPs) {
		return fmt.Errorf("worldgen: IXP index %d out of range", ixpIndex)
	}
	w.IXPs[ixpIndex].Members = nil
	w.dropIfaces(func(rec *IfaceRecord) bool { return rec.IXPIndex == ixpIndex })
	return nil
}

// RemoveMemberships drops every membership (all ports) of the given ASNs
// at the i-th IXP, along with the matching probe-target records, returning
// the number of membership slots removed.
func (w *World) RemoveMemberships(ixpIndex int, asns map[topo.ASN]bool) int {
	if ixpIndex < 0 || ixpIndex >= len(w.IXPs) || len(asns) == 0 {
		return 0
	}
	x := w.IXPs[ixpIndex]
	kept := x.Members[:0]
	removed := 0
	gone := make(map[netip.Addr]bool)
	for _, m := range x.Members {
		if asns[m.ASN] {
			removed++
			gone[m.IP] = true
			continue
		}
		kept = append(kept, m)
	}
	x.Members = kept
	if removed > 0 {
		w.dropIfaces(func(rec *IfaceRecord) bool {
			return rec.IXPIndex == ixpIndex && gone[rec.IP]
		})
	}
	return removed
}

// dropIfaces filters the interface table in place, preserving order.
func (w *World) dropIfaces(drop func(rec *IfaceRecord) bool) {
	kept := w.Ifaces[:0]
	for i := range w.Ifaces {
		if !drop(&w.Ifaces[i]) {
			kept = append(kept, w.Ifaces[i])
		}
	}
	w.Ifaces = kept
}

// AddDirectMembership joins asn to the i-th IXP as a direct member on the
// next free peering-LAN address; at studied IXPs the new port also becomes
// a hazard-free probe target, listed in the registry with the world's
// configured ASN coverage. src drives the registry-coverage draw, so equal
// sources give equal worlds.
func (w *World) AddDirectMembership(ixpIndex int, asn topo.ASN, src *stats.Source) error {
	if ixpIndex < 0 || ixpIndex >= len(w.IXPs) {
		return fmt.Errorf("worldgen: IXP index %d out of range", ixpIndex)
	}
	if w.Graph.Network(asn) == nil {
		return fmt.Errorf("worldgen: unknown ASN %d", asn)
	}
	x := w.IXPs[ixpIndex]
	ip, err := nextMemberIP(x)
	if err != nil {
		return err
	}
	x.Members = append(x.Members, topo.Membership{
		ASN: asn, AccessCity: x.City(), IP: ip,
	})
	if ixpIndex < w.NumStudied() {
		w.Ifaces = append(w.Ifaces, IfaceRecord{
			IXPIndex:       ixpIndex,
			IP:             ip,
			ASN:            asn,
			AccessCity:     x.City(),
			InitTTL:        initTTLForASN(asn),
			RegistryHasASN: src.Float64() < w.Cfg.RegistryASNCoverage,
		})
	}
	return nil
}

// nextMemberIP returns the first member-range address of the IXP subnet
// above every allocated port (members start at subnet base + 10).
func nextMemberIP(x *topo.IXP) (netip.Addr, error) {
	base := addrU32(x.Subnet.Addr()) + 10
	next := base
	for _, m := range x.Members {
		if v := addrU32(m.IP) + 1; v > next {
			next = v
		}
	}
	hosts := uint32(1) << (32 - x.Subnet.Bits())
	if next-addrU32(x.Subnet.Addr()) >= hosts {
		return netip.Addr{}, fmt.Errorf("worldgen: %s peering LAN %s is full", x.Acronym, x.Subnet)
	}
	return netip.AddrFrom4([4]byte{byte(next >> 24), byte(next >> 16), byte(next >> 8), byte(next)}), nil
}

// addrU32 converts a v4 address to its integer form.
func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
