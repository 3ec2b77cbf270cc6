// Package registry models the public data sources the paper's methodology
// leans on — PeeringDB, Packet Clearing House, IXP member lists, and
// reverse DNS — including their imperfections: incomplete coverage of
// member interfaces, unresolvable ASNs for about a quarter of the analyzed
// interfaces, stale entries pointing at addresses that are no longer on the
// IXP subnet, and ASN mappings that change during the measurement period
// (the reason the ASN-change filter exists).
package registry

import (
	"fmt"
	"net/netip"
	"sort"

	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

// Entry is one published interface listing at an IXP.
type Entry struct {
	IXPIndex int
	IP       netip.Addr
	// asnEarly and asnLate are what ASN lookups resolve to at the start
	// and end of the measurement period (they differ under churn).
	asnEarly topo.ASN
	asnLate  topo.ASN
	// identified is false when PeeringDB, the IXP website, and reverse
	// DNS all fail to name the owner.
	identified bool
}

// Registry is the queryable snapshot pair (campaign start / campaign end).
type Registry struct {
	byIXP map[int][]Entry
	byKey map[key]*Entry
}

type key struct {
	ixp int
	ip  netip.Addr
}

// FromWorld derives the published registry view from the generated world's
// ground truth and hazard assignments.
func FromWorld(w *worldgen.World) *Registry { return fromWorld(w, true, 0) }

// ForIXP is FromWorld restricted to the studied IXP with index ixp: its
// entries are exactly FromWorld's for that IXP, and it holds no other.
// A detector judging one IXP's interfaces reads nothing else.
func ForIXP(w *worldgen.World, ixp int) *Registry { return fromWorld(w, false, ixp) }

// fromWorld derives the registry view of every interface record, or of
// the IXP ixp's alone.
func fromWorld(w *worldgen.World, all bool, ixp int) *Registry {
	r := &Registry{
		byIXP: make(map[int][]Entry),
		byKey: make(map[key]*Entry),
	}
	for _, rec := range w.Ifaces {
		if !all && rec.IXPIndex != ixp {
			continue
		}
		e := Entry{
			IXPIndex:   rec.IXPIndex,
			IP:         rec.IP,
			asnEarly:   rec.ASN,
			asnLate:    rec.ASN,
			identified: rec.RegistryHasASN,
		}
		if rec.Hazard == worldgen.HazardASNChurn {
			e.asnLate = rec.ChurnASN
		}
		r.byIXP[rec.IXPIndex] = append(r.byIXP[rec.IXPIndex], e)
	}
	for ixp := range r.byIXP {
		entries := r.byIXP[ixp]
		sort.Slice(entries, func(i, j int) bool { return entries[i].IP.Less(entries[j].IP) })
		for i := range entries {
			r.byKey[key{ixp, entries[i].IP}] = &entries[i]
		}
	}
	return r
}

// Targets returns the published probe-target addresses at an IXP, sorted.
func (r *Registry) Targets(ixpIndex int) []netip.Addr {
	entries := r.byIXP[ixpIndex]
	out := make([]netip.Addr, len(entries))
	for i, e := range entries {
		out[i] = e.IP
	}
	return out
}

// IXPIndices returns the IXPs with registry data, sorted.
func (r *Registry) IXPIndices() []int {
	out := make([]int, 0, len(r.byIXP))
	for i := range r.byIXP {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// LookupASN resolves the ASN for an interface as the registry reported it
// at the given fraction of the campaign (0 = start, 1 = end). The boolean
// is false when the owner cannot be identified — the paper could map only
// 3,242 of its 4,451 analyzed interfaces to ASNs.
func (r *Registry) LookupASN(ixpIndex int, ip netip.Addr, frac float64) (topo.ASN, bool) {
	e, ok := r.byKey[key{ixpIndex, ip}]
	if !ok || !e.identified {
		return 0, false
	}
	if frac < 0.5 {
		return e.asnEarly, true
	}
	return e.asnLate, true
}

// Len returns the total number of published entries.
func (r *Registry) Len() int {
	n := 0
	for _, es := range r.byIXP {
		n += len(es)
	}
	return n
}

// String summarises the registry.
func (r *Registry) String() string {
	return fmt.Sprintf("registry{%d entries across %d IXPs}", r.Len(), len(r.byIXP))
}
