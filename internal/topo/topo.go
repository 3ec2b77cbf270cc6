// Package topo models the economic entities of the study: autonomous
// systems with Gao-Rexford business relationships (transit and peering),
// customer cones, IXPs with possibly multi-location switching fabrics, and
// remote-peering providers. This is deliberately a *layer-2-aware* model:
// an IXP membership records whether the member reaches the fabric directly
// or through a remote-peering provider — the distinction that, as the paper
// argues, pure layer-3 (AS-level) topologies cannot express.
package topo

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
)

// ASN is an autonomous system number.
type ASN uint32

// NetworkKind is the business type of a network, mirroring the categories
// the paper mentions (transit, access/eyeball, hosting, content/CDN, NREN).
type NetworkKind int

// Network kinds.
const (
	KindTransit NetworkKind = iota
	KindTier1
	KindAccess
	KindContent
	KindCDN
	KindHosting
	KindNREN
	KindEnterprise
)

// String implements fmt.Stringer.
func (k NetworkKind) String() string {
	switch k {
	case KindTransit:
		return "transit"
	case KindTier1:
		return "tier1"
	case KindAccess:
		return "access"
	case KindContent:
		return "content"
	case KindCDN:
		return "cdn"
	case KindHosting:
		return "hosting"
	case KindNREN:
		return "nren"
	case KindEnterprise:
		return "enterprise"
	default:
		return fmt.Sprintf("NetworkKind(%d)", int(k))
	}
}

// PeeringPolicy is the PeeringDB-style openness of a network's peering,
// used to build the paper's peer groups 1-4 (Section 4.2).
type PeeringPolicy int

// Peering policies.
const (
	PolicyOpen PeeringPolicy = iota
	PolicySelective
	PolicyRestrictive
)

// String implements fmt.Stringer.
func (p PeeringPolicy) String() string {
	switch p {
	case PolicyOpen:
		return "open"
	case PolicySelective:
		return "selective"
	case PolicyRestrictive:
		return "restrictive"
	default:
		return fmt.Sprintf("PeeringPolicy(%d)", int(p))
	}
}

// Network is an AS-level economic entity.
type Network struct {
	ASN    ASN
	Name   string
	Kind   NetworkKind
	City   string // headquarters / main PoP city
	Policy PeeringPolicy
	// SizeRank orders networks by traffic significance inside their kind
	// (0 = largest); generators use it to shape heavy-tailed traffic.
	SizeRank int
	// IPInterfaces estimates the number of IP interfaces the network
	// originates — the unit of the paper's Figure 10 metric, whose global
	// total across the transit hierarchy is about 2.6 billion.
	IPInterfaces int64
}

// Graph is the AS-level relationship graph. A graph is built through
// AddNetwork, AddTransit and AddPeering, then frozen: a generated or
// restored world's graph is read-only from then on, so world clones and
// concurrent analyses share one graph instead of copying it. Network
// records are shared the same way; nothing may write through the
// pointers Network returns once the graph is frozen.
//
// A frozen graph is also the dense index of the Section 4 analyses: every
// ASN has an int32 id, its position in ASNs(), so ids ascend with ASNs.
// Iterating ids in ascending order is iterating ASNs in ascending order,
// which is the fixed floating-point addition order the determinism suite
// pins.
type Graph struct {
	nets      map[ASN]*Network
	providers map[ASN][]ASN // asn -> its transit providers
	customers map[ASN][]ASN // asn -> its transit customers
	peers     map[ASN][]ASN // settlement-free peers (layer-3 view)
	// asnCache memoises ASNs(): the sorted universe is rebuilt only after
	// an AddNetwork, not on every analysis pass over the graph. Callers
	// receive the cached slice and must treat it as read-only. Once the
	// graph is frozen, asnCache[id] is the ASN with dense id id.
	asnCache []ASN
	// ids is the inverse of asnCache, filled by Freeze.
	ids    map[ASN]int32
	frozen bool
}

// ErrFrozen is returned by the graph mutators once Freeze has run.
var ErrFrozen = errors.New("topo: graph is frozen")

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		nets:      make(map[ASN]*Network),
		providers: make(map[ASN][]ASN),
		customers: make(map[ASN][]ASN),
		peers:     make(map[ASN][]ASN),
	}
}

// AddNetwork registers a network. Re-adding an existing ASN is an error.
func (g *Graph) AddNetwork(n *Network) error {
	if g.frozen {
		return ErrFrozen
	}
	if n == nil {
		return fmt.Errorf("topo: nil network")
	}
	if _, dup := g.nets[n.ASN]; dup {
		return fmt.Errorf("topo: duplicate ASN %d", n.ASN)
	}
	g.nets[n.ASN] = n
	g.asnCache = nil
	return nil
}

// Network returns the record for asn, or nil.
func (g *Graph) Network(asn ASN) *Network { return g.nets[asn] }

// Len returns the number of registered networks.
func (g *Graph) Len() int { return len(g.nets) }

// ASNs returns all registered ASNs in ascending order. The slice is cached
// until the next AddNetwork and shared between callers: do not mutate it.
func (g *Graph) ASNs() []ASN {
	if g.asnCache == nil {
		out := make([]ASN, 0, len(g.nets))
		for a := range g.nets {
			out = append(out, a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		g.asnCache = out
	}
	return g.asnCache
}

// Freeze makes the graph read-only: it fills the ASN cache, assigns every
// ASN its dense id (its position in ASNs()), and every later AddNetwork,
// AddTransit or AddPeering returns ErrFrozen. After it the graph is safe
// for concurrent readers, since no read fills a cache. Freezing a frozen
// graph does nothing.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	asns := g.ASNs()
	g.ids = make(map[ASN]int32, len(asns))
	for id, asn := range asns {
		g.ids[asn] = int32(id)
	}
	g.frozen = true
}

// Frozen reports whether g is a graph Freeze has run on. It is false for
// a nil graph.
func (g *Graph) Frozen() bool { return g != nil && g.frozen }

// ID returns the dense id of asn and whether the graph holds asn. Only a
// frozen graph assigns ids; an unfrozen one reports every ASN absent.
func (g *Graph) ID(asn ASN) (int32, bool) {
	id, ok := g.ids[asn]
	return id, ok
}

// ASN returns the ASN behind a dense id of the frozen graph. Ids come
// from ID or from positions in ASNs(), so an out-of-range id is a caller
// bug and panics via the bounds check.
func (g *Graph) ASN(id int32) ASN { return g.asnCache[id] }

// Restore builds a graph directly from persisted parts: the network
// records and the three adjacency maps, adopted verbatim. Adjacency slice
// order is load-bearing (customer-cone BFS and RIB computation iterate it),
// so restoring the exact slices — rather than replaying AddTransit and
// AddPeering calls, whose interleaving the maps alone cannot recover — is
// what makes a rehydrated graph traverse identically to the original.
// Every ASN referenced by an adjacency list must be a registered network.
// The restored graph is frozen.
func Restore(nets []*Network, providers, customers, peers map[ASN][]ASN) (*Graph, error) {
	g := NewGraph()
	for _, n := range nets {
		if err := g.AddNetwork(n); err != nil {
			return nil, err
		}
	}
	check := func(kind string, adj map[ASN][]ASN) error {
		for asn, list := range adj {
			if _, ok := g.nets[asn]; !ok {
				return fmt.Errorf("topo: %s adjacency references unknown ASN %d", kind, asn)
			}
			for _, other := range list {
				if _, ok := g.nets[other]; !ok {
					return fmt.Errorf("topo: %s adjacency of ASN %d references unknown ASN %d", kind, asn, other)
				}
			}
		}
		return nil
	}
	if err := check("provider", providers); err != nil {
		return nil, err
	}
	if err := check("customer", customers); err != nil {
		return nil, err
	}
	if err := check("peer", peers); err != nil {
		return nil, err
	}
	g.providers = providers
	g.customers = customers
	g.peers = peers
	g.Freeze()
	return g, nil
}

// AddTransit records that customer buys transit from provider.
func (g *Graph) AddTransit(customer, provider ASN) error {
	if g.frozen {
		return ErrFrozen
	}
	if _, ok := g.nets[customer]; !ok {
		return fmt.Errorf("topo: unknown customer ASN %d", customer)
	}
	if _, ok := g.nets[provider]; !ok {
		return fmt.Errorf("topo: unknown provider ASN %d", provider)
	}
	if customer == provider {
		return fmt.Errorf("topo: self transit for ASN %d", customer)
	}
	for _, p := range g.providers[customer] {
		if p == provider {
			return nil // idempotent
		}
	}
	g.providers[customer] = append(g.providers[customer], provider)
	g.customers[provider] = append(g.customers[provider], customer)
	return nil
}

// AddPeering records a settlement-free peering between a and b.
func (g *Graph) AddPeering(a, b ASN) error {
	if g.frozen {
		return ErrFrozen
	}
	if _, ok := g.nets[a]; !ok {
		return fmt.Errorf("topo: unknown ASN %d", a)
	}
	if _, ok := g.nets[b]; !ok {
		return fmt.Errorf("topo: unknown ASN %d", b)
	}
	if a == b {
		return fmt.Errorf("topo: self peering for ASN %d", a)
	}
	for _, p := range g.peers[a] {
		if p == b {
			return nil
		}
	}
	g.peers[a] = append(g.peers[a], b)
	g.peers[b] = append(g.peers[b], a)
	return nil
}

// Providers returns the transit providers of asn.
func (g *Graph) Providers(asn ASN) []ASN { return g.providers[asn] }

// Customers returns the direct transit customers of asn.
func (g *Graph) Customers(asn ASN) []ASN { return g.customers[asn] }

// Peers returns the settlement-free peers of asn.
func (g *Graph) Peers(asn ASN) []ASN { return g.peers[asn] }

// CustomerCone returns asn plus its direct and indirect transit customers —
// the set whose traffic a network may exchange over a peering link
// (Section 2.2 of the paper). The result is sorted.
func (g *Graph) CustomerCone(asn ASN) []ASN {
	seen := map[ASN]bool{asn: true}
	queue := []ASN{asn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range g.customers[cur] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConeSize returns the size of asn's customer cone (including itself)
// without materialising the slice.
func (g *Graph) ConeSize(asn ASN) int {
	seen := map[ASN]bool{asn: true}
	queue := []ASN{asn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range g.customers[cur] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return len(seen)
}

// IsProviderFree reports whether asn has no transit providers (a tier-1
// property).
func (g *Graph) IsProviderFree(asn ASN) bool { return len(g.providers[asn]) == 0 }

// Membership describes one network's presence at one IXP. Remote is the
// simulation's ground truth — the fact the paper's detector tries to infer
// from the outside.
type Membership struct {
	ASN ASN
	// Remote marks a remote-peering membership: the member reaches the
	// fabric through a layer-2 remote-peering provider.
	Remote bool
	// Provider names the remote-peering provider for remote memberships.
	Provider string
	// AccessCity is where the member's equipment physically is. For a
	// direct member this is (one of) the IXP's location cities; for a
	// remote member it is typically elsewhere — possibly another
	// continent.
	AccessCity string
	// Location indexes which of the IXP's locations the membership's port
	// (or its provider's port) lands on.
	Location int
	// IP is the member's interface address in the IXP peering subnet.
	IP netip.Addr
}

// IXP is an Internet exchange point: a layer-2 fabric with members.
type IXP struct {
	// Acronym is the short name used in Table 1 ("AMS-IX").
	Acronym string
	// FullName is the descriptive name.
	FullName string
	// Cities lists the fabric locations; Cities[0] is the primary site
	// printed in Table 1. Multi-location IXPs (the paper's "IXPs with
	// multiple locations" concern) have more than one entry.
	Cities []string
	// Country of the primary site.
	Country string
	// PeakTrafficTbps as crawled in Table 1 (0 for N/A).
	PeakTrafficTbps float64
	// Subnet is the peering LAN prefix.
	Subnet netip.Prefix
	// Members holds the memberships.
	Members []Membership
	// HasPCHLG and HasRIPELG record which LG families operate at the IXP
	// (the study requires at least one).
	HasPCHLG  bool
	HasRIPELG bool
}

// Clone returns a deep copy of the IXP: the membership and city slices are
// independent of the receiver, so scenario perturbations (outages, member
// churn) on the copy leave the original exchange untouched.
func (x *IXP) Clone() *IXP {
	nx := *x
	nx.Cities = append([]string(nil), x.Cities...)
	nx.Members = append([]Membership(nil), x.Members...)
	return &nx
}

// City returns the primary city.
func (x *IXP) City() string {
	if len(x.Cities) == 0 {
		return ""
	}
	return x.Cities[0]
}

// MemberASNs returns the distinct member ASNs, sorted.
func (x *IXP) MemberASNs() []ASN {
	seen := map[ASN]bool{}
	for _, m := range x.Members {
		seen[m.ASN] = true
	}
	out := make([]ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasMember reports whether asn is a member of the IXP.
func (x *IXP) HasMember(asn ASN) bool {
	for _, m := range x.Members {
		if m.ASN == asn {
			return true
		}
	}
	return false
}

// RemoteMemberCount returns the number of remote memberships (ground
// truth).
func (x *IXP) RemoteMemberCount() int {
	n := 0
	for _, m := range x.Members {
		if m.Remote {
			n++
		}
	}
	return n
}

// MembershipByIP returns the membership owning ip, if any.
func (x *IXP) MembershipByIP(ip netip.Addr) (Membership, bool) {
	for _, m := range x.Members {
		if m.IP == ip {
			return m, true
		}
	}
	return Membership{}, false
}
