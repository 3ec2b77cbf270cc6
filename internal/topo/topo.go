// Package topo models the economic entities of the study: autonomous
// systems with Gao-Rexford business relationships (transit and peering),
// customer cones, IXPs with possibly multi-location switching fabrics, and
// remote-peering providers. This is deliberately a *layer-2-aware* model:
// an IXP membership records whether the member reaches the fabric directly
// or through a remote-peering provider — the distinction that, as the paper
// argues, pure layer-3 (AS-level) topologies cannot express.
//
// The AS graph is built through its mutators and then frozen into a dense
// form: networks in one slice by ascending ASN, each relation in one
// compressed-sparse-row plane, and one id index (Graph). Only Network,
// ASNs and Len are meant to be read before Freeze, by the generator that
// builds the graph; the analyses read frozen graphs.
package topo

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
	"slices"
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
// concurrent analyses share one graph instead of copying it. Nothing may
// write through the pointers Network returns once the graph is frozen.
//
// A frozen graph is dense and is the dense index of the Section 4
// analyses. Every ASN has an int32 id, its position in ASNs(), so ids
// ascend with ASNs. Its networks are one slice in id order; each relation
// (providers, customers, peers) is one compressed-sparse-row plane, one
// offset per id into one ASN list; and one open-addressing table maps an
// ASN to its id. It holds no map and no per-network record. Iterating ids
// in ascending order is iterating ASNs in ascending order, which is the
// fixed floating-point addition order the determinism suite pins.
//
// A graph under construction keeps the maps its mutators fill, and
// Freeze compacts them once into the dense form. Only Network, ASNs and
// Len are meant to be read before Freeze, by the generator, which reads
// and writes networks while it builds. The adjacency reads answer from the
// maps too, through the one lookup the frozen form answers through, so a
// graph under construction can still be traversed; ID and ASN answer only
// once it is frozen. Freeze copies the records, so a pointer Network
// returned before Freeze does not point into the frozen graph.
type Graph struct {
	// asns[id] is the ASN with dense id id. Before Freeze it memoises
	// ASNs(), rebuilt only after an AddNetwork. Callers receive it and
	// must treat it as read-only.
	asns []ASN
	// nets[id] is the network with dense id id.
	nets []Network
	// slots is the id index: a table of a power-of-two size at least twice
	// the network count. The slot an ASN's probe reaches, starting at
	// slot(asn) and stepping linearly, holds its id plus one; 0 marks a
	// free slot.
	slots []int32
	// rels holds the provider, customer and peer planes.
	rels   [numRels]plane
	frozen bool

	// b is the graph under construction, dropped by Freeze.
	b *builder
}

// rel names one adjacency relation.
type rel int

const (
	relProviders rel = iota // asn -> its transit providers
	relCustomers            // asn -> its transit customers
	relPeers                // settlement-free peers (layer-3 view)
	numRels
)

var relNames = [numRels]string{"provider", "customer", "peer"}

// plane is one relation in compressed sparse rows: the list of the
// network with id id is list[offs[id]:offs[id+1]], in the order its edges
// were added. Adjacency order is load-bearing: customer-cone BFS and RIB
// computation iterate it.
type plane struct {
	offs []int32
	list []ASN
}

// builder holds what the mutators fill: the registered records and each
// relation's lists.
type builder struct {
	nets map[ASN]*Network
	adj  [numRels]map[ASN][]ASN
}

// ErrFrozen is returned by the graph mutators once Freeze has run.
var ErrFrozen = errors.New("topo: graph is frozen")

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	b := &builder{nets: make(map[ASN]*Network)}
	for r := range b.adj {
		b.adj[r] = make(map[ASN][]ASN)
	}
	return &Graph{b: b}
}

// AddNetwork registers a network. Re-adding an existing ASN is an error.
func (g *Graph) AddNetwork(n *Network) error {
	if g.frozen {
		return ErrFrozen
	}
	if n == nil {
		return fmt.Errorf("topo: nil network")
	}
	if _, dup := g.b.nets[n.ASN]; dup {
		return fmt.Errorf("topo: duplicate ASN %d", n.ASN)
	}
	g.b.nets[n.ASN] = n
	g.asns = nil
	return nil
}

// Network returns the record for asn, or nil.
func (g *Graph) Network(asn ASN) *Network {
	if !g.frozen {
		return g.b.nets[asn]
	}
	if id, ok := g.ID(asn); ok {
		return &g.nets[id]
	}
	return nil
}

// Len returns the number of registered networks.
func (g *Graph) Len() int {
	if !g.frozen {
		return len(g.b.nets)
	}
	return len(g.nets)
}

// ASNs returns all registered ASNs in ascending order. The slice is cached
// until the next AddNetwork and shared between callers: do not mutate it.
func (g *Graph) ASNs() []ASN {
	if g.asns == nil && !g.frozen {
		out := make([]ASN, 0, len(g.b.nets))
		for a := range g.b.nets {
			out = append(out, a)
		}
		slices.Sort(out)
		g.asns = out
	}
	return g.asns
}

// Freeze makes the graph read-only and dense: it lays the networks out in
// ascending ASN order, so every ASN's dense id is its position in ASNs(),
// compacts each relation into its plane, indexes the ids and drops the
// maps. Every later AddNetwork, AddTransit or AddPeering returns
// ErrFrozen. After it the graph is safe for concurrent readers, since no
// read fills a cache. Freezing a frozen graph does nothing.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	asns := g.ASNs()
	nets := make([]Network, len(asns))
	for id, a := range asns {
		nets[id] = *g.b.nets[a]
	}
	for r, adj := range g.b.adj {
		total := 0
		for _, list := range adj {
			total += len(list)
		}
		p := plane{offs: make([]int32, len(asns)+1)}
		if total > 0 {
			p.list = make([]ASN, 0, total)
		}
		for id, a := range asns {
			p.list = append(p.list, adj[a]...)
			p.offs[id+1] = int32(len(p.list))
		}
		g.rels[r] = p
	}
	g.nets, g.slots = nets, indexIDs(asns)
	g.b = nil
	g.frozen = true
}

// Frozen reports whether g is a graph Freeze has run on. It is false for
// a nil graph.
func (g *Graph) Frozen() bool { return g != nil && g.frozen }

// indexIDs builds the id index over asns, which ascend without repeats.
func indexIDs(asns []ASN) []int32 {
	if len(asns) == 0 {
		return nil
	}
	slots := make([]int32, 1<<bits.Len(uint(2*len(asns)-1)))
	mask := uint32(len(slots) - 1)
	for id, a := range asns {
		i := slot(a, mask)
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(id) + 1
	}
	return slots
}

// slot is where asn's probe starts in a table of mask+1 slots: the top
// bits of its Fibonacci hash, which spread runs of consecutive ASNs.
func slot(asn ASN, mask uint32) uint32 {
	return uint32(asn) * 0x9E3779B9 >> bits.LeadingZeros32(mask)
}

// ID returns the dense id of asn and whether the graph holds asn. Only a
// frozen graph assigns ids; an unfrozen one reports every ASN absent.
func (g *Graph) ID(asn ASN) (int32, bool) {
	if len(g.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(g.slots) - 1)
	for i := slot(asn, mask); ; i = (i + 1) & mask {
		s := g.slots[i]
		if s == 0 {
			return 0, false
		}
		if g.asns[s-1] == asn {
			return s - 1, true
		}
	}
}

// ASN returns the ASN behind a dense id of the frozen graph. Ids come
// from ID or from positions in ASNs(), so an out-of-range id is a caller
// bug and panics via the bounds check.
func (g *Graph) ASN(id int32) ASN { return g.asns[id] }

// Relation is one adjacency relation's persisted parts: the ASNs whose
// list is not empty, in ascending order (Keys), each one's list length
// (Lens), and the lists back to back in key order (List).
type Relation struct {
	Keys []ASN
	Lens []uint32
	List []ASN
}

// Restore builds a frozen graph directly from its dense parts: the
// network records in ascending ASN order, and the provider, customer and
// peer relations. It adopts nets and each relation's List, which the
// caller must not touch afterwards, and reads Keys and Lens. Restoring
// the exact lists, rather than replaying AddTransit and AddPeering calls
// whose interleaving the lists alone cannot recover, is what makes a
// restored graph traverse identically to the original.
//
// Restore refuses networks or keys that are out of ascending order or
// repeated, keys and list entries that name an ASN with no network, and
// lengths that do not add up to the list.
func Restore(nets []Network, providers, customers, peers Relation) (*Graph, error) {
	if len(nets) >= math.MaxInt32 {
		return nil, fmt.Errorf("topo: %d networks overflow the int32 ids", len(nets))
	}
	asns := make([]ASN, len(nets))
	for i := range nets {
		asns[i] = nets[i].ASN
		if i > 0 && asns[i] <= asns[i-1] {
			return nil, fmt.Errorf("topo: network ASN %d follows ASN %d; networks must ascend without repeats", asns[i], asns[i-1])
		}
	}
	g := &Graph{asns: asns, nets: nets, slots: indexIDs(asns)}
	for r, parts := range [numRels]Relation{providers, customers, peers} {
		p, err := g.restorePlane(parts)
		if err != nil {
			return nil, fmt.Errorf("topo: %s relation: %w", relNames[r], err)
		}
		g.rels[r] = p
	}
	g.frozen = true
	return g, nil
}

// restorePlane checks one relation's parts against the graph's networks
// and lays them out as its plane.
func (g *Graph) restorePlane(parts Relation) (plane, error) {
	if len(parts.Keys) != len(parts.Lens) {
		return plane{}, fmt.Errorf("%d keys but %d lengths", len(parts.Keys), len(parts.Lens))
	}
	if len(parts.List) > math.MaxInt32 {
		return plane{}, fmt.Errorf("%d entries overflow the int32 offsets", len(parts.List))
	}
	for i, key := range parts.Keys {
		if i > 0 && key <= parts.Keys[i-1] {
			return plane{}, fmt.Errorf("key ASN %d follows key ASN %d; keys must ascend without repeats", key, parts.Keys[i-1])
		}
	}
	offs := make([]int32, len(g.asns)+1)
	pos, k := uint64(0), 0
	for id, asn := range g.asns {
		if k < len(parts.Keys) && parts.Keys[k] == asn {
			if pos += uint64(parts.Lens[k]); pos > uint64(len(parts.List)) {
				return plane{}, fmt.Errorf("lengths pass the %d entries of the list", len(parts.List))
			}
			k++
		}
		offs[id+1] = int32(pos)
	}
	if k < len(parts.Keys) {
		return plane{}, fmt.Errorf("key ASN %d has no network", parts.Keys[k])
	}
	if pos != uint64(len(parts.List)) {
		return plane{}, fmt.Errorf("lengths add up to %d, the list has %d entries", pos, len(parts.List))
	}
	for _, asn := range parts.List {
		if _, ok := g.ID(asn); !ok {
			return plane{}, fmt.Errorf("list entry ASN %d has no network", asn)
		}
	}
	p := plane{offs: offs}
	if len(parts.List) > 0 {
		p.list = parts.List
	}
	return p, nil
}

// AddTransit records that customer buys transit from provider.
func (g *Graph) AddTransit(customer, provider ASN) error {
	if g.frozen {
		return ErrFrozen
	}
	if _, ok := g.b.nets[customer]; !ok {
		return fmt.Errorf("topo: unknown customer ASN %d", customer)
	}
	if _, ok := g.b.nets[provider]; !ok {
		return fmt.Errorf("topo: unknown provider ASN %d", provider)
	}
	if customer == provider {
		return fmt.Errorf("topo: self transit for ASN %d", customer)
	}
	providers, customers := g.b.adj[relProviders], g.b.adj[relCustomers]
	for _, p := range providers[customer] {
		if p == provider {
			return nil // idempotent
		}
	}
	providers[customer] = append(providers[customer], provider)
	customers[provider] = append(customers[provider], customer)
	return nil
}

// AddPeering records a settlement-free peering between a and b.
func (g *Graph) AddPeering(a, b ASN) error {
	if g.frozen {
		return ErrFrozen
	}
	if _, ok := g.b.nets[a]; !ok {
		return fmt.Errorf("topo: unknown ASN %d", a)
	}
	if _, ok := g.b.nets[b]; !ok {
		return fmt.Errorf("topo: unknown ASN %d", b)
	}
	if a == b {
		return fmt.Errorf("topo: self peering for ASN %d", a)
	}
	peers := g.b.adj[relPeers]
	for _, p := range peers[a] {
		if p == b {
			return nil
		}
	}
	peers[a] = append(peers[a], b)
	peers[b] = append(peers[b], a)
	return nil
}

// adj is the one adjacency lookup: asn's list in relation r, read from
// the builder's maps before Freeze and from the plane after. A frozen
// list is capped, so a caller's append cannot write into the next
// network's list.
func (g *Graph) adj(r rel, asn ASN) []ASN {
	if !g.frozen {
		return g.b.adj[r][asn]
	}
	id, ok := g.ID(asn)
	if !ok {
		return nil
	}
	p := &g.rels[r]
	lo, hi := p.offs[id], p.offs[id+1]
	if lo == hi {
		return nil
	}
	return p.list[lo:hi:hi]
}

// Providers returns the transit providers of asn.
func (g *Graph) Providers(asn ASN) []ASN { return g.adj(relProviders, asn) }

// Customers returns the direct transit customers of asn.
func (g *Graph) Customers(asn ASN) []ASN { return g.adj(relCustomers, asn) }

// Peers returns the settlement-free peers of asn.
func (g *Graph) Peers(asn ASN) []ASN { return g.adj(relPeers, asn) }

// CustomerCone returns asn plus its direct and indirect transit customers —
// the set whose traffic a network may exchange over a peering link
// (Section 2.2 of the paper). The result is sorted.
func (g *Graph) CustomerCone(asn ASN) []ASN {
	seen := map[ASN]bool{asn: true}
	queue := []ASN{asn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range g.Customers(cur) {
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
		for _, c := range g.Customers(cur) {
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
func (g *Graph) IsProviderFree(asn ASN) bool { return len(g.Providers(asn)) == 0 }

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
