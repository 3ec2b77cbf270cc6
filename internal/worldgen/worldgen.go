// Package worldgen deterministically generates the synthetic world the
// reproduction measures: an AS-level economy with Gao-Rexford
// relationships, the 22 studied IXPs of Table 1 plus the 43 additional
// exchanges that form the paper's 65-IXP Euro-IX reach set, memberships
// with ground-truth remote-peering flags, the RedIRIS-analogue NREN with
// its two tier-1 transit providers, and — for the studied IXPs — the
// per-interface hazard assignments that exercise each of the detector's six
// filters.
//
// The paper measured the live Internet; we cannot. The generator instead
// produces a world whose published *scale and shape* match the paper's
// (member counts, interface counts, remote fractions per distance band,
// policy mix, traffic affinities), while the ground truth stays available
// for validating the detector — something the paper could only do
// anecdotally via TorIX, E4A, and Invitel.
package worldgen

import (
	"fmt"
	"net/netip"
	"time"

	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
)

// Config parameterises generation. The zero value is replaced by defaults
// matching the paper's scale.
type Config struct {
	// Seed drives all randomness; equal seeds give identical worlds.
	Seed int64
	// LeafNetworks is the number of edge networks (access, hosting,
	// enterprise). Default 28900, which brings the transit-traffic
	// universe close to the paper's 29,570 networks.
	LeafNetworks int
	// RegistryASNCoverage is the probability that public data identify
	// the ASN behind an interface (the paper resolved 3,242 of 4,451
	// analyzed interfaces ≈ 0.73). Default 0.73.
	RegistryASNCoverage float64
	// CampaignDays is the measurement-campaign length (default 120 days —
	// October 2013 to January 2014).
	CampaignDays int
	// Workers bounds the parallelism of the RNG-free generation stages
	// (the per-IXP geographic precomputation; 0 = one per CPU). The
	// generated world is byte-identical for every value: all stochastic
	// stages consume their seeded streams serially.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.LeafNetworks == 0 {
		c.LeafNetworks = 28900
	}
	if c.RegistryASNCoverage == 0 {
		c.RegistryASNCoverage = 0.73
	}
	if c.CampaignDays == 0 {
		c.CampaignDays = 120
	}
	return c
}

// Well-known ASNs of the synthetic world.
const (
	ASNTier1Base topo.ASN = 10 // 12 tier-1s: 10..21
	ASNGeant     topo.ASN = 30
	ASNRedIRIS   topo.ASN = 31
	ASNNRENBase  topo.ASN = 32 // 35 NRENs: 32..66
	ASNTransit   topo.ASN = 100
	ASNContent   topo.ASN = 500 // 30 content networks: 500..529
	ASNCDN       topo.ASN = 550 // 20 CDNs: 550..569
	ASNE4A       topo.ASN = 600 // the Italian access network of Section 3.3
	ASNInvitel   topo.ASN = 601 // the Hungarian access network of Section 3.3
	ASNTurkTel   topo.ASN = 602 // the transit network of Section 3.2
	ASNTrunk     topo.ASN = 603 // the hosting network of Section 3.2
	// ASNResearch starts the 20 foreign research networks (Internet2-like
	// backbones in the Americas and Asia). They exchange heavy traffic
	// with the NREN but hold no Euro-IX memberships and hang directly off
	// tier-1s, so none of their traffic is offloadable — the reason the
	// top of Figure 5a towers over the ≤0.3 Gbps contributors of
	// Figure 6.
	ASNResearch topo.ASN = 700
	ASNLeafBase topo.ASN = 1000
)

const (
	numTier1   = 12
	numNREN    = 35
	numTransit = 300
	// numGlobalTransit splits the transit tier: the first 150 are global
	// wholesale carriers that peer at IXPs; the rest are regional ISPs
	// that sell transit to local leaves but hold no IXP ports. The split
	// is what keeps the offloadable share of the NREN's transit traffic
	// near the paper's ~25-30% even though IXP members' cones are large:
	// most leaf networks sit under regional providers out of any member
	// cone.
	numGlobalTransit = 150
	numContent       = 30
	numCDN           = 20
	numResearch      = 20
)

// RemoteProviders are the remote-peering provider brands of the world; the
// first two echo the companies the paper names (IX Reach, Atrato IP
// Networks).
var RemoteProviders = []string{"IX Reach", "Atrato IP Networks", "EuroWire", "PacketBridge", "GlobalPath"}

// HazardKind tags the single measurement hazard injected at an interface
// (at most one per interface, so detector discard accounting is exact).
type HazardKind int

// Hazards, each mapped to the filter designed to catch it.
const (
	HazardNone      HazardKind = iota
	HazardBlackhole            // never answers pings          → sample-size
	HazardFlaky                // drops ~85% of pings          → sample-size
	HazardTTLSwitch            // OS change flips initial TTL  → TTL-switch
	HazardOddTTL               // OS with initial TTL 128/32   → TTL-match
	HazardMisdirect            // registry IP is off-subnet    → TTL-match
	HazardCongested            // persistently congested port  → RTT-consistent
	HazardFarSite              // port at secondary fabric site→ LG-consistent
	HazardASNChurn             // registry ASN changes         → ASN-change
)

// String implements fmt.Stringer.
func (h HazardKind) String() string {
	switch h {
	case HazardNone:
		return "none"
	case HazardBlackhole:
		return "blackhole"
	case HazardFlaky:
		return "flaky"
	case HazardTTLSwitch:
		return "ttl-switch"
	case HazardOddTTL:
		return "odd-ttl"
	case HazardMisdirect:
		return "misdirect"
	case HazardCongested:
		return "congested"
	case HazardFarSite:
		return "far-site"
	case HazardASNChurn:
		return "asn-churn"
	default:
		return fmt.Sprintf("HazardKind(%d)", int(h))
	}
}

// IfaceRecord is one probe target at a studied IXP: a registry-listed
// member interface plus its ground truth and injected hazard.
type IfaceRecord struct {
	IXPIndex int // index into World.IXPs
	IP       netip.Addr
	ASN      topo.ASN
	// Remote and AccessCity are ground truth (copied from the
	// membership).
	Remote     bool
	AccessCity string
	Location   int
	Hazard     HazardKind
	// OddTTL is the OS initial TTL for HazardOddTTL (128 or 32).
	OddTTL uint8
	// SwitchFrac is the campaign fraction at which a HazardTTLSwitch
	// interface flips its initial TTL.
	SwitchFrac float64
	// ChurnASN is the ASN the registry reports late in the campaign for
	// HazardASNChurn interfaces.
	ChurnASN topo.ASN
	// RegistryHasASN reports whether public data identify the owner.
	RegistryHasASN bool
	// InitTTL is the OS initial TTL for non-odd interfaces (64 or 255).
	InitTTL uint8
}

// World is the generated universe.
type World struct {
	Cfg   Config
	Graph *topo.Graph
	// IXPs holds all 65 exchanges; the first len(table1) are the studied
	// ones, in Table 1 order.
	IXPs []*topo.IXP
	// Ifaces are the probe targets at studied IXPs.
	Ifaces []IfaceRecord

	// PseudowireDelta shifts the one-way access delay of every remote
	// membership's layer-2 pseudowire, per distance band (intercity,
	// intercountry, intercontinental). The zero value leaves the
	// generated delays untouched; the scenario engine's latency-shift
	// perturbation adjusts it to move remote interfaces across the
	// detector's RTT threshold.
	PseudowireDelta [3]time.Duration

	RedIRIS  topo.ASN
	Geant    topo.ASN
	Transit1 topo.ASN // first tier-1 transit provider of RedIRIS
	Transit2 topo.ASN // second tier-1 transit provider of RedIRIS
	Tier1s   []topo.ASN
	NRENs    []topo.ASN // GÉANT members (excluding GÉANT itself)
	// PeeredCDNs are the CDNs RedIRIS already peers with (not offloadable).
	PeeredCDNs []topo.ASN

	specs []ixpSpec
}

// NumStudied returns the number of studied IXPs (Table 1).
func (w *World) NumStudied() int { return len(table1) }

// StudiedIXPs returns the studied IXPs.
func (w *World) StudiedIXPs() []*topo.IXP { return w.IXPs[:len(table1)] }

// IXPByAcronym returns the IXP with the given acronym and its index.
func (w *World) IXPByAcronym(acr string) (*topo.IXP, int, error) {
	for i, x := range w.IXPs {
		if x.Acronym == acr {
			return x, i, nil
		}
	}
	return nil, 0, fmt.Errorf("worldgen: unknown IXP %q", acr)
}

// CampaignDuration returns the measurement-campaign length.
func (w *World) CampaignDuration() int { return w.Cfg.CampaignDays }

// HomeCity returns the home city recorded for a network.
func (w *World) HomeCity(asn topo.ASN) string {
	if n := w.Graph.Network(asn); n != nil {
		return n.City
	}
	return ""
}

// Generate builds the world.
func Generate(cfg Config) (*World, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("worldgen: negative Workers %d (use 0 for one per CPU)", cfg.Workers)
	}
	cfg = cfg.withDefaults()
	src := stats.NewSource(cfg.Seed)
	w := &World{Cfg: cfg, Graph: topo.NewGraph()}

	if err := w.buildNetworks(src.Split("networks")); err != nil {
		return nil, fmt.Errorf("worldgen: networks: %w", err)
	}
	if err := w.buildRelationships(src.Split("relationships")); err != nil {
		return nil, fmt.Errorf("worldgen: relationships: %w", err)
	}
	if err := w.buildIXPs(src.Split("ixps")); err != nil {
		return nil, fmt.Errorf("worldgen: ixps: %w", err)
	}
	if err := w.buildInterfaces(src.Split("interfaces")); err != nil {
		return nil, fmt.Errorf("worldgen: interfaces: %w", err)
	}
	if err := w.assignAddressSpace(src.Split("addrspace")); err != nil {
		return nil, fmt.Errorf("worldgen: address space: %w", err)
	}
	w.Graph.Freeze()
	return w, nil
}

// leafCityPool is the weighted set of cities leaves are homed in. European
// cities dominate (matching the Euro-IX geography), with substantial South
// American weight: RedIRIS is the Spanish NREN, and the paper observes that
// Terremark's South and Central American members contribute heavily to its
// transit traffic.
type cityWeight struct {
	city   string
	weight float64
}

var leafCityPool = []cityWeight{
	{"Amsterdam", 5}, {"Frankfurt", 5}, {"London", 6}, {"Paris", 4},
	{"Warsaw", 3}, {"Moscow", 4}, {"Vienna", 2.5}, {"Milan", 3},
	{"Turin", 1.5}, {"Stockholm", 2}, {"Dublin", 1.5}, {"Madrid", 3},
	{"Barcelona", 2.5}, {"Lisbon", 1.2}, {"Rome", 2}, {"Munich", 2},
	{"Hamburg", 2}, {"Zurich", 2}, {"Geneva", 1}, {"Brussels", 1.5},
	{"Prague", 1.8}, {"Budapest", 1.8}, {"Bucharest", 1.8}, {"Kiev", 2.2},
	{"Oslo", 1.2}, {"Helsinki", 1.2}, {"Copenhagen", 1.5}, {"Athens", 1.2},
	{"Sofia", 1}, {"Zagreb", 0.8}, {"Belgrade", 1}, {"Riga", 0.7},
	{"Vilnius", 0.7}, {"Tallinn", 0.6}, {"Luxembourg", 0.5},
	{"Manchester", 1.5}, {"Edinburgh", 0.8}, {"Marseille", 1},
	{"Lyon", 1}, {"Padua", 0.8}, {"Bratislava", 0.8}, {"Ljubljana", 0.6},
	{"Istanbul", 2.5}, {"Ankara", 1},
	{"New York", 4}, {"Seattle", 2}, {"Toronto", 2.2}, {"Montreal", 1},
	{"Los Angeles", 2.5}, {"Chicago", 2}, {"Dallas", 1.5}, {"Ashburn", 1.5},
	{"San Jose", 1.5}, {"Miami", 2.5}, {"Mexico City", 2},
	{"Sao Paolo", 5}, {"Rio", 2.5}, {"Porto Alegre", 1.5}, {"Curitiba", 1.2},
	{"Buenos Aires", 2.5}, {"Bogota", 1.5}, {"Lima", 1.2}, {"Santiago", 1.5},
	{"Caracas", 1},
	{"Tokyo", 3}, {"Osaka", 1.5}, {"Seoul", 2}, {"Hong Kong", 2.5},
	{"Singapore", 2}, {"Taipei", 1.2}, {"Mumbai", 1.5}, {"Jakarta", 1},
	{"Kuala Lumpur", 0.8}, {"Bangkok", 1}, {"Sydney", 1.5},
	{"Johannesburg", 1}, {"Nairobi", 0.7}, {"Lagos", 0.8}, {"Cairo", 1},
	{"Tel Aviv", 1}, {"Dubai", 1},
	{"Boston", 1.2}, {"Philadelphia", 1}, {"Washington", 1.2},
	{"Atlanta", 1.2}, {"Detroit", 0.8}, {"Cleveland", 0.6},
	{"Pittsburgh", 0.6}, {"Denver", 1}, {"Houston", 1.2}, {"Phoenix", 0.8},
	{"Minneapolis", 0.8}, {"St Louis", 0.6}, {"Vancouver", 1},
	{"Ottawa", 0.6}, {"Quebec City", 0.5},
	{"Sapporo", 0.6}, {"Fukuoka", 0.6}, {"Busan", 0.8}, {"Beijing", 1.5},
	{"Shanghai", 1.5}, {"Guangzhou", 1}, {"Manila", 0.8}, {"Hanoi", 0.6},
	{"Montevideo", 0.7}, {"Asuncion", 0.5}, {"Brasilia", 1},
	{"Recife", 0.8}, {"Fortaleza", 0.7}, {"Salvador", 0.7},
	{"Belo Horizonte", 1}, {"Cordoba", 0.6}, {"Mendoza", 0.5},
}

// pickCity samples a city from the weighted pool.
func pickCity(src *stats.Source) string {
	total := 0.0
	for _, cw := range leafCityPool {
		total += cw.weight
	}
	r := src.Float64() * total
	for _, cw := range leafCityPool {
		r -= cw.weight
		if r <= 0 {
			return cw.city
		}
	}
	return leafCityPool[len(leafCityPool)-1].city
}

// buildNetworks creates the network population.
func (w *World) buildNetworks(src *stats.Source) error {
	add := func(n *topo.Network) error { return w.Graph.AddNetwork(n) }

	// Tier-1 clique.
	tier1Cities := []string{"New York", "London", "Frankfurt", "Paris",
		"Tokyo", "Ashburn", "Stockholm", "Amsterdam", "Chicago", "Milan",
		"Madrid", "Hong Kong"}
	for i := 0; i < numTier1; i++ {
		asn := ASNTier1Base + topo.ASN(i)
		if err := add(&topo.Network{
			ASN: asn, Name: fmt.Sprintf("Tier1-%02d", i+1), Kind: topo.KindTier1,
			City: tier1Cities[i%len(tier1Cities)], Policy: topo.PolicyRestrictive,
			SizeRank: i,
		}); err != nil {
			return err
		}
		w.Tier1s = append(w.Tier1s, asn)
	}
	w.Transit1, w.Transit2 = w.Tier1s[0], w.Tier1s[1]

	// GÉANT-analogue and the NRENs, RedIRIS first.
	if err := add(&topo.Network{ASN: ASNGeant, Name: "GEANT", Kind: topo.KindNREN,
		City: "Amsterdam", Policy: topo.PolicySelective}); err != nil {
		return err
	}
	w.Geant = ASNGeant
	if err := add(&topo.Network{ASN: ASNRedIRIS, Name: "RedIRIS", Kind: topo.KindNREN,
		City: "Madrid", Policy: topo.PolicySelective}); err != nil {
		return err
	}
	w.RedIRIS = ASNRedIRIS
	w.NRENs = append(w.NRENs, ASNRedIRIS)
	nrenCities := []string{"London", "Paris", "Frankfurt", "Amsterdam", "Vienna",
		"Warsaw", "Prague", "Budapest", "Stockholm", "Helsinki", "Oslo",
		"Copenhagen", "Dublin", "Lisbon", "Rome", "Athens", "Sofia", "Zagreb",
		"Belgrade", "Riga", "Vilnius", "Tallinn", "Brussels", "Luxembourg",
		"Zurich", "Bucharest", "Kiev", "Bratislava", "Ljubljana", "Milan",
		"Moscow", "Istanbul", "Edinburgh", "Geneva"}
	for i := 0; i < numNREN-1; i++ {
		asn := ASNNRENBase + topo.ASN(i)
		if err := add(&topo.Network{
			ASN: asn, Name: fmt.Sprintf("NREN-%02d", i+1), Kind: topo.KindNREN,
			City: nrenCities[i%len(nrenCities)], Policy: topo.PolicySelective,
		}); err != nil {
			return err
		}
		w.NRENs = append(w.NRENs, asn)
	}

	// Mid-tier transit providers, spread worldwide.
	for i := 0; i < numTransit; i++ {
		asn := ASNTransit + topo.ASN(i)
		policy := topo.PolicySelective
		if i >= numGlobalTransit {
			// Regional transits (never IXP members) peer openly where
			// they do appear; the global carriers are selective.
			policy = topo.PolicyOpen
		}
		if err := add(&topo.Network{
			ASN: asn, Name: fmt.Sprintf("Transit-%03d", i+1), Kind: topo.KindTransit,
			City: pickCity(src), Policy: policy, SizeRank: i,
		}); err != nil {
			return err
		}
	}

	// Content networks; the first two are the Microsoft/Yahoo analogues
	// the paper finds among the top offload contributors.
	contentNames := []string{"Microsoft (analogue)", "Yahoo (analogue)"}
	for i := 0; i < numContent; i++ {
		name := fmt.Sprintf("Content-%02d", i+1)
		if i < len(contentNames) {
			name = contentNames[i]
		}
		policy := topo.PolicyRestrictive
		if i >= 6 {
			policy = topo.PolicySelective
		}
		if err := add(&topo.Network{
			ASN: ASNContent + topo.ASN(i), Name: name, Kind: topo.KindContent,
			City: pickCity(src), Policy: policy, SizeRank: i,
		}); err != nil {
			return err
		}
	}

	// CDNs.
	for i := 0; i < numCDN; i++ {
		policy := topo.PolicySelective
		if i < 3 {
			policy = topo.PolicyRestrictive
		}
		if err := add(&topo.Network{
			ASN: ASNCDN + topo.ASN(i), Name: fmt.Sprintf("CDN-%02d", i+1),
			Kind: topo.KindCDN, City: pickCity(src), Policy: policy, SizeRank: i,
		}); err != nil {
			return err
		}
	}
	// RedIRIS already peers with three CDNs (the paper: "peers with major
	// CDNs"); their traffic does not ride transit.
	w.PeeredCDNs = []topo.ASN{ASNCDN, ASNCDN + 1, ASNCDN + 2}

	// Foreign research backbones: heavy NREN-to-NREN traffic partners
	// outside the Euro-IX world.
	researchCities := []string{"Boston", "Washington", "Chicago", "San Jose",
		"Seattle", "Denver", "Houston", "Atlanta", "Toronto", "Montreal",
		"Tokyo", "Beijing", "Seoul", "Taipei", "Singapore", "Sydney",
		"Mumbai", "Mexico City", "Santiago", "Johannesburg"}
	for i := 0; i < numResearch; i++ {
		if err := add(&topo.Network{
			ASN: ASNResearch + topo.ASN(i), Name: fmt.Sprintf("Research-%02d", i+1),
			Kind: topo.KindNREN, City: researchCities[i%len(researchCities)],
			Policy: topo.PolicySelective, SizeRank: i,
		}); err != nil {
			return err
		}
	}

	// The validation networks of Sections 3.2/3.3.
	specials := []*topo.Network{
		{ASN: ASNE4A, Name: "E4A (analogue)", Kind: topo.KindAccess, City: "Milan", Policy: topo.PolicyOpen},
		{ASN: ASNInvitel, Name: "Invitel (analogue)", Kind: topo.KindAccess, City: "Budapest", Policy: topo.PolicyOpen},
		{ASN: ASNTurkTel, Name: "Turk Telekom (analogue)", Kind: topo.KindTransit, City: "Istanbul", Policy: topo.PolicySelective},
		{ASN: ASNTrunk, Name: "Trunk Networks (analogue)", Kind: topo.KindHosting, City: "London", Policy: topo.PolicyOpen},
	}
	for _, n := range specials {
		if err := add(n); err != nil {
			return err
		}
	}

	// Leaves: access, hosting, enterprise.
	for i := 0; i < w.Cfg.LeafNetworks; i++ {
		kind := topo.KindAccess
		switch {
		case i%5 == 3:
			kind = topo.KindHosting
		case i%5 == 4:
			kind = topo.KindEnterprise
		}
		policy := topo.PolicyOpen
		switch r := src.Float64(); {
		case r < 0.05:
			policy = topo.PolicyRestrictive
		case r < 0.25:
			policy = topo.PolicySelective
		}
		if err := add(&topo.Network{
			ASN: ASNLeafBase + topo.ASN(i), Name: fmt.Sprintf("Leaf-%05d", i+1),
			Kind: kind, City: pickCity(src), Policy: policy, SizeRank: i,
		}); err != nil {
			return err
		}
	}
	return nil
}

// buildRelationships wires the transit hierarchy.
func (w *World) buildRelationships(src *stats.Source) error {
	g := w.Graph

	// Tier-1 full peering mesh.
	for i, a := range w.Tier1s {
		for _, b := range w.Tier1s[i+1:] {
			if err := g.AddPeering(a, b); err != nil {
				return err
			}
		}
	}

	// Mid transits buy from 2-3 tier-1s.
	for i := 0; i < numTransit; i++ {
		asn := ASNTransit + topo.ASN(i)
		n := 2 + src.Intn(2)
		perm := src.Perm(numTier1)
		for k := 0; k < n; k++ {
			if err := g.AddTransit(asn, w.Tier1s[perm[k]]); err != nil {
				return err
			}
		}
	}

	// Content and CDNs buy from two tier-1s (they also peer widely at
	// IXPs; those layer-3 peering edges are added during membership
	// construction where co-location makes them plausible).
	for i := 0; i < numContent; i++ {
		asn := ASNContent + topo.ASN(i)
		perm := src.Perm(numTier1)
		for k := 0; k < 2; k++ {
			if err := g.AddTransit(asn, w.Tier1s[perm[k]]); err != nil {
				return err
			}
		}
	}
	for i := 0; i < numCDN; i++ {
		asn := ASNCDN + topo.ASN(i)
		perm := src.Perm(numTier1)
		for k := 0; k < 2; k++ {
			if err := g.AddTransit(asn, w.Tier1s[perm[k]]); err != nil {
				return err
			}
		}
	}

	// NRENs are customers of GÉANT (their cost-effective interconnect);
	// RedIRIS additionally buys transit from two tier-1s, as in the
	// paper. Other NRENs buy from one tier-1 for general connectivity.
	for _, n := range w.NRENs {
		if err := g.AddTransit(n, w.Geant); err != nil {
			return err
		}
	}
	if err := g.AddTransit(w.RedIRIS, w.Transit1); err != nil {
		return err
	}
	if err := g.AddTransit(w.RedIRIS, w.Transit2); err != nil {
		return err
	}
	for _, n := range w.NRENs[1:] {
		// Not Transit1/Transit2: an NREN multihomed to RedIRIS's own
		// upstreams could tie with the GÉANT route and leak research
		// traffic onto the transit links.
		if err := g.AddTransit(n, w.Tier1s[2+src.Intn(numTier1-2)]); err != nil {
			return err
		}
	}

	// RedIRIS peers with three major CDNs directly.
	for _, cdn := range w.PeeredCDNs {
		if err := g.AddPeering(w.RedIRIS, cdn); err != nil {
			return err
		}
	}

	// The special networks buy transit regionally.
	for _, s := range []topo.ASN{ASNE4A, ASNInvitel, ASNTurkTel, ASNTrunk} {
		if err := g.AddTransit(s, ASNTransit+topo.ASN(src.Intn(numTransit))); err != nil {
			return err
		}
	}

	// Foreign research backbones hang directly off tier-1s, keeping them
	// outside every potential peer's customer cone.
	for i := 0; i < numResearch; i++ {
		asn := ASNResearch + topo.ASN(i)
		if err := g.AddTransit(asn, w.Tier1s[src.Intn(numTier1)]); err != nil {
			return err
		}
	}

	// Leaves buy from one or two mid transits (30% multihome), mostly
	// regional ones — which is why most of the long tail stays outside
	// any IXP member's customer cone, as in the paper's dataset where
	// only 12,238 of 29,570 networks were coverable. A handful of larger
	// leaves also resell to smaller ones, creating customer cones below
	// some IXP members (needed for cone-based offload).
	for i := 0; i < w.Cfg.LeafNetworks; i++ {
		asn := ASNLeafBase + topo.ASN(i)
		n := 1
		if src.Float64() < 0.3 {
			n = 2
		}
		for k := 0; k < n; k++ {
			var provider topo.ASN
			if src.Float64() < 0.15 {
				provider = ASNTransit + topo.ASN(src.Intn(numGlobalTransit))
			} else {
				provider = ASNTransit + topo.ASN(numGlobalTransit+src.Intn(numTransit-numGlobalTransit))
			}
			if err := g.AddTransit(asn, provider); err != nil {
				return err
			}
		}
		// 6% of leaves additionally buy from a bigger leaf "regional
		// reseller" with a smaller index, forming leaf-level cones.
		if i > 100 && src.Float64() < 0.06 {
			reseller := ASNLeafBase + topo.ASN(src.Intn(i/2))
			if err := g.AddTransit(asn, reseller); err != nil {
				return err
			}
		}
	}
	return nil
}
