// Package offload implements Section 4's analysis: how much of the
// RedIRIS-analogue's transit-provider traffic could shift to remote peering
// as the set of reached IXPs grows from 1 to the full 65-exchange Euro-IX
// reach set, under the paper's four peer groups. It reproduces the
// exclusion rules of Section 4.2 (no transit providers, no co-members of
// the NREN's home IXPs, no GÉANT members), the cone-based offload
// eligibility ("the peering networks and their customer cones"), the
// single-IXP and second-IXP analyses (Figures 7 and 8), the greedy
// expansion (Figure 9), and the RedIRIS-independent reachable-interfaces
// variant (Figure 10).
//
// Internally the analysis runs on the dense ids of the world's frozen AS
// graph (topo.Graph.ID) and the bitsets of internal/asindex: customer
// cones are sorted []int32 id lists, per-IXP coverage is a bitmask per
// peer group, and traffic/interface weights are dense []float64 planes.
// Every reduction iterates ids in ascending order — the same
// ascending-ASN order the original map-and-sort implementation used — so
// results are bit-identical to it (the equivalence goldens in the root
// package pin this).
package offload

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"remotepeering/internal/asindex"
	"remotepeering/internal/econ"
	"remotepeering/internal/netflow"
	"remotepeering/internal/parallel"
	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

// PeerGroup selects which potential peers are assumed willing to peer,
// per Section 4.2.
type PeerGroup int

// The paper's four peer groups.
const (
	// GroupOpen is peer group 1: all open policies (the lower bound;
	// such networks commonly peer automatically via IXP route servers).
	GroupOpen PeerGroup = iota + 1
	// GroupOpenTop10Selective is peer group 2: open plus the 10 selective
	// networks with the largest individual offload potential.
	GroupOpenTop10Selective
	// GroupOpenSelective is peer group 3: all open and selective.
	GroupOpenSelective
	// GroupAll is peer group 4: open, selective, and restrictive — the
	// paper's upper bound.
	GroupAll
)

// String implements fmt.Stringer.
func (g PeerGroup) String() string {
	switch g {
	case GroupOpen:
		return "all open policies"
	case GroupOpenTop10Selective:
		return "all open and top 10 selective policies"
	case GroupOpenSelective:
		return "all open and selective policies"
	case GroupAll:
		return "all policies"
	default:
		return fmt.Sprintf("PeerGroup(%d)", int(g))
	}
}

// Groups lists the four peer groups from most restrictive to broadest.
var Groups = []PeerGroup{GroupOpen, GroupOpenTop10Selective, GroupOpenSelective, GroupAll}

// numGroupSlots sizes the per-group mask caches: the four paper groups
// plus slot 0 for out-of-range PeerGroup values.
const numGroupSlots = int(GroupAll) + 1

// Options tunes the analysis machinery without touching its semantics.
type Options struct {
	// Workers bounds the parallelism of cone precomputation, coverage
	// evaluation, and each greedy expansion's first step, which scores
	// every IXP (0 = one per CPU); later steps re-score one IXP at a time
	// and run serially. Every result is byte-identical for every value.
	Workers int
	// Cones, when set, shares customer-cone computations between studies
	// whose worlds carry the same frozen AS graph — the scenario grid's
	// cells, whose ops perturb memberships and prices but never the graph.
	// Cone contents are a pure function of the graph, so sharing changes
	// only the cost of NewStudy, never its results. Without a cache, or
	// with one bound to a different graph, the study fills a private one.
	Cones *ConeCache
}

// ConeCache shares the dense customer adjacency and the per-AS customer
// cones across Study constructions over the same frozen graph. Safe for
// concurrent use; the first study binds it to its graph. It lives in
// memory only: cones are a pure function of the graph, and a snapshot
// persists the world, not what queries derived from it.
type ConeCache struct {
	mu        sync.Mutex
	graph     *topo.Graph
	customers [][]int32
	cones     [][]int32
}

// NewConeCache returns an empty cache; the first NewStudyOptions call
// that receives it binds it to that study's graph.
func NewConeCache() *ConeCache { return &ConeCache{} }

// Len returns how many customer cones the cache holds.
func (cc *ConeCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	n := 0
	for _, c := range cc.cones {
		if c != nil {
			n++
		}
	}
	return n
}

// bind attaches the cache to the frozen graph g on first use and reports
// whether the cache serves g. The dense customer adjacency is built once
// under the lock; cone rows fill lazily as studies request them.
func (cc *ConeCache) bind(g *topo.Graph) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.graph == nil {
		cc.graph = g
		cc.customers = buildCustomers(g)
		cc.cones = make([][]int32, g.Len())
	}
	return cc.graph == g
}

// cone returns the cached cone of id, computing and storing it on first
// request. Concurrent duplicate computation is benign — every computation
// yields the same sorted list.
func (cc *ConeCache) cone(id int32) []int32 {
	cc.mu.Lock()
	c := cc.cones[id]
	customers := cc.customers
	n := len(cc.cones)
	cc.mu.Unlock()
	if c != nil {
		return c
	}
	c = coneOf(customers, id, n)
	cc.mu.Lock()
	cc.cones[id] = c
	cc.mu.Unlock()
	return c
}

// buildCustomers assembles the dense customer adjacency in id space.
func buildCustomers(g *topo.Graph) [][]int32 {
	customers := make([][]int32, g.Len())
	for id, asn := range g.ASNs() {
		cs := g.Customers(asn)
		if len(cs) == 0 {
			continue
		}
		row := make([]int32, 0, len(cs))
		for _, c := range cs {
			if cid, ok := g.ID(c); ok {
				row = append(row, cid)
			}
		}
		customers[id] = row
	}
	return customers
}

// groupMasks holds one peer group's precomputed per-IXP coverage.
type groupMasks struct {
	// traffic[i] is IXP i's coverage intersected with the transit-traffic
	// universe — the candidate set of Figures 7-9.
	traffic []*asindex.BitSet
	// full[i] is the un-intersected coverage — the Figure 10 candidate
	// set, which counts interfaces regardless of the NREN's traffic.
	full []*asindex.BitSet
}

// Study is the prepared offload analysis. Construction reads the dataset
// through its dense entry ids and the world's IXPs through one graph id per
// membership; peering policies are read from the frozen graph where a peer
// group needs them, and peer group 2's top 10 and the Figure 10 interface
// weights are built on first use.
type Study struct {
	World   *worldgen.World
	Dataset *netflow.Dataset

	workers int
	// graph is the world's frozen AS graph, whose dense ids every set and
	// weight plane below is expressed in. Ids ascend with ASNs, so
	// ascending-id iteration is ascending-ASN iteration.
	graph *topo.Graph
	// potential marks the potential remote peers after the Section 4.2
	// exclusions (the paper arrives at 2,192 networks); peerIDs is the
	// same set as a sorted id list.
	potential *asindex.BitSet
	peerIDs   []int32
	// trafficIn/trafficOut are the transit-riding traffic planes;
	// hasTraffic marks ids present in the transit dataset at all (the
	// map-presence test of the original implementation).
	trafficIn  []float64
	trafficOut []float64
	hasTraffic *asindex.BitSet
	// ixpMembers lists, per IXP, the sorted member ids surviving the
	// exclusions.
	ixpMembers [][]int32
	// cones holds the customer cone of every potential peer as a sorted
	// id list, cones[k] belonging to peerIDs[k]; fully populated during
	// construction and read-only afterwards, so the parallel coverage
	// paths share it without locking.
	cones [][]int32
	// top10Selective is peer group 2's selective complement, computed on
	// the first top10 call.
	top10Once      sync.Once
	top10Selective *asindex.BitSet
	// interfaces weights networks for the Figure 10 metric, built on the
	// first interfaceWeights call.
	interfacesOnce sync.Once
	interfaces     []float64

	// masksByGroup lazily caches each group's per-IXP coverage bitmasks:
	// built once (in parallel, deterministically) on the group's first
	// coverage query, then reused by every Covered/Greedy/SingleIXP call.
	// Slot 0 serves unknown groups; slots 1-4 the paper's groups.
	masksOnce    [numGroupSlots]sync.Once
	masksByGroup [numGroupSlots]*groupMasks
}

// NewStudy prepares the analysis with default options.
func NewStudy(w *worldgen.World, ds *netflow.Dataset) (*Study, error) {
	return NewStudyOptions(w, ds, Options{})
}

// NewStudyOptions prepares the analysis.
func NewStudyOptions(w *worldgen.World, ds *netflow.Dataset, opts Options) (*Study, error) {
	if w == nil || ds == nil {
		return nil, fmt.Errorf("offload: nil world or dataset")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("offload: negative Workers %d (use 0 for one per CPU)", opts.Workers)
	}
	g := w.Graph
	if !g.Frozen() {
		return nil, fmt.Errorf("offload: world graph is not frozen (world not from Generate or topo.Restore?)")
	}
	n := g.Len()
	s := &Study{
		World:      w,
		Dataset:    ds,
		workers:    opts.Workers,
		graph:      g,
		potential:  asindex.NewBitSet(n),
		trafficIn:  make([]float64, n),
		trafficOut: make([]float64, n),
		hasTraffic: asindex.NewBitSet(n),
	}

	ids := ds.EntryIDs(g)
	for i := range ds.Entries {
		e := &ds.Entries[i]
		if !e.Transit {
			continue
		}
		id := ids[i]
		if id < 0 {
			return nil, fmt.Errorf("offload: dataset ASN %d not in world graph", e.ASN)
		}
		s.trafficIn[id] = e.AvgInBps
		s.trafficOut[id] = e.AvgOutBps
		s.hasTraffic.Set(id)
	}

	// Section 4.2 exclusions.
	excluded := asindex.NewBitSet(n)
	setExcluded := func(asn topo.ASN) {
		if id, ok := g.ID(asn); ok {
			excluded.Set(id)
		}
	}
	setExcluded(w.RedIRIS)
	setExcluded(w.Transit1) // transit providers do not peer with customers
	setExcluded(w.Transit2)
	setExcluded(w.Geant)
	for _, nren := range w.NRENs {
		setExcluded(nren) // GÉANT members already interconnect cheaply
	}
	for _, acr := range []string{"CATNIX", "ESpanix"} {
		x, _, err := w.IXPByAcronym(acr)
		if err != nil {
			return nil, err
		}
		for _, m := range x.Members {
			setExcluded(m.ASN) // co-members of the home IXPs
		}
	}

	// Each IXP's surviving members as sorted distinct ids: ids ascend with
	// ASNs, so this is the sorted member-ASN list mapped through the graph.
	s.ixpMembers = make([][]int32, len(w.IXPs))
	for i, x := range w.IXPs {
		var members []int32
		for _, m := range x.Members {
			if id, ok := g.ID(m.ASN); ok && !excluded.Has(id) {
				members = append(members, id)
			}
		}
		slices.Sort(members)
		members = slices.Compact(members)
		for _, id := range members {
			s.potential.Set(id)
		}
		s.ixpMembers[i] = members
	}
	s.peerIDs = make([]int32, 0, s.potential.Count())
	s.potential.ForEach(func(id int32) { s.peerIDs = append(s.peerIDs, id) })

	// Precompute every potential peer's customer cone in parallel (the
	// graph is read-only; each BFS is independent). The BFS runs in id
	// space over a dense customer adjacency, and each cone is emitted in
	// ascending id order. After this point the cone table is never
	// written again, which is what lets Covered, Greedy, and SingleIXP
	// fan out over it. A shared ConeCache serves cones computed by prior
	// studies over the same graph (and collects this study's for the
	// next one); any other study fills a private cache.
	cc := opts.Cones
	if cc == nil || !cc.bind(g) {
		cc = NewConeCache()
		cc.bind(g)
	}
	s.cones = parallel.Map(s.workers, len(s.peerIDs), func(k int) []int32 {
		return cc.cone(s.peerIDs[k])
	})
	return s, nil
}

// coneOf computes the customer cone of root (root plus its direct and
// indirect transit customers, Section 2.2) over the dense adjacency,
// returning a sorted id list.
func coneOf(customers [][]int32, root int32, n int) []int32 {
	seen := asindex.NewBitSet(n)
	seen.Set(root)
	queue := []int32{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range customers[cur] {
			if !seen.Has(c) {
				seen.Set(c)
				queue = append(queue, c)
			}
		}
	}
	out := make([]int32, 0, seen.Count())
	seen.ForEach(func(id int32) { out = append(out, id) })
	return out
}

// PotentialPeerCount returns the number of potential peers after
// exclusions (the paper: 2,192).
func (s *Study) PotentialPeerCount() int { return len(s.peerIDs) }

// policy returns id's peering policy, read from the frozen graph.
func (s *Study) policy(id int32) topo.PeeringPolicy {
	return s.graph.Network(s.graph.ASN(id)).Policy
}

// inGroupID reports whether a potential peer belongs to the peer group.
func (s *Study) inGroupID(id int32, g PeerGroup) bool {
	if !s.potential.Has(id) {
		return false
	}
	switch g {
	case GroupOpen:
		return s.policy(id) == topo.PolicyOpen
	case GroupOpenTop10Selective:
		return s.policy(id) == topo.PolicyOpen || s.top10().Has(id)
	case GroupOpenSelective:
		pol := s.policy(id)
		return pol == topo.PolicyOpen || pol == topo.PolicySelective
	case GroupAll:
		return true
	default:
		return false
	}
}

// top10 returns peer group 2's top 10 selective networks, ranking them on
// first use.
func (s *Study) top10() *asindex.BitSet {
	s.top10Once.Do(s.computeTop10Selective)
	return s.top10Selective
}

// computeTop10Selective ranks selective potential peers by their individual
// offload potential (their cone's transit traffic) and keeps the top 10.
func (s *Study) computeTop10Selective() {
	var selective []int // positions in peerIDs
	for k, id := range s.peerIDs {
		if s.policy(id) == topo.PolicySelective {
			selective = append(selective, k)
		}
	}
	type cand struct {
		id  int32
		pot float64
	}
	cands := parallel.Map(s.workers, len(selective), func(i int) cand {
		k := selective[i]
		var pot float64
		for _, c := range s.cones[k] {
			pot += s.trafficIn[c] + s.trafficOut[c]
		}
		return cand{s.peerIDs[k], pot}
	})
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].pot != cands[j].pot {
			return cands[i].pot > cands[j].pot
		}
		return cands[i].id < cands[j].id
	})
	s.top10Selective = asindex.NewBitSet(s.graph.Len())
	for i := 0; i < 10 && i < len(cands); i++ {
		s.top10Selective.Set(cands[i].id)
	}
}

// masks returns the group's per-IXP coverage bitmasks, building them on
// first use: the full coverage (group members' cones unioned) and its
// intersection with the transit-traffic universe. Construction fans out
// across IXPs; each mask depends only on read-only state, so the result
// is identical for every worker count.
func (s *Study) masks(g PeerGroup) *groupMasks {
	gi := int(g)
	if gi < 1 || gi >= numGroupSlots {
		gi = 0 // unknown groups share the "nothing covered" slot
	}
	s.masksOnce[gi].Do(func() {
		n := s.graph.Len()
		type pair struct{ full, traffic *asindex.BitSet }
		built := parallel.Map(s.workers, len(s.ixpMembers), func(i int) pair {
			full := asindex.NewBitSet(n)
			for _, m := range s.ixpMembers[i] {
				if !s.inGroupID(m, g) {
					continue
				}
				k, _ := slices.BinarySearch(s.peerIDs, m)
				full.SetList(s.cones[k])
			}
			traffic := full.Clone()
			traffic.And(s.hasTraffic)
			return pair{full, traffic}
		})
		gm := &groupMasks{
			full:    make([]*asindex.BitSet, len(built)),
			traffic: make([]*asindex.BitSet, len(built)),
		}
		for i, p := range built {
			gm.full[i] = p.full
			gm.traffic[i] = p.traffic
		}
		s.masksByGroup[gi] = gm
	})
	return s.masksByGroup[gi]
}

// CoveredSet returns, as a bitset over the world's AS index, the networks
// whose transit traffic the NREN can offload by peering (per group g) at
// the given IXPs: the group members at those IXPs plus their customer
// cones, intersected with the transit-traffic universe.
func (s *Study) CoveredSet(ixps []int, g PeerGroup) *asindex.BitSet {
	m := s.masks(g).traffic
	out := asindex.NewBitSet(s.graph.Len())
	for _, i := range ixps {
		if i >= 0 && i < len(m) {
			out.Or(m[i])
		}
	}
	return out
}

// Covered is CoveredSet as a map — the original facade signature, kept as
// a thin adapter over the bitset engine.
func (s *Study) Covered(ixps []int, g PeerGroup) map[topo.ASN]bool {
	set := s.CoveredSet(ixps, g)
	out := make(map[topo.ASN]bool, set.Count())
	set.ForEach(func(id int32) { out[s.graph.ASN(id)] = true })
	return out
}

// Potential sums the offloadable traffic when peering at the given IXPs.
// The sum runs over the covered set in ascending ASN order, so the
// floating-point result is identical across runs and worker counts.
func (s *Study) Potential(ixps []int, g PeerGroup) (inBps, outBps float64) {
	return s.CoveredSet(ixps, g).Sum2(s.trafficIn, s.trafficOut)
}

// IXPPotential is one IXP's standalone offload potential.
type IXPPotential struct {
	IXPIndex int
	Acronym  string
	InBps    float64
	OutBps   float64
}

// Total returns the combined potential.
func (p IXPPotential) Total() float64 { return p.InBps + p.OutBps }

// SingleIXP computes each IXP's standalone potential under group g, sorted
// descending by total — Figure 7's bars come from the top entries under
// each group. The 65 per-IXP evaluations run in parallel.
func (s *Study) SingleIXP(g PeerGroup) []IXPPotential {
	m := s.masks(g).traffic
	out := parallel.Map(s.workers, len(s.World.IXPs), func(i int) IXPPotential {
		in, outb := m[i].Sum2(s.trafficIn, s.trafficOut)
		return IXPPotential{IXPIndex: i, Acronym: s.World.IXPs[i].Acronym, InBps: in, OutBps: outb}
	})
	sort.Slice(out, func(a, b int) bool {
		if out[a].Total() != out[b].Total() {
			return out[a].Total() > out[b].Total()
		}
		return out[a].Acronym < out[b].Acronym
	})
	return out
}

// Residual returns the offload potential remaining at IXP `at` after the
// NREN has fully realised its potential at IXP `after` (Figure 8).
func (s *Study) Residual(after, at int, g PeerGroup) float64 {
	aIn, aOut := s.Potential([]int{after}, g)
	bothIn, bothOut := s.Potential([]int{after, at}, g)
	return (bothIn + bothOut) - (aIn + aOut)
}

// GreedyStep records one step of the greedy IXP expansion.
type GreedyStep struct {
	IXPIndex int
	Acronym  string
	// OffloadedInBps/OutBps are cumulative after this step.
	OffloadedInBps  float64
	OffloadedOutBps float64
	// RemainingInBps/OutBps are the transit-provider traffic left.
	RemainingInBps  float64
	RemainingOutBps float64
}

// Remaining returns the combined remaining transit traffic.
func (st GreedyStep) Remaining() float64 { return st.RemainingInBps + st.RemainingOutBps }

// Greedy expands the reached-IXP set one exchange at a time, always adding
// the IXP with the largest remaining offload potential (Section 4.3), up
// to maxIXPs (≤ 0 means all). This regenerates Figure 9's decay curves.
func (s *Study) Greedy(g PeerGroup, maxIXPs int) []GreedyStep {
	totalIn, totalOut := s.Dataset.TransitTotals()
	picks := s.greedy(s.masks(g).traffic, maxIXPs, func(m, covered *asindex.BitSet) (float64, float64) {
		return m.AndNotSum2(covered, s.trafficIn, s.trafficOut)
	})
	steps := make([]GreedyStep, len(picks))
	var cumIn, cumOut float64
	for i, p := range picks {
		cumIn += p.a
		cumOut += p.b
		steps[i] = GreedyStep{
			IXPIndex:        p.ixp,
			Acronym:         s.World.IXPs[p.ixp].Acronym,
			OffloadedInBps:  cumIn,
			OffloadedOutBps: cumOut,
			RemainingInBps:  totalIn - cumIn,
			RemainingOutBps: totalOut - cumOut,
		}
	}
	return steps
}

// greedyPick is one step of a greedy expansion: the IXP added and the two
// components of its marginal gain.
type greedyPick struct {
	ixp  int
	a, b float64
}

// greedy is the one greedy loop of Figures 9 and 10. Up to maxIXPs times
// (≤ 0 or past the IXP count means every IXP) it adds the IXP whose mask
// has the largest marginal gain a+b over the covered set, ties going to
// the smallest index — the picks of scoring every IXP at every step.
//
// It is lazy (Minoux's accelerated greedy). The first step scores every
// IXP, fanned out over the workers. After that a score is a bound: gain
// sums non-negative weights over the mask minus the covered set in
// ascending id order, so a score can only shrink as the covered set grows.
// Each step re-scores only the best IXP in (score descending, index
// ascending) order until that one was scored against the current covered
// set; every other IXP's true gain is then at most its bound, which ranks
// behind. The picked gain is that fresh score, bit for bit.
func (s *Study) greedy(perIXP []*asindex.BitSet, maxIXPs int, gain func(m, covered *asindex.BitSet) (a, b float64)) []greedyPick {
	if maxIXPs <= 0 || maxIXPs > len(perIXP) {
		maxIXPs = len(perIXP)
	}
	type score struct {
		a, b   float64
		step   int // the step whose covered set a and b were summed over
		chosen bool
	}
	covered := asindex.NewBitSet(s.graph.Len())
	scores := parallel.Map(s.workers, len(perIXP), func(i int) score {
		a, b := gain(perIXP[i], covered)
		return score{a: a, b: b}
	})
	picks := make([]greedyPick, 0, maxIXPs)
	for step := 0; step < maxIXPs; {
		best, bestTotal := -1, -1.0
		for i, sc := range scores {
			if total := sc.a + sc.b; !sc.chosen && total > bestTotal {
				best, bestTotal = i, total
			}
		}
		if best < 0 {
			break
		}
		sc := &scores[best]
		if sc.step != step {
			sc.a, sc.b = gain(perIXP[best], covered)
			sc.step = step
			continue
		}
		sc.chosen = true
		covered.Or(perIXP[best])
		picks = append(picks, greedyPick{best, sc.a, sc.b})
		step++
	}
	return picks
}

// Expansion is a greedy Figure 9 curve read the way Sections 4–5 read it:
// the offload coverage at k exchanges and the decay b fitted to the curve.
type Expansion struct {
	// Steps is the curve, max(k, fit) steps deep (fewer when the world has
	// fewer IXPs).
	Steps []GreedyStep
	// OffloadedFrac is the offloaded share of the transit traffic after
	// min(k, len(Steps)) steps, and CoveredNets the networks covered there.
	OffloadedFrac float64
	CoveredNets   int
	// FittedB is the decay parameter fitted over the first min(fit,
	// len(Steps)) steps.
	FittedB float64
}

// Expand runs one greedy expansion under group g deep enough for both
// read-outs — the step sequence is prefix-stable in the depth — and reads
// the coverage at k exchanges and the decay over fit steps. k and fit
// must be positive; a fit over fewer than two steps is an error.
func (s *Study) Expand(g PeerGroup, k, fit int) (Expansion, error) {
	steps := s.Greedy(g, max(k, fit))
	if len(steps) == 0 {
		return Expansion{}, fmt.Errorf("offload: empty greedy expansion")
	}
	x := Expansion{Steps: steps}
	in, out := s.Dataset.TransitTotals()
	total := in + out
	chosen := make([]int, min(k, len(steps)))
	for i := range chosen {
		chosen[i] = steps[i].IXPIndex
	}
	if at := steps[len(chosen)-1]; total > 0 {
		x.OffloadedFrac = (at.OffloadedInBps + at.OffloadedOutBps) / total
	}
	x.CoveredNets = s.CoveredSet(chosen, g).Count()
	decay, err := FitDecay(steps[:min(fit, len(steps))], total)
	if err != nil {
		return Expansion{}, fmt.Errorf("decay fit: %w", err)
	}
	x.FittedB = decay.B
	return x, nil
}

// FitDecay fits Section 5's decay parameter b to a greedy curve's
// remaining transit traffic against its full level totalBps (in + out).
// A fixed share of the traffic is not offloadable at any IXP, so the fit
// isolates the decaying component (econ.FitBFromRemaining).
func FitDecay(steps []GreedyStep, totalBps float64) (stats.ExpFit, error) {
	remaining := make([]float64, len(steps))
	for i, st := range steps {
		remaining[i] = st.Remaining()
	}
	return econ.FitBFromRemaining(remaining, totalBps)
}

// InterfaceStep is one step of the Figure 10 greedy expansion.
type InterfaceStep struct {
	IXPIndex int
	Acronym  string
	// Remaining is the number of IP interfaces still reachable only
	// through transit providers.
	Remaining float64
}

// GreedyInterfaces runs the Figure 10 variant: the metric is the number of
// IP interfaces reachable only through transit providers (starting near
// 2.6 billion), and each step adds the IXP that reduces it the most. The
// result does not depend on the NREN's traffic particulars — the paper's
// argument that diminishing marginal utility holds in general.
func (s *Study) GreedyInterfaces(g PeerGroup, maxIXPs int) []InterfaceStep {
	weights := s.interfaceWeights()
	// The Figure 10 candidate masks are the un-intersected cones: the
	// interface metric counts networks with no transit traffic too.
	picks := s.greedy(s.masks(g).full, maxIXPs, func(m, covered *asindex.BitSet) (float64, float64) {
		return m.AndNotSum(covered, weights), 0
	})
	remaining := s.TotalInterfaces()
	steps := make([]InterfaceStep, len(picks))
	for i, p := range picks {
		remaining -= p.a
		steps[i] = InterfaceStep{
			IXPIndex:  p.ixp,
			Acronym:   s.World.IXPs[p.ixp].Acronym,
			Remaining: remaining,
		}
	}
	return steps
}

// interfaceWeights returns the Figure 10 weight plane — each id's IP
// interface count — building it on first use.
func (s *Study) interfaceWeights() []float64 {
	s.interfacesOnce.Do(func() {
		s.interfaces = make([]float64, s.graph.Len())
		for id, asn := range s.graph.ASNs() {
			s.interfaces[id] = float64(s.graph.Network(asn).IPInterfaces)
		}
	})
	return s.interfaces
}

// TotalInterfaces returns the Figure 10 starting point: all IP interfaces
// reachable through the transit hierarchy. The sum runs in ascending ASN
// order so the floating-point total is identical across runs.
func (s *Study) TotalInterfaces() float64 {
	var total float64
	for _, v := range s.interfaceWeights() {
		total += v
	}
	return total
}

// Contributor summarises one network's role in the maximal offload
// potential (Figure 6).
type Contributor struct {
	ASN  topo.ASN
	Name string
	// OriginInBps is the network's own inbound origin traffic;
	// DestOutBps its own outbound destination traffic.
	OriginInBps float64
	DestOutBps  float64
	// TransientInBps/OutBps is traffic crossing the network as an
	// intermediary.
	TransientInBps  float64
	TransientOutBps float64
}

// BillingRelief estimates the transit-bill impact of an offload scenario
// under the 95th-percentile rule of Section 2.1: bills follow traffic
// peaks, so the relief is computed on the p95 of the 5-minute series, not
// on averages. The paper's Figure 5b observation — offload peaks coincide
// with transit peaks — is what makes the p95 relief track the average
// offload share.
type BillingRelief struct {
	// P95BeforeBps and P95AfterBps are the billing percentiles of the
	// inbound transit series before and after removing the covered
	// networks' traffic.
	P95BeforeBps float64
	P95AfterBps  float64
}

// ReliefFraction returns the relative p95 reduction.
func (b BillingRelief) ReliefFraction() float64 {
	if b.P95BeforeBps == 0 {
		return 0
	}
	return (b.P95BeforeBps - b.P95AfterBps) / b.P95BeforeBps
}

// EstimateBillingRelief computes the inbound p95 before/after offloading
// the networks covered when peering (per group g) at the given IXPs. The
// series synthesis runs over the covered bitset directly, skipping the
// map materialisation of the public Covered facade.
func (s *Study) EstimateBillingRelief(ixps []int, g PeerGroup) (BillingRelief, error) {
	covered := s.CoveredSet(ixps, g)
	allIn, _ := s.Dataset.SeriesTotalSet(nil)
	offIn, _ := s.Dataset.SeriesTotalSet(covered)
	residual := make([]float64, len(allIn))
	for i := range allIn {
		residual[i] = allIn[i] - offIn[i]
	}
	before, err := netflow.P95(allIn)
	if err != nil {
		return BillingRelief{}, err
	}
	after, err := netflow.P95(residual)
	if err != nil {
		return BillingRelief{}, err
	}
	return BillingRelief{P95BeforeBps: before, P95AfterBps: after}, nil
}

// TopContributors ranks the networks covered by the maximal scenario (all
// policies, all IXPs) by their combined contribution and returns the top
// n — Figure 6 plots n = 30.
func (s *Study) TopContributors(n int) []Contributor {
	all := make([]int, len(s.World.IXPs))
	for i := range all {
		all[i] = i
	}
	covered := s.CoveredSet(all, GroupAll)
	out := make([]Contributor, 0, covered.Count())
	covered.ForEach(func(id int32) {
		asn := s.graph.ASN(id)
		_, tin, tout := s.Dataset.Transient(asn)
		out = append(out, Contributor{
			ASN:             asn,
			Name:            s.World.Graph.Network(asn).Name,
			OriginInBps:     s.trafficIn[id],
			DestOutBps:      s.trafficOut[id],
			TransientInBps:  tin,
			TransientOutBps: tout,
		})
	})
	sort.Slice(out, func(a, b int) bool {
		ta := out[a].OriginInBps + out[a].DestOutBps + out[a].TransientInBps + out[a].TransientOutBps
		tb := out[b].OriginInBps + out[b].DestOutBps + out[b].TransientInBps + out[b].TransientOutBps
		if ta != tb {
			return ta > tb
		}
		return out[a].ASN < out[b].ASN
	})
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}
