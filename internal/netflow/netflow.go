// Package netflow reproduces the traffic side of Section 4.1: a month of
// 5-minute NetFlow records collected at the border routers of the
// RedIRIS-analogue NREN, joined with BGP paths. The generator produces the
// published shape of the dataset rather than its (proprietary) bytes:
//
//   - 29,570-ish networks exchanging transit traffic with RedIRIS, with
//     rank-ordered contributions spanning ~1 Gbps down to a few bps and the
//     characteristic bend near rank 20,000 (Figure 5a);
//   - pronounced diurnal and weekly periodicity, stronger inbound than
//     outbound (Figure 5b);
//   - AS-level paths for every flow, classifying each network's association
//     as origin, destination, or transient (Figure 6), and marking which
//     flows ride the two tier-1 transit providers;
//   - content-heavy top contributors (the Microsoft/Yahoo/CDN analogues).
//
// A dataset is built in two steps. Ranking computes what depends only on
// the frozen AS graph, RedIRIS, the two transit providers and the traffic
// seed: the BGP paths toward RedIRIS, a contribution weight per network,
// the entry order, the transit flags, and each rank's share and inbound
// fraction. Pricing turns a ranking into rates under one Config: the
// totals, the transit normalisation. A dataset keeps its ranking, so a
// demand surge or a shifted daily peak (the scenario engine's traffic
// ops, a tick's traffic drift) prices the ranking it already has through
// Price instead of ranking again; the flows and their paths are the same,
// only their volumes move.
package netflow

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"remotepeering/internal/asindex"
	"remotepeering/internal/bgp"
	"remotepeering/internal/parallel"
	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
	"remotepeering/internal/vecmath"
	"remotepeering/internal/worldgen"
)

// Config parameterises collection. Zero values take paper-scale defaults.
type Config struct {
	// Seed drives the traffic randomness (independent from the world's).
	Seed int64
	// Intervals is the number of 5-minute samples (default 8064 — the
	// paper's February 2013 month: 28 days × 288).
	Intervals int
	// IntervalLength is the metering granularity (default 5 minutes).
	IntervalLength time.Duration
	// TotalInboundBps and TotalOutboundBps set the average
	// transit-provider traffic level. Defaults: 8 Gbps in, 4.5 Gbps out
	// (inbound dominates, as in the paper).
	TotalInboundBps  float64
	TotalOutboundBps float64
	// PhaseHours rotates the diurnal/weekly profile by the given number
	// of hours (the scenario engine's diurnal-shift perturbation: a
	// traffic mix whose peak moves relative to the billing day). Zero
	// keeps the generated profile exactly as-is.
	PhaseHours float64
	// Workers bounds the parallelism of collection and series synthesis
	// (0 = one per CPU). The dataset is byte-identical for every value.
	Workers int
}

// Default average transit-provider traffic levels (the paper's regime:
// inbound dominates). Exported so the scenario engine can scale the
// defaults rather than silently replacing them.
const (
	DefaultInboundBps  = 8e9
	DefaultOutboundBps = 4.5e9
)

// DefaultIntervals is the full paper month (28 days × 288 five-minute
// samples) that a zero Config.Intervals resolves to. Exported so snapshot
// consumers can decide whether a persisted dataset satisfies an
// "intervals 0 = full month" request.
const DefaultIntervals = 8064

// validate rejects the knobs that have no meaning below zero, before
// they can reach an allocation size, and the values no dataset can be
// computed from: a total that is NaN, infinite or negative poisons every
// rate, and a phase whose time.Duration overflows has no defined
// conversion (Go leaves it to the architecture).
func (c Config) validate() error {
	if c.Intervals < 0 {
		return fmt.Errorf("netflow: negative Intervals %d (use 0 for the full month)", c.Intervals)
	}
	if c.IntervalLength < 0 {
		return fmt.Errorf("netflow: negative IntervalLength %v (use 0 for 5 minutes)", c.IntervalLength)
	}
	if c.Workers < 0 {
		return fmt.Errorf("netflow: negative Workers %d (use 0 for one per CPU)", c.Workers)
	}
	if !(c.TotalInboundBps >= 0 && c.TotalInboundBps <= math.MaxFloat64) ||
		!(c.TotalOutboundBps >= 0 && c.TotalOutboundBps <= math.MaxFloat64) {
		return fmt.Errorf("netflow: transit totals %g/%g bps (want finite and non-negative; 0 for the default)",
			c.TotalInboundBps, c.TotalOutboundBps)
	}
	if ns := c.PhaseHours * float64(time.Hour); !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return fmt.Errorf("netflow: PhaseHours %g does not fit a time.Duration", c.PhaseHours)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Intervals == 0 {
		c.Intervals = DefaultIntervals
	}
	if c.IntervalLength == 0 {
		c.IntervalLength = 5 * time.Minute
	}
	if c.TotalInboundBps == 0 {
		c.TotalInboundBps = DefaultInboundBps
	}
	if c.TotalOutboundBps == 0 {
		c.TotalOutboundBps = DefaultOutboundBps
	}
	return c
}

// Matches reports whether ds was collected under exactly c's inputs —
// the one test every held or persisted dataset passes before it stands
// in for a collection. Defaults are applied first, and Workers, which
// never changes a byte, is ignored.
func (c Config) Matches(ds *Dataset) bool {
	return ds != nil && ds.Cfg.key() == c.key()
}

// key is the configuration a dataset is a pure function of.
func (c Config) key() Config {
	c = c.withDefaults()
	c.Workers = 0
	return c
}

// Entry is one network's aggregate association with the RedIRIS border
// traffic.
type Entry struct {
	ASN topo.ASN
	// AvgInBps is the network's average contribution as an origin of
	// inbound traffic; AvgOutBps as a destination of outbound traffic.
	AvgInBps  float64
	AvgOutBps float64
	// Transit marks flows that ride one of the two tier-1 transit
	// providers (only such traffic is offloadable). Non-transit entries
	// arrive via GÉANT, an existing CDN peering, or a home-IXP peering.
	Transit bool
	// Path is the AS path from the network to RedIRIS (inbound
	// direction); outbound is assumed symmetric. Every dataset priced
	// from one ranking shares the same path slices: they are read-only.
	Path []topo.ASN
}

// Dataset is the collected month of border traffic. Entries is
// read-only: its paths are shared with every dataset priced from the same
// ranking. Every lazily built table sits behind a sync.Once, so
// concurrent readers are safe.
type Dataset struct {
	Cfg     Config
	Entries []Entry

	// rank is the ranking Entries were priced from, shared with every
	// dataset priced from it: Entries[i] is rank i.
	rank *ranking

	// transient[a] accumulates the in+out average rates of flows whose
	// path crosses a as an intermediary (Figure 6), built on the first
	// Transient call.
	transientOnce sync.Once
	transient     map[topo.ASN]float64
	transientIn   map[topo.ASN]float64
	transOut      map[topo.ASN]float64
	// transitOnce/transitCache memoise TransitEntries: the filtered slice
	// is assembled once and shared (callers must not mutate it).
	transitOnce  sync.Once
	transitCache []Entry
	// profOnce/profIn/profOut cache the diurnal profile per interval for
	// the two amplitudes (0.55 inbound, 0.25 outbound): the profile is a
	// pure function of the interval index, so the per-sample trigonometry
	// of diurnalFactor collapses to a table lookup in the series hot loop.
	profOnce sync.Once
	profIn   []float64
	profOut  []float64
}

// ranking is the part of a dataset that does not depend on the totals or
// the phase a Config sets: it is a function of the frozen AS graph,
// RedIRIS, the two transit providers and the traffic seed alone. It holds
// no RIB, is immutable once built apart from its two lookup tables (the
// ASN map and the dense ids, each built once on first use), and is shared
// by every dataset priced from it.
type ranking struct {
	graph                       *topo.Graph
	redIRIS, transit1, transit2 topo.ASN
	seed                        int64
	// entries lists the ranked networks in rank order; only ASN, Path and
	// Transit are read. It is the Entries of the dataset the ranking was
	// built for, so a priced dataset copies no path.
	entries []Entry
	// share[i] is rank i's share of the Figure 5a rank law (the vector
	// depends on the entry count alone); inFrac[i] is the inbound
	// fraction of entry i's network kind.
	share  []float64
	inFrac []float64
	// byASN maps an ASN to its rank, built on the first lookup. It
	// depends on the entry order only, so every priced dataset shares it.
	byASNOnce sync.Once
	byASN     map[topo.ASN]int
	// ids[i] is entry i's dense id in graph, built on the first EntryIDs
	// call over that graph and shared the same way.
	idsOnce sync.Once
	ids     []int32
}

// Collect builds the dataset from the world: Price with nothing to price
// from, so it ranks afresh.
func Collect(w *worldgen.World, cfg Config) (*Dataset, error) {
	return Price(nil, w, cfg)
}

// Price builds the dataset of cfg over w, byte-identical to a fresh
// collection. When from's ranking was built over w's frozen graph,
// RedIRIS and transit providers under cfg's seed, Price computes the
// rates and nothing else, and the new dataset shares that ranking
// (entry order, paths, transit flags). Any other from, nil included, is
// ranked afresh: the RIB toward RedIRIS, a LogNormal weight per network,
// the candidate sort and every AS path.
func Price(from *Dataset, w *worldgen.World, cfg Config) (*Dataset, error) {
	if w == nil {
		return nil, fmt.Errorf("netflow: nil world")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if from != nil && from.rank.over(w, cfg.Seed) {
		return from.rank.price(cfg, make([]Entry, len(from.rank.entries)))
	}
	r, err := rank(w, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return r.price(cfg, r.entries)
}

// over reports whether r was ranked over w's graph and transit endpoints
// under seed. Only a frozen graph qualifies: nothing can rewire it after
// the ranking was built.
func (r *ranking) over(w *worldgen.World, seed int64) bool {
	return r != nil && w.Graph.Frozen() && r.graph == w.Graph && r.seed == seed &&
		r.redIRIS == w.RedIRIS && r.transit1 == w.Transit1 && r.transit2 == w.Transit2
}

// newRanking is the empty ranking of n networks over w under seed, with
// the rank shares filled.
func newRanking(w *worldgen.World, seed int64, n int) *ranking {
	// Rank-based contribution with the Figure 5a bend near rank 20,000.
	const bend = 20000
	rawRate := func(rank int) float64 {
		r := float64(rank + 6)
		v := math.Pow(r, -1.4)
		if rank > bend {
			v *= math.Pow(float64(rank)/bend, -5)
		}
		return v
	}
	var totalRaw float64
	for i := 0; i < n; i++ {
		totalRaw += rawRate(i + 1)
	}
	r := &ranking{
		graph:    w.Graph,
		redIRIS:  w.RedIRIS,
		transit1: w.Transit1,
		transit2: w.Transit2,
		seed:     seed,
		share:    make([]float64, n),
		inFrac:   make([]float64, n),
	}
	for i := range r.share {
		r.share[i] = rawRate(i+1) / totalRaw
	}
	return r
}

// rank orders w's networks by contribution under the traffic seed and
// extracts their AS paths. It is the one place the RIB toward RedIRIS is
// computed.
func rank(w *worldgen.World, seed int64, workers int) (*ranking, error) {
	src := stats.NewSource(seed).Split("netflow")

	rib, err := bgp.ComputeRIB(w.Graph, w.RedIRIS)
	if err != nil {
		return nil, fmt.Errorf("netflow: %w", err)
	}

	type cand struct {
		asn    topo.ASN
		weight float64
	}
	var cands []cand
	for _, asn := range w.Graph.ASNs() {
		if asn == w.RedIRIS {
			continue
		}
		if !rib.Reachable(asn) {
			continue
		}
		n := w.Graph.Network(asn)
		cands = append(cands, cand{asn, contributionWeight(n, src)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].weight != cands[j].weight {
			return cands[i].weight > cands[j].weight
		}
		return cands[i].asn < cands[j].asn
	})

	// Per-candidate entry construction — dominated by AS-path extraction
	// from the RIB — is pure per index (the RIB and graph are read-only by
	// now), so it fans out with an order-stable merge.
	r := newRanking(w, seed, len(cands))
	r.entries = parallel.Map(workers, len(cands), func(i int) Entry {
		c := cands[i]
		r.inFrac[i] = inboundFraction(w.Graph.Network(c.asn).Kind)
		path := rib.Path(c.asn)
		entry := Entry{ASN: c.asn, Path: path}
		if len(path) >= 2 {
			gateway := path[len(path)-2]
			entry.Transit = gateway == w.Transit1 || gateway == w.Transit2
		}
		return entry
	})
	return r, nil
}

// price computes cfg's rates over r into entries (len(r.entries) long; it
// may be r.entries itself while the ranking is being built) and returns
// the dataset. This is the one rate loop: each rank's share of the
// configured totals, split by its inbound fraction, then normalised so
// the transit totals hit the configured levels.
func (r *ranking) price(cfg Config, entries []Entry) (*Dataset, error) {
	var sumIn, sumOut float64
	for i := range entries {
		e := &r.entries[i]
		share, inFrac := r.share[i], r.inFrac[i]
		entries[i] = Entry{
			ASN:       e.ASN,
			AvgInBps:  share * cfg.TotalInboundBps * inFrac / 0.64,
			AvgOutBps: share * cfg.TotalOutboundBps * (1 - inFrac) / 0.36,
			Transit:   e.Transit,
			Path:      e.Path,
		}
		if entries[i].Transit {
			sumIn += entries[i].AvgInBps
			sumOut += entries[i].AvgOutBps
		}
	}
	if sumIn <= 0 || sumOut <= 0 {
		return nil, fmt.Errorf("netflow: degenerate traffic totals (in=%v out=%v)", sumIn, sumOut)
	}
	inScale := cfg.TotalInboundBps / sumIn
	outScale := cfg.TotalOutboundBps / sumOut
	for i := range entries {
		entries[i].AvgInBps *= inScale
		entries[i].AvgOutBps *= outScale
	}
	return &Dataset{Cfg: cfg, Entries: entries, rank: r}, nil
}

// lookup returns asn's rank, if r ranked it. A Dataset built by hand
// has no ranking and finds nothing.
func (r *ranking) lookup(asn topo.ASN) (int, bool) {
	if r == nil {
		return 0, false
	}
	r.byASNOnce.Do(func() {
		r.byASN = make(map[topo.ASN]int, len(r.entries))
		for i, e := range r.entries {
			r.byASN[e.ASN] = i
		}
	})
	i, ok := r.byASN[asn]
	return i, ok
}

// EntryIDs returns each entry's dense id in the frozen graph g, in entry
// order, with -1 for a network g does not hold. When the dataset was
// ranked over g the ids are computed on the first call and shared by every
// dataset priced from that ranking; callers must not mutate them. For
// another graph, or a dataset built by hand, they are computed on each
// call.
func (d *Dataset) EntryIDs(g *topo.Graph) []int32 {
	if r := d.rank; r != nil && r.graph == g && g.Frozen() {
		r.idsOnce.Do(func() { r.ids = entryIDs(g, r.entries) })
		return r.ids
	}
	return entryIDs(g, d.Entries)
}

// entryIDs maps entries to their dense ids in g (-1 when absent).
func entryIDs(g *topo.Graph, entries []Entry) []int32 {
	ids := make([]int32, len(entries))
	for i := range entries {
		id, ok := g.ID(entries[i].ASN)
		if !ok {
			id = -1
		}
		ids[i] = id
	}
	return ids
}

// buildTransient fills the Figure 6 transient accounting from the entry
// table: every AS strictly inside a path carries that flow as an
// intermediary. The accumulation merges per-block partial maps in fixed
// block order, so the floating-point sums are bit-identical for every
// worker count — and for a rehydrated dataset, bit-identical to the ones
// of the dataset the snapshot was written from.
func (ds *Dataset) buildTransient() {
	type transientMaps struct {
		total, in, out map[topo.ASN]float64
	}
	blocks := parallel.Blocks(len(ds.Entries), 512)
	parts := parallel.Map(ds.Cfg.Workers, len(blocks), func(bi int) transientMaps {
		r := blocks[bi]
		p := transientMaps{
			total: make(map[topo.ASN]float64),
			in:    make(map[topo.ASN]float64),
			out:   make(map[topo.ASN]float64),
		}
		for _, e := range ds.Entries[r.Lo:r.Hi] {
			for _, mid := range e.Path[1:max(1, len(e.Path)-1)] {
				p.total[mid] += e.AvgInBps + e.AvgOutBps
				p.in[mid] += e.AvgInBps
				p.out[mid] += e.AvgOutBps
			}
		}
		return p
	})
	ds.transient = make(map[topo.ASN]float64)
	ds.transientIn = make(map[topo.ASN]float64)
	ds.transOut = make(map[topo.ASN]float64)
	for _, p := range parts {
		for a, v := range p.total {
			ds.transient[a] += v
		}
		for a, v := range p.in {
			ds.transientIn[a] += v
		}
		for a, v := range p.out {
			ds.transOut[a] += v
		}
	}
}

// Rehydrate rebuilds a Dataset around its persisted core — the effective
// collection config and the entry table — without re-running the RIB or
// the candidate ranking. The ranking is derived from the persisted entry
// order: each rank's share from its position and the entry count, each
// inbound fraction from the graph's network kind. So the rehydrated
// dataset answers every query byte-identically to the one the snapshot
// was written from, and prices exactly as Collect would. The entry slice
// is adopted, not copied; the caller must not mutate it afterwards.
func Rehydrate(w *worldgen.World, cfg Config, entries []Entry) (*Dataset, error) {
	if w == nil {
		return nil, fmt.Errorf("netflow: nil world")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	r := newRanking(w, cfg.Seed, len(entries))
	r.entries = entries
	for i, e := range entries {
		if _, ok := w.Graph.ID(e.ASN); !ok {
			return nil, fmt.Errorf("netflow: entry ASN %d not in world graph", e.ASN)
		}
		r.inFrac[i] = inboundFraction(w.Graph.Network(e.ASN).Kind)
	}
	return &Dataset{Cfg: cfg, Entries: entries, rank: r}, nil
}

// contributionWeight ranks networks for contribution assignment: content
// and CDNs carry the most traffic toward an NREN, followed by transit
// wholesale, with leaf networks weighted by their regional affinity to
// Spain (South American networks loom large in RedIRIS traffic, which is
// what makes the Terremark-analogue a top offload IXP in Figure 7).
func contributionWeight(n *topo.Network, src *stats.Source) float64 {
	var base float64
	switch n.Kind {
	case topo.KindContent:
		base = 120 / float64(1+n.SizeRank)
	case topo.KindCDN:
		base = 90 / float64(1+n.SizeRank)
	case topo.KindTier1:
		base = 40
	case topo.KindTransit:
		base = 25 / math.Pow(float64(1+n.SizeRank), 0.8)
	case topo.KindNREN:
		// Research backbones swap bulk datasets with the NREN; the
		// GÉANT members among them do not ride transit anyway.
		base = 400 / math.Pow(float64(1+n.SizeRank), 0.6)
	default:
		base = 8 / math.Pow(float64(1+n.SizeRank), 0.25)
	}
	base *= cityAffinity(n.City)
	return base * src.LogNormal(0, 0.5)
}

// cityAffinity weights a network's traffic affinity with the Spanish NREN.
func cityAffinity(city string) float64 {
	switch city {
	case "Madrid", "Barcelona":
		return 3
	case "Sao Paolo", "Rio", "Porto Alegre", "Curitiba", "Buenos Aires",
		"Bogota", "Lima", "Santiago", "Caracas", "Mexico City",
		"Montevideo", "Asuncion", "Brasilia", "Recife", "Fortaleza",
		"Salvador", "Belo Horizonte", "Cordoba", "Mendoza":
		return 2.2
	case "Lisbon", "Paris", "London", "Amsterdam", "Frankfurt", "Milan",
		"Marseille", "Lyon":
		return 1.3
	default:
		return 1
	}
}

// inboundFraction is the share of a network's combined contribution that is
// inbound (content flows down toward the NREN's campuses).
func inboundFraction(k topo.NetworkKind) float64 {
	switch k {
	case topo.KindContent, topo.KindCDN:
		return 0.85
	case topo.KindNREN:
		return 0.66
	case topo.KindHosting:
		return 0.7
	case topo.KindTransit, topo.KindTier1:
		return 0.6
	default:
		return 0.55
	}
}

// Entry returns the record for asn, if present.
func (d *Dataset) Entry(asn topo.ASN) (Entry, bool) {
	i, ok := d.rank.lookup(asn)
	if !ok {
		return Entry{}, false
	}
	return d.Entries[i], true
}

// TransitEntries returns only the entries riding the transit providers —
// the paper's 29,570-network dataset. The filtered slice is built once and
// cached (it is consulted inside benchmark and analysis loops); callers
// must treat it as read-only.
func (d *Dataset) TransitEntries() []Entry {
	d.transitOnce.Do(func() {
		out := make([]Entry, 0, len(d.Entries))
		for _, e := range d.Entries {
			if e.Transit {
				out = append(out, e)
			}
		}
		d.transitCache = out
	})
	return d.transitCache
}

// TransitTotals returns the average transit-provider traffic in each
// direction. The sum reads the transit entries in place, in entry order
// (the order TransitEntries preserves), so the totals are bit-identical
// to the seed implementation.
func (d *Dataset) TransitTotals() (inBps, outBps float64) {
	for i := range d.Entries {
		if e := &d.Entries[i]; e.Transit {
			inBps += e.AvgInBps
			outBps += e.AvgOutBps
		}
	}
	return inBps, outBps
}

// Transient returns the combined in+out average rate crossing asn as an
// intermediary, plus the directional splits (Figure 6's "transient
// traffic"). The tables are built on the first call.
func (d *Dataset) Transient(asn topo.ASN) (total, in, out float64) {
	d.transientOnce.Do(d.buildTransient)
	return d.transient[asn], d.transientIn[asn], d.transOut[asn]
}

// hashBase is the per-(entry, direction) stream of the series jitter:
// vecmath.Hash01(hashBase(asn, dir), interval) is a deterministic uniform
// [0,1) value of the dataset seed, an ASN, a direction tag and an
// interval, giving O(1) random access into the synthetic time series
// without storing it. The base is interval-independent, so the kernels
// hoist it out of their interval loops.
func (d *Dataset) hashBase(asn topo.ASN, dir uint64) uint64 {
	return uint64(d.Cfg.Seed)*0x9E3779B97F4A7C15 ^ uint64(asn)<<32 ^ dir<<61
}

// diurnalFactor is the multiplicative time-of-day/day-of-week profile. The
// epoch is midnight Monday, rotated by phase. amplitude scales the swing;
// inbound traffic uses a larger amplitude than outbound, giving
// Figure 5b's pronounced inbound periodicity.
func diurnalFactor(interval int, intervalLen time.Duration, amplitude float64, phase time.Duration) float64 {
	at := time.Duration(interval)*intervalLen + phase
	if at < 0 {
		const week = 7 * 24 * time.Hour
		at = at%week + week
	}
	const day = 24 * time.Hour
	const week = 7 * day
	hour := float64(at%day) / float64(time.Hour)
	dow := int(at % week / day)
	// Busy early evening, quiet pre-dawn.
	level := math.Cos(2 * math.Pi * (hour - 19) / 24)
	weekend := 1.0
	if dow >= 5 {
		weekend = 0.7
	}
	return weekend * (1 + amplitude*level)
}

// Rate returns the network's metered traffic in the given 5-minute
// interval (bps), inbound and outbound. Deterministic in (seed, asn,
// interval).
func (d *Dataset) Rate(asn topo.ASN, interval int) (inBps, outBps float64) {
	i, ok := d.rank.lookup(asn)
	if !ok {
		return 0, 0
	}
	return d.entryRate(&d.Entries[i], interval)
}

// profiles returns the cached per-interval diurnal factors for the two
// amplitudes (inbound 0.55, outbound 0.25). Both tables are built once,
// lazily, by evaluating diurnalFactor itself — so a table lookup is
// bit-identical to the inline call it replaces.
func (d *Dataset) profiles() (profIn, profOut []float64) {
	d.profOnce.Do(func() {
		phase := d.phase()
		d.profIn = make([]float64, d.Cfg.Intervals)
		d.profOut = make([]float64, d.Cfg.Intervals)
		for t := range d.profIn {
			d.profIn[t] = diurnalFactor(t, d.Cfg.IntervalLength, 0.55, phase)
			d.profOut[t] = diurnalFactor(t, d.Cfg.IntervalLength, 0.25, phase)
		}
	})
	return d.profIn, d.profOut
}

// phase is the dataset's diurnal-profile rotation.
func (d *Dataset) phase() time.Duration {
	return time.Duration(d.Cfg.PhaseHours * float64(time.Hour))
}

// entryRate is Rate without the index lookup, for callers already holding
// the entry.
func (d *Dataset) entryRate(e *Entry, interval int) (inBps, outBps float64) {
	profIn, profOut := d.profiles()
	din, dout := d.diurnalAt(profIn, interval, 0.55), d.diurnalAt(profOut, interval, 0.25)
	// Multiplicative lognormal jitter, direction-specific.
	jIn := vecmath.Jitter(d.hashBase(e.ASN, 1), interval)
	jOut := vecmath.Jitter(d.hashBase(e.ASN, 2), interval)
	inBps = e.AvgInBps * din * jIn
	outBps = e.AvgOutBps * dout * jOut
	return inBps, outBps
}

// diurnalAt reads the cached profile when the interval is inside the
// dataset's month and falls back to the direct evaluation for callers
// probing beyond it. The phase is derived only on the fallback path, so
// the hot path stays a bare table lookup.
func (d *Dataset) diurnalAt(prof []float64, interval int, amplitude float64) float64 {
	if interval >= 0 && interval < len(prof) {
		return prof[interval]
	}
	return diurnalFactor(interval, d.Cfg.IntervalLength, amplitude, d.phase())
}

// SeriesTotal sums the per-interval rate over a set of networks, returning
// inbound and outbound time series (Figure 5b's curves). A nil set means
// all transit entries.
//
// This is the heaviest synthesis in the pipeline (entries × intervals rate
// evaluations for a month of 5-minute samples). Every call synthesises the
// month afresh and returns slices the caller owns; nothing is cached.
func (d *Dataset) SeriesTotal(set map[topo.ASN]bool) (in, out []float64) {
	return d.seriesOver(func(i int) bool { return set == nil || set[d.Entries[i].ASN] })
}

// SeriesTotalSet is SeriesTotal with the selection given as a dense bitset
// over the world graph's ids — the allocation-light path the offload
// analyses use. A nil set means all transit entries. Entries resolve to
// ids through the ranking's EntryIDs, so a dataset without a ranking (one
// built by hand) selects nothing for a non-nil set, the way Entry and
// Rate resolve nothing for it. Because the entry iteration order is the
// same as SeriesTotal's (entry order, not set order), the two overloads
// return bit-identical series for equal sets.
func (d *Dataset) SeriesTotalSet(set *asindex.BitSet) (in, out []float64) {
	if set == nil {
		return d.seriesOver(func(int) bool { return true })
	}
	var ids []int32
	if d.rank != nil {
		ids = d.EntryIDs(d.rank.graph)
	}
	return d.seriesOver(func(i int) bool { return ids != nil && ids[i] >= 0 && set.Has(ids[i]) })
}

// seriesOver synthesises the month of 5-minute series for the transit
// entries whose index selected accepts.
//
// The intervals are split into one contiguous range per worker, and in
// each range every selected entry is folded in entry order by the fused
// jitter kernel (vecmath.JitterAccumRow — the SIMD path where the CPU
// allows), which never materialises a jitter row. Each interval's
// floating-point addition chain is therefore exactly the serial
// entry-order fold, so the series is bit-identical for every worker count;
// one worker is the one-range case.
func (d *Dataset) seriesOver(selected func(i int) bool) (in, out []float64) {
	active := make([]int32, 0, len(d.Entries))
	for i := range d.Entries {
		if d.Entries[i].Transit && selected(i) {
			active = append(active, int32(i))
		}
	}
	n := d.Cfg.Intervals
	in = make([]float64, n)
	out = make([]float64, n)
	profIn, profOut := d.profiles()
	parallel.ForEachRange(d.Cfg.Workers, n, func(lo, hi int) {
		for _, ei := range active {
			e := &d.Entries[ei]
			vecmath.JitterAccumRow(in[lo:hi], profIn[lo:hi], e.AvgInBps, d.hashBase(e.ASN, 1), lo)
			vecmath.JitterAccumRow(out[lo:hi], profOut[lo:hi], e.AvgOutBps, d.hashBase(e.ASN, 2), lo)
		}
	})
	return in, out
}

// P95 returns the 95th-percentile rate of a series — the billing number of
// Section 2.1.
func P95(series []float64) (float64, error) {
	return stats.P95(series)
}
