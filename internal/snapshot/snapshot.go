// Package snapshot persists what a world is — the generated world, the
// collected traffic dataset, the measurement campaign, and a living
// world's tick state — in one versioned, CRC-protected, mmap-able
// container (the flat format, flat.go), and rehydrates them so that every
// report computed from an attached snapshot is byte-identical to the one
// computed from the live objects.
//
// The guarantee rests on two facts the rest of the repo already enforces:
// the analyses are deterministic pure functions of their inputs, and the
// codec round-trips those inputs exactly (adjacency-list order, entry
// order, observation order, IEEE-754 bit images). Derived state
// (registry views, transient accounting, traffic series, customer cones)
// is rebuilt on attach or on demand through the owning packages rather
// than persisted, so the file stays small, the derivations stay in one
// place, and a materialized Snapshot owns its memory: nothing in it
// aliases the file it came from. The world section stores the AS graph in
// the order its frozen form holds it (networks and adjacency keys by
// ascending ASN), so attach decodes it straight into that dense form
// (attach.go) and refuses a section that breaks the order.
//
// The file's bytes depend on content alone: runtime knobs such as the
// worldgen and netflow Workers counts are never written (they never
// change a result), so the same world saves to the same bytes — and the
// same digest — at any worker count. Decoded configs carry Workers 0, the
// documented one-per-CPU default.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

// Snapshot bundles the persistable artifacts. World is mandatory; the
// rest are optional layers a caller includes when it has paid for them
// (a world-only snapshot from rpworld, a world+dataset one from
// rpoffload, a full one from a serve warm-up).
type Snapshot struct {
	// World is the generated (or perturbed) universe.
	World *worldgen.World
	// Dataset is the collected month of border traffic, if present.
	Dataset *netflow.Dataset
	// Spread is the measurement campaign, if present: raw observations,
	// configs, and ground truth; the detector report is recomputed on
	// attach (deterministically, so byte-identically).
	Spread *spread.Result
	// Tick is the evolution layer, if present: the world's position on a
	// living-world timeline plus the regime state accumulated by its
	// events. Tick-engine checkpoints carry it; frozen worlds omit it.
	Tick *TickState

	// Digest is the SHA-256 of the encoded file, set when an attached
	// file materializes — the content address the serve layer keys its
	// result cache on, and the name the fleet routes and traces by.
	Digest string
}

// digestOf is the content digest: the SHA-256 of the complete file
// image, hex-encoded.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WorldDigest is the content address of a world alone: the SHA-256 of its
// world-section payload. The journal's genesis header records it so
// recovery can verify a regenerated (or separately loaded) world really
// is the one the history grew from — the codec round-trips worlds
// exactly and writes no runtime knob, so equal digests mean equal worlds,
// whatever worker count generated them.
func WorldDigest(w *worldgen.World) (string, error) {
	if w == nil {
		return "", fmt.Errorf("snapshot: nil world")
	}
	return digestOf(encodeWorld(w)), nil
}

// --- world ---

// encodeWorld returns the world payload, encoded into a buffer of
// exactly its size.
func encodeWorld(w *worldgen.World) []byte {
	return appendWorld(make([]byte, 0, worldSize(w)), w)
}

// worldSize is the world payload's exact length, computed from the
// world's counts, string lengths and values without encoding them, so
// appending the payload to a buffer with that much room left never
// regrows it. It mirrors appendWorld field by field.
func worldSize(w *worldgen.World) int {
	asnLen := func(a topo.ASN) int { return uvarintLen(uint64(a)) }
	n := varintLen(w.Cfg.Seed) + varintLen(int64(w.Cfg.LeafNetworks)) + 8 + varintLen(int64(w.Cfg.CampaignDays))

	asns := w.Graph.ASNs()
	n += uvarintLen(uint64(len(asns)))
	for _, a := range asns {
		net := w.Graph.Network(a)
		n += asnLen(net.ASN) + prefixedLen(len(net.Name)) + 1 + prefixedLen(len(net.City)) + 1 +
			varintLen(int64(net.SizeRank)) + varintLen(net.IPInterfaces)
	}
	for _, of := range []func(topo.ASN) []topo.ASN{w.Graph.Providers, w.Graph.Customers, w.Graph.Peers} {
		count := 0
		for _, a := range asns {
			list := of(a)
			if len(list) == 0 {
				continue
			}
			count++
			n += asnLen(a) + uvarintLen(uint64(len(list)))
			for _, other := range list {
				n += asnLen(other)
			}
		}
		n += uvarintLen(uint64(count))
	}

	n += uvarintLen(uint64(len(w.IXPs)))
	for _, x := range w.IXPs {
		n += prefixedLen(len(x.Acronym)) + prefixedLen(len(x.FullName)) + uvarintLen(uint64(len(x.Cities))) +
			prefixedLen(len(x.Country)) + 8 + prefixedLen(prefixLen(x.Subnet)) + 2 + uvarintLen(uint64(len(x.Members)))
		for _, c := range x.Cities {
			n += prefixedLen(len(c))
		}
		for _, m := range x.Members {
			n += asnLen(m.ASN) + 1 + prefixedLen(len(m.Provider)) + prefixedLen(len(m.AccessCity)) +
				varintLen(int64(m.Location)) + prefixedLen(addrLen(m.IP))
		}
	}

	n += uvarintLen(uint64(len(w.Ifaces)))
	for i := range w.Ifaces {
		rec := &w.Ifaces[i]
		n += varintLen(int64(rec.IXPIndex)) + prefixedLen(addrLen(rec.IP)) + asnLen(rec.ASN) + 1 +
			prefixedLen(len(rec.AccessCity)) + varintLen(int64(rec.Location)) + 2 + 8 + asnLen(rec.ChurnASN) + 2
	}

	for _, d := range w.PseudowireDelta {
		n += varintLen(int64(d))
	}
	n += asnLen(w.RedIRIS) + asnLen(w.Geant) + asnLen(w.Transit1) + asnLen(w.Transit2)
	for _, list := range [][]topo.ASN{w.Tier1s, w.NRENs, w.PeeredCDNs} {
		n += uvarintLen(uint64(len(list)))
		for _, a := range list {
			n += asnLen(a)
		}
	}
	return n
}

// appendWorld appends the world payload to buf.
func appendWorld(buf []byte, w *worldgen.World) []byte {
	e := enc{buf: buf}

	// Config.
	e.varint(w.Cfg.Seed)
	e.intv(w.Cfg.LeafNetworks)
	e.f64(w.Cfg.RegistryASNCoverage)
	e.intv(w.Cfg.CampaignDays)

	// Networks, in ascending ASN order (the graph's own canonical order).
	asns := w.Graph.ASNs()
	e.uvarint(uint64(len(asns)))
	for _, asn := range asns {
		n := w.Graph.Network(asn)
		e.uvarint(uint64(n.ASN))
		e.str(n.Name)
		e.u8(uint8(n.Kind))
		e.str(n.City)
		e.u8(uint8(n.Policy))
		e.intv(n.SizeRank)
		e.varint(n.IPInterfaces)
	}

	// Adjacency lists, verbatim (order is load-bearing for BFS and RIB
	// traversals). Keys iterate in ascending ASN order for determinism;
	// empty lists are skipped.
	encodeAdj := func(of func(topo.ASN) []topo.ASN) {
		count := 0
		for _, asn := range asns {
			if len(of(asn)) > 0 {
				count++
			}
		}
		e.uvarint(uint64(count))
		for _, asn := range asns {
			list := of(asn)
			if len(list) == 0 {
				continue
			}
			e.uvarint(uint64(asn))
			e.uvarint(uint64(len(list)))
			for _, other := range list {
				e.uvarint(uint64(other))
			}
		}
	}
	encodeAdj(w.Graph.Providers)
	encodeAdj(w.Graph.Customers)
	encodeAdj(w.Graph.Peers)

	// IXPs.
	e.uvarint(uint64(len(w.IXPs)))
	for _, x := range w.IXPs {
		e.str(x.Acronym)
		e.str(x.FullName)
		e.uvarint(uint64(len(x.Cities)))
		for _, c := range x.Cities {
			e.str(c)
		}
		e.str(x.Country)
		e.f64(x.PeakTrafficTbps)
		e.prefix(x.Subnet)
		e.boolv(x.HasPCHLG)
		e.boolv(x.HasRIPELG)
		e.uvarint(uint64(len(x.Members)))
		for _, m := range x.Members {
			e.uvarint(uint64(m.ASN))
			e.boolv(m.Remote)
			e.str(m.Provider)
			e.str(m.AccessCity)
			e.intv(m.Location)
			e.addr(m.IP)
		}
	}

	// Probe-target interface records.
	e.uvarint(uint64(len(w.Ifaces)))
	for i := range w.Ifaces {
		rec := &w.Ifaces[i]
		e.intv(rec.IXPIndex)
		e.addr(rec.IP)
		e.uvarint(uint64(rec.ASN))
		e.boolv(rec.Remote)
		e.str(rec.AccessCity)
		e.intv(rec.Location)
		e.u8(uint8(rec.Hazard))
		e.u8(rec.OddTTL)
		e.f64(rec.SwitchFrac)
		e.uvarint(uint64(rec.ChurnASN))
		e.boolv(rec.RegistryHasASN)
		e.u8(rec.InitTTL)
	}

	// Physics and well-known roles.
	for _, d := range w.PseudowireDelta {
		e.varint(int64(d))
	}
	e.uvarint(uint64(w.RedIRIS))
	e.uvarint(uint64(w.Geant))
	e.uvarint(uint64(w.Transit1))
	e.uvarint(uint64(w.Transit2))
	encodeASNs := func(list []topo.ASN) {
		e.uvarint(uint64(len(list)))
		for _, a := range list {
			e.uvarint(uint64(a))
		}
	}
	encodeASNs(w.Tier1s)
	encodeASNs(w.NRENs)
	encodeASNs(w.PeeredCDNs)
	return e.buf
}

// decodeWorld decodes the world payload without building the derived
// state (spec table): attach checks the persisted dense-id plane against
// the restored graph instead of re-deriving it. The graph is decoded
// straight into its frozen dense form: the networks into one slice, each
// relation's lists into one exact-size slice, and no map, per-network
// record or sort is built. The networks and each relation's keys must
// ascend, the order appendWorld writes them in.
func decodeWorld(payload []byte) (*worldgen.World, error) {
	d := &dec{buf: payload}
	w := &worldgen.World{}

	w.Cfg.Seed = d.varint()
	w.Cfg.LeafNetworks = d.intv()
	w.Cfg.RegistryASNCoverage = d.f64()
	w.Cfg.CampaignDays = d.intv()

	nNets := d.uvarint()
	if d.err != nil || !d.fits(nNets, 7) {
		return nil, d.err
	}
	nets := make([]topo.Network, nNets)
	for i := range nets {
		n := &nets[i]
		n.ASN = topo.ASN(d.uvarint())
		n.Name = d.str()
		n.Kind = topo.NetworkKind(d.u8())
		n.City = d.str()
		n.Policy = topo.PeeringPolicy(d.u8())
		n.SizeRank = d.intv()
		n.IPInterfaces = d.varint()
	}

	providers := decodeRelation(d)
	customers := decodeRelation(d)
	peers := decodeRelation(d)
	if d.err != nil {
		return nil, d.err
	}
	g, err := topo.Restore(nets, providers, customers, peers)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	w.Graph = g

	nIXPs := d.uvarint()
	if d.err != nil || !d.fits(nIXPs, 10) {
		return nil, d.err
	}
	w.IXPs = make([]*topo.IXP, nIXPs)
	for i := range w.IXPs {
		x := &topo.IXP{}
		x.Acronym = d.str()
		x.FullName = d.str()
		nCities := d.uvarint()
		if d.err != nil || !d.fits(nCities, 1) {
			return nil, d.err
		}
		if nCities > 0 {
			x.Cities = make([]string, nCities)
		}
		for k := range x.Cities {
			x.Cities[k] = d.str()
		}
		x.Country = d.str()
		x.PeakTrafficTbps = d.f64()
		x.Subnet = d.prefix()
		x.HasPCHLG = d.boolv()
		x.HasRIPELG = d.boolv()
		nMembers := d.uvarint()
		if d.err != nil || !d.fits(nMembers, 6) {
			return nil, d.err
		}
		if nMembers > 0 {
			x.Members = make([]topo.Membership, nMembers)
		}
		for k := range x.Members {
			m := &x.Members[k]
			m.ASN = topo.ASN(d.uvarint())
			m.Remote = d.boolv()
			m.Provider = d.str()
			m.AccessCity = d.str()
			m.Location = d.intv()
			m.IP = d.addr()
		}
		w.IXPs[i] = x
	}

	nIfaces := d.uvarint()
	if d.err != nil || !d.fits(nIfaces, 16) {
		return nil, d.err
	}
	if nIfaces > 0 {
		w.Ifaces = make([]worldgen.IfaceRecord, nIfaces)
	}
	for i := range w.Ifaces {
		rec := &w.Ifaces[i]
		rec.IXPIndex = d.intv()
		rec.IP = d.addr()
		rec.ASN = topo.ASN(d.uvarint())
		rec.Remote = d.boolv()
		rec.AccessCity = d.str()
		rec.Location = d.intv()
		rec.Hazard = worldgen.HazardKind(d.u8())
		rec.OddTTL = d.u8()
		rec.SwitchFrac = d.f64()
		rec.ChurnASN = topo.ASN(d.uvarint())
		rec.RegistryHasASN = d.boolv()
		rec.InitTTL = d.u8()
	}

	for i := range w.PseudowireDelta {
		w.PseudowireDelta[i] = time.Duration(d.varint())
	}
	w.RedIRIS = topo.ASN(d.uvarint())
	w.Geant = topo.ASN(d.uvarint())
	w.Transit1 = topo.ASN(d.uvarint())
	w.Transit2 = topo.ASN(d.uvarint())
	decodeASNs := func() []topo.ASN {
		n := d.uvarint()
		if d.err != nil || !d.fits(n, 1) {
			return nil
		}
		if n == 0 {
			return nil
		}
		out := make([]topo.ASN, n)
		for i := range out {
			out[i] = topo.ASN(d.uvarint())
		}
		return out
	}
	w.Tier1s = decodeASNs()
	w.NRENs = decodeASNs()
	w.PeeredCDNs = decodeASNs()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes in world section", ErrCorrupt, len(d.buf)-d.off)
	}
	return w, nil
}

// --- dataset ---

// datasetSize is the dataset payload's exact length, computed the way
// worldSize is; it mirrors appendDataset field by field.
func datasetSize(ds *netflow.Dataset) int {
	n := varintLen(ds.Cfg.Seed) + varintLen(int64(ds.Cfg.Intervals)) + varintLen(int64(ds.Cfg.IntervalLength)) + 3*8 +
		uvarintLen(uint64(len(ds.Entries)))
	for i := range ds.Entries {
		en := &ds.Entries[i]
		n += uvarintLen(uint64(en.ASN)) + 8 + 8 + 1 + uvarintLen(uint64(len(en.Path)))
		for _, hop := range en.Path {
			n += uvarintLen(uint64(hop))
		}
	}
	return n
}

// appendDataset appends the dataset payload to buf.
func appendDataset(buf []byte, ds *netflow.Dataset) []byte {
	e := enc{buf: buf}
	e.varint(ds.Cfg.Seed)
	e.intv(ds.Cfg.Intervals)
	e.varint(int64(ds.Cfg.IntervalLength))
	e.f64(ds.Cfg.TotalInboundBps)
	e.f64(ds.Cfg.TotalOutboundBps)
	e.f64(ds.Cfg.PhaseHours)
	e.uvarint(uint64(len(ds.Entries)))
	for i := range ds.Entries {
		en := &ds.Entries[i]
		e.uvarint(uint64(en.ASN))
		e.f64(en.AvgInBps)
		e.f64(en.AvgOutBps)
		e.boolv(en.Transit)
		e.uvarint(uint64(len(en.Path)))
		for _, hop := range en.Path {
			e.uvarint(uint64(hop))
		}
	}
	return e.buf
}

// decodeRelation decodes one adjacency relation as appendWorld wrote it:
// a key count, then per key its ASN, its list length and the list. A
// first pass over the varints counts the entries, so the lists land in
// one exact-size slice.
func decodeRelation(d *dec) topo.Relation {
	count := d.uvarint()
	if d.err != nil || !d.fits(count, 3) {
		return topo.Relation{}
	}
	rel := topo.Relation{Keys: make([]topo.ASN, count), Lens: make([]uint32, count)}
	start, total := d.off, uint64(0)
	for i := range rel.Keys {
		rel.Keys[i] = topo.ASN(d.uvarint())
		n := d.uvarint()
		if d.err != nil || !d.fits(n, 1) {
			return topo.Relation{}
		}
		rel.Lens[i] = uint32(n)
		total += n
		for ; n > 0; n-- {
			d.uvarint()
		}
	}
	if d.err != nil {
		return topo.Relation{}
	}
	rel.List = make([]topo.ASN, total)
	d.off = start
	k := 0
	for range rel.Keys {
		d.uvarint()
		for n := d.uvarint(); n > 0; n-- {
			rel.List[k] = topo.ASN(d.uvarint())
			k++
		}
	}
	return rel
}

// decodeDataset decodes the dataset payload. Every entry's AS path is a
// capped window of one backing array, sized by a first pass over the
// entries.
func decodeDataset(payload []byte, w *worldgen.World) (*netflow.Dataset, error) {
	d := &dec{buf: payload}
	var cfg netflow.Config
	cfg.Seed = d.varint()
	cfg.Intervals = d.intv()
	cfg.IntervalLength = time.Duration(d.varint())
	cfg.TotalInboundBps = d.f64()
	cfg.TotalOutboundBps = d.f64()
	cfg.PhaseHours = d.f64()
	n := d.uvarint()
	if d.err != nil || !d.fits(n, 20) {
		return nil, d.err
	}
	entries := make([]netflow.Entry, n)
	start, total := d.off, uint64(0)
	for range entries {
		d.uvarint()
		d.f64()
		d.f64()
		d.boolv()
		hops := d.uvarint()
		if d.err != nil || !d.fits(hops, 1) {
			return nil, d.err
		}
		total += hops
		for ; hops > 0; hops-- {
			d.uvarint()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	paths := make([]topo.ASN, total)
	d.off = start
	for i := range entries {
		en := &entries[i]
		en.ASN = topo.ASN(d.uvarint())
		en.AvgInBps = d.f64()
		en.AvgOutBps = d.f64()
		en.Transit = d.boolv()
		hops := int(d.uvarint())
		if hops > 0 {
			en.Path = paths[:hops:hops]
			paths = paths[hops:]
		}
		for k := range en.Path {
			en.Path[k] = topo.ASN(d.uvarint())
		}
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes in dataset section", ErrCorrupt, len(d.buf)-d.off)
	}
	ds, err := netflow.Rehydrate(w, cfg, entries)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ds, nil
}

// --- spread campaign ---

// encodeSpreadCfg emits the campaign's scalar configuration — measurement
// seed, probing regime, detector parameters — the spread.cfg section.
func encodeSpreadCfg(e *enc, r *spread.Result) {
	// Measurement seed + campaign config.
	e.varint(r.Seed)
	e.varint(int64(r.Campaign.Duration))
	e.intv(r.Campaign.PCHRounds)
	e.intv(r.Campaign.RIPERounds)
	e.intv(r.Campaign.PingsPerQueryPCH)
	e.intv(r.Campaign.PingsPerQueryRIPE)
	e.varint(int64(r.Campaign.QuerySpacing))
	e.varint(int64(r.Campaign.PingTimeout))

	// Detector config.
	e.varint(int64(r.Detector.RemoteThreshold))
	e.intv(r.Detector.MinRepliesPerLG)
	e.intv(r.Detector.MinConsistentReplies)
	e.varint(int64(r.Detector.ConsistencyAbs))
	e.f64(r.Detector.ConsistencyFrac)
	e.uvarint(uint64(len(r.Detector.AcceptedTTLs)))
	for _, t := range r.Detector.AcceptedTTLs {
		e.u8(t)
	}
	disabled := make([]int, 0, len(r.Detector.Disabled))
	for f, on := range r.Detector.Disabled {
		if on {
			disabled = append(disabled, int(f))
		}
	}
	for i := 1; i < len(disabled); i++ { // tiny insertion sort, stable bytes
		for j := i; j > 0 && disabled[j] < disabled[j-1]; j-- {
			disabled[j], disabled[j-1] = disabled[j-1], disabled[j]
		}
	}
	e.uvarint(uint64(len(disabled)))
	for _, f := range disabled {
		e.intv(f)
	}
}

// decodeSpreadCfg is encodeSpreadCfg's inverse.
func decodeSpreadCfg(d *dec) (seed int64, campaign lg.Config, detector core.Config, err error) {
	seed = d.varint()
	campaign.Duration = time.Duration(d.varint())
	campaign.PCHRounds = d.intv()
	campaign.RIPERounds = d.intv()
	campaign.PingsPerQueryPCH = d.intv()
	campaign.PingsPerQueryRIPE = d.intv()
	campaign.QuerySpacing = time.Duration(d.varint())
	campaign.PingTimeout = time.Duration(d.varint())

	detector.RemoteThreshold = time.Duration(d.varint())
	detector.MinRepliesPerLG = d.intv()
	detector.MinConsistentReplies = d.intv()
	detector.ConsistencyAbs = time.Duration(d.varint())
	detector.ConsistencyFrac = d.f64()
	nTTL := d.uvarint()
	if d.err != nil || !d.fits(nTTL, 1) {
		return 0, campaign, detector, d.err
	}
	if nTTL > 0 {
		detector.AcceptedTTLs = make([]uint8, nTTL)
		for i := range detector.AcceptedTTLs {
			detector.AcceptedTTLs[i] = d.u8()
		}
	}
	nDisabled := d.uvarint()
	if d.err != nil || !d.fits(nDisabled, 1) {
		return 0, campaign, detector, d.err
	}
	if nDisabled > 0 {
		detector.Disabled = make(map[core.Filter]bool, nDisabled)
		for i := uint64(0); i < nDisabled; i++ {
			detector.Disabled[core.Filter(d.intv())] = true
		}
	}
	return seed, campaign, detector, d.err
}
