// Package scenario is the what-if engine of the reproduction: a typed,
// closed algebra of world perturbations plus a grid campaign runner that
// re-runs the full paper pipeline — spread study, traffic collection,
// offload analysis, economic model — over every perturbed copy and diffs
// each cell against the unperturbed baseline.
//
// The paper's Sections 4-5 are themselves counterfactuals ("what if the
// NREN remote-peered at these IXPs?"); this package opens the next layer
// of questions: what happens to detector spread, offload coverage, and
// economic viability when the *world* changes — an IXP outage, a latency
// regime shift, a membership surge, a traffic surge, a port-price drop.
//
// An op that rewrites the world applies to a deterministic copy-on-write
// clone of it (worldgen.World.Clone); every other cell reads the caller's
// world, which no stage writes. A grid run never mutates the caller's
// world, and the runner inherits the repo-wide invariant: results are
// byte-identical for every worker count.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"remotepeering/internal/econ"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

// state is the mutable what-if cell an op perturbs: the cell's world plus
// the per-cell pipeline configurations. Ops may rewrite any of it — world
// structure (outage, churn), measurement physics (latency shift), traffic
// regime (scale, diurnal phase), or the economic price vector. The world
// is a private clone exactly when one of the cell's ops rewrites it.
type state struct {
	World   *worldgen.World
	Traffic netflow.Config
	Spread  spread.Options
	Econ    econ.Params
	// src drives any randomness an op needs (e.g. churn member
	// selection); it is split serially per cell, keyed by the scenario
	// index, before the grid fans out.
	src *stats.Source
}

// StageMask marks pipeline stages an op invalidates. The grid runner
// re-runs exactly the dirty stages of a cell (plus their downstream
// closure) and reuses the baseline cell's immutable artifacts for the
// clean ones; the reuse-equivalence tests pin that a reusing cell is
// byte-identical to a full rerun, which is what makes each op's declared
// mask part of its correctness contract, not a hint.
type StageMask uint8

const (
	// StageWorld marks structural change to the AS graph or the ASN
	// universe itself. No current op sets it (membership ops leave the
	// graph untouched); an op that grows or rewires the graph must, and
	// it implies every other stage. World clones share the frozen graph,
	// so such an op must also give its cell a private copy of the graph,
	// frozen again so it assigns the dense ids of its own universe.
	StageWorld StageMask = 1 << iota
	// StageSpread invalidates the Section 3 measurement campaign.
	StageSpread
	// StageTraffic invalidates the Section 4.1 dataset collection.
	StageTraffic
	// StageOffload invalidates the Section 4 offload analysis.
	StageOffload
	// StageEcon invalidates the Section 5 economic verdict.
	StageEcon

	// StageAll is every stage — the mask of a full rerun.
	StageAll = StageWorld | StageSpread | StageTraffic | StageOffload | StageEcon
)

// String renders the mask as "world|spread|traffic|offload|econ" terms.
func (m StageMask) String() string {
	if m == 0 {
		return "none"
	}
	names := []struct {
		bit  StageMask
		name string
	}{
		{StageWorld, "world"}, {StageSpread, "spread"}, {StageTraffic, "traffic"},
		{StageOffload, "offload"}, {StageEcon, "econ"},
	}
	var parts []string
	for _, n := range names {
		if m&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}

// Op is one serializable perturbation. The set is closed — the unexported
// methods keep external packages from adding ops, so every op a grid can
// contain round-trips through ParseOp/String and carries a vetted
// dirty-stage mask.
type Op interface {
	fmt.Stringer
	apply(st *state) error
	// stages reports which pipeline stages the op directly invalidates;
	// the runner adds the downstream closure (world ⇒ everything,
	// traffic ⇒ offload ⇒ econ).
	stages() StageMask
	// dirtySims reports which studied-IXP simulations the op invalidates:
	// all of them (a global-physics change), or a list of acronyms (a
	// membership change at specific exchanges). Ops whose stages exclude
	// StageSpread return (false, nil).
	dirtySims() (all bool, ixps []string)
}

// OpStages returns the dirty-stage mask of op, including the downstream
// closure the runner applies — the introspection hook the property tests
// (and curious callers) use.
func OpStages(op Op) StageMask {
	return closeStages(op.stages())
}

// closeStages adds the downstream closure to a direct dirty mask.
func closeStages(m StageMask) StageMask {
	if m&StageWorld != 0 {
		m |= StageAll
	}
	if m&StageTraffic != 0 {
		m |= StageOffload
	}
	if m&StageOffload != 0 {
		m |= StageEcon
	}
	return m
}

// MaxLatencyShift bounds the one-way pseudowire delay shift a band may
// accumulate, in either direction. A day is far past the lg campaign's
// 5 s ping timeout, so every larger shift already reads as a lost reply.
// Far beyond it the simulator's int64-nanosecond clock wraps: a frame's
// delivery time (now plus the access delays it crosses) turns negative
// and netsim panics with "scheduling into the past", and two shifts
// whose int64 sum wraps evaluate a huge shift of the other sign.
const MaxLatencyShift = 24 * time.Hour

// Distance bands for LatencyShift, matching Figure 3's classes.
const (
	// BandAll applies a latency shift to every remote membership.
	BandAll = -1
	// BandIntercity covers remote peers ~550-1000 km out (10-20 ms RTT).
	BandIntercity = 0
	// BandIntercountry covers ~1000-2900 km (20-50 ms RTT).
	BandIntercountry = 1
	// BandIntercontinental covers ≥3200 km (≥50 ms RTT).
	BandIntercontinental = 2
)

// IXPOutage takes an exchange dark: every membership disappears and, at
// studied IXPs, its probe targets with them. Offload coverage loses the
// IXP's cones; the spread study loses its Table 1 row.
type IXPOutage struct {
	// IXP is the exchange's acronym ("AMS-IX").
	IXP string
}

// String implements Op.
func (o IXPOutage) String() string { return "outage:" + o.IXP }

// stages: an outage moves probe targets and offload coverage; the AS
// graph and the traffic dataset (which keys on graph paths alone) stay.
func (o IXPOutage) stages() StageMask { return StageSpread | StageOffload }

func (o IXPOutage) dirtySims() (bool, []string) { return false, []string{o.IXP} }

func (o IXPOutage) apply(st *state) error {
	_, xi, err := st.World.IXPByAcronym(o.IXP)
	if err != nil {
		return err
	}
	return st.World.RemoveIXPMembers(xi)
}

// LatencyShift moves the one-way pseudowire delay of remote memberships in
// a distance band by DeltaMs — a latency regime shift (provider wavepath
// upgrades when negative, congestion or reroutes when positive) that moves
// remote interfaces across the detector's 10 ms RTT threshold. A one-way
// shift of d ms moves minimum RTTs by 2d ms.
type LatencyShift struct {
	// Band selects the affected distance band (BandAll for every one).
	Band int
	// DeltaMs is the one-way delay change in milliseconds (may be
	// negative).
	DeltaMs float64
}

// String implements Op.
func (o LatencyShift) String() string {
	return "latency:" + bandName(o.Band) + ":" + formatFloat(o.DeltaMs)
}

// stages: pseudowire delays are measurement physics — only the campaign
// sees them (and every IXP hosting remote members does, so all sims are
// invalidated).
func (o LatencyShift) stages() StageMask { return StageSpread }

func (o LatencyShift) dirtySims() (bool, []string) { return true, nil }

func (o LatencyShift) apply(st *state) error {
	if o.Band < BandAll || o.Band > BandIntercontinental {
		return fmt.Errorf("scenario: latency shift band %d out of range", o.Band)
	}
	// The shift and the delay it accumulates to must each stay within the
	// bound, checked in floating point before converting: a larger float
	// has no defined time.Duration.
	shift := o.DeltaMs * float64(time.Millisecond)
	for b := 0; b < 3; b++ {
		if o.Band != BandAll && o.Band != b {
			continue
		}
		if sum := float64(st.World.PseudowireDelta[b]) + shift; !(math.Abs(shift) <= float64(MaxLatencyShift) && math.Abs(sum) <= float64(MaxLatencyShift)) {
			return fmt.Errorf("scenario: latency shift of %s ms takes the %s band's one-way delay to %g ms, beyond ±%v",
				formatFloat(o.DeltaMs), bandName(b), sum/float64(time.Millisecond), MaxLatencyShift)
		}
	}
	d := time.Duration(shift)
	for b := 0; b < 3; b++ {
		if o.Band == BandAll || o.Band == b {
			st.World.PseudowireDelta[b] += d
		}
	}
	return nil
}

// MemberChurn models a membership surge or exodus at one IXP: Join leaf
// networks connect as direct members on fresh ports, Leave existing direct
// leaf members disconnect (all their ports). The selection is driven by
// the cell's deterministic RNG stream.
type MemberChurn struct {
	// IXP is the exchange's acronym.
	IXP string
	// Join and Leave are the number of networks joining and leaving.
	Join, Leave int
}

// String implements Op.
func (o MemberChurn) String() string {
	return fmt.Sprintf("churn:%s:%d:%d", o.IXP, o.Join, o.Leave)
}

// stages: churn rewires memberships at one exchange — probe targets and
// offload coverage move; the AS graph and the traffic dataset stay.
func (o MemberChurn) stages() StageMask { return StageSpread | StageOffload }

func (o MemberChurn) dirtySims() (bool, []string) { return false, []string{o.IXP} }

func (o MemberChurn) apply(st *state) error {
	if o.Join < 0 || o.Leave < 0 {
		return fmt.Errorf("scenario: negative churn counts join=%d leave=%d", o.Join, o.Leave)
	}
	w := st.World
	x, xi, err := w.IXPByAcronym(o.IXP)
	if err != nil {
		return err
	}

	// Leavers: distinct direct leaf members, drawn without replacement
	// from a shuffled candidate list (membership order, so the draw is a
	// pure function of the cell's RNG stream).
	if o.Leave > 0 {
		var cands []topo.ASN
		seen := make(map[topo.ASN]bool)
		for _, m := range x.Members {
			if m.Remote || m.ASN < worldgen.ASNLeafBase || seen[m.ASN] {
				continue
			}
			seen[m.ASN] = true
			cands = append(cands, m.ASN)
		}
		st.src.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		n := o.Leave
		if n > len(cands) {
			n = len(cands)
		}
		gone := make(map[topo.ASN]bool, n)
		for _, asn := range cands[:n] {
			gone[asn] = true
		}
		w.RemoveMemberships(xi, gone)
	}

	// Joiners: leaf networks not yet members, rejection-sampled from the
	// leaf universe like the generator's own remote-member placement.
	joined := 0
	for tries := 0; joined < o.Join && tries < 64*(o.Join+1); tries++ {
		asn := worldgen.ASNLeafBase + topo.ASN(st.src.Intn(w.Cfg.LeafNetworks))
		if x.HasMember(asn) {
			continue
		}
		if err := w.AddDirectMembership(xi, asn, st.src); err != nil {
			return err
		}
		joined++
	}
	if joined < o.Join {
		return fmt.Errorf("scenario: could only join %d of %d members at %s", joined, o.Join, o.IXP)
	}
	return nil
}

// TrafficScale multiplies the NREN's average transit-traffic levels in
// both directions — a demand surge (>1) or decline (<1).
type TrafficScale struct {
	// Factor is the multiplier (must be positive).
	Factor float64
}

// String implements Op.
func (o TrafficScale) String() string { return "traffic:" + formatFloat(o.Factor) }

// stages: the traffic regime feeds the dataset; offload and econ follow
// through the closure.
func (o TrafficScale) stages() StageMask { return StageTraffic }

func (o TrafficScale) dirtySims() (bool, []string) { return false, nil }

func (o TrafficScale) apply(st *state) error {
	if !(o.Factor > 0) {
		return fmt.Errorf("scenario: non-positive traffic scale %v", o.Factor)
	}
	in, out := st.Traffic.TotalInboundBps, st.Traffic.TotalOutboundBps
	if in == 0 {
		in = netflow.DefaultInboundBps
	}
	if out == 0 {
		out = netflow.DefaultOutboundBps
	}
	in, out = in*o.Factor, out*o.Factor
	// An infinite total poisons every offload share; a total that
	// underflows to zero would read as "use the default" downstream.
	if in == 0 || out == 0 || math.IsInf(in, 0) || math.IsInf(out, 0) {
		return fmt.Errorf("scenario: traffic scale %s takes the transit totals to %g/%g bps", formatFloat(o.Factor), in, out)
	}
	st.Traffic.TotalInboundBps, st.Traffic.TotalOutboundBps = in, out
	return nil
}

// DiurnalShift rotates the diurnal/weekly traffic profile by Hours — a
// traffic mix whose peak moves relative to the billing day (e.g. a content
// catalogue whose audience sits several time zones away).
type DiurnalShift struct {
	// Hours rotates the profile (positive moves the peak earlier).
	Hours float64
}

// String implements Op.
func (o DiurnalShift) String() string { return "diurnal:" + formatFloat(o.Hours) }

// stages: the phase rotates the series profile inside the dataset.
func (o DiurnalShift) stages() StageMask { return StageTraffic }

func (o DiurnalShift) dirtySims() (bool, []string) { return false, nil }

func (o DiurnalShift) apply(st *state) error {
	// The phase becomes a time.Duration, so the sum must fit one in
	// nanoseconds, checked in floating point: converting a larger float
	// is undefined.
	h := st.Traffic.PhaseHours + o.Hours
	if ns := h * float64(time.Hour); !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return fmt.Errorf("scenario: diurnal shift of %s h takes the phase to %g h, past a duration", formatFloat(o.Hours), h)
	}
	st.Traffic.PhaseHours = h
	return nil
}

// PortPrice scales the per-IXP traffic-independent costs of the Section 5
// model — g (direct peering) and h (remote peering) together, as when IXP
// port and colocation prices move market-wide. Viability (eq. 14) depends
// on their ratio times the traffic prices, so a uniform drop leaves the
// verdict's ratio intact but moves the optimal ñ and m̃; use it with
// custom base params for asymmetric moves.
type PortPrice struct {
	// Factor is the multiplier on g and h (must be positive).
	Factor float64
}

// String implements Op.
func (o PortPrice) String() string { return "portprice:" + formatFloat(o.Factor) }

// stages: prices touch only the Section 5 verdict.
func (o PortPrice) stages() StageMask { return StageEcon }

func (o PortPrice) dirtySims() (bool, []string) { return false, nil }

func (o PortPrice) apply(st *state) error {
	if o.Factor <= 0 {
		return fmt.Errorf("scenario: non-positive port-price factor %v", o.Factor)
	}
	st.Econ.G *= o.Factor
	st.Econ.H *= o.Factor
	return nil
}

// RemotePrice scales the remote-peering price vector alone (h and v) — the
// remote-peering market maturing (<1) or consolidating (>1). Unlike
// PortPrice it moves the eq. 14 viability ratio directly.
type RemotePrice struct {
	// Factor is the multiplier on h and v (must be positive).
	Factor float64
}

// String implements Op.
func (o RemotePrice) String() string { return "remoteprice:" + formatFloat(o.Factor) }

// stages: prices touch only the Section 5 verdict.
func (o RemotePrice) stages() StageMask { return StageEcon }

func (o RemotePrice) dirtySims() (bool, []string) { return false, nil }

func (o RemotePrice) apply(st *state) error {
	if o.Factor <= 0 {
		return fmt.Errorf("scenario: non-positive remote-price factor %v", o.Factor)
	}
	st.Econ.H *= o.Factor
	st.Econ.V *= o.Factor
	return nil
}

// bandName renders a LatencyShift band for the text codec.
func bandName(b int) string {
	switch b {
	case BandAll:
		return "all"
	case BandIntercity:
		return "city"
	case BandIntercountry:
		return "country"
	case BandIntercontinental:
		return "continent"
	default:
		return strconv.Itoa(b)
	}
}

// parseBand is bandName's inverse.
func parseBand(s string) (int, error) {
	switch s {
	case "all":
		return BandAll, nil
	case "city":
		return BandIntercity, nil
	case "country":
		return BandIntercountry, nil
	case "continent":
		return BandIntercontinental, nil
	default:
		return 0, fmt.Errorf("scenario: unknown latency band %q (want all/city/country/continent)", s)
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// parseMagnitude parses an op's magnitude, which must be finite: NaN and
// the infinities pass apply's sign checks and poison every number
// downstream. A non-zero unit says the op converts the magnitude to a
// time.Duration, so it must also fit one in nanoseconds — converting a
// larger float is undefined.
func parseMagnitude(s string, unit time.Duration) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errors.New("not a finite number")
	}
	if ns := v * float64(unit); ns < math.MinInt64 || ns >= math.MaxInt64 {
		return 0, fmt.Errorf("%s × %s overflows a duration", s, unit)
	}
	return v, nil
}

// ParseOp parses the textual form of an op, the exact format String
// emits:
//
//	outage:<IXP>
//	latency:<all|city|country|continent>:<deltaMs>
//	churn:<IXP>:<join>:<leave>
//	traffic:<factor>
//	diurnal:<hours>
//	portprice:<factor>
//	remoteprice:<factor>
//
// Magnitudes must be finite, latency deltas and diurnal hours must fit a
// time.Duration, and churn counts must not be negative: a spec that
// could only fail, or silently mis-evaluate, is refused here.
// A latency delta past MaxLatencyShift, or a traffic factor that takes
// the default transit totals to zero or infinity, is refused too, and
// ParseScenario refuses a scenario whose ops add up past those limits
// or whose diurnal shifts add up past a time.Duration.
// Ops built in Go are still checked when they apply.
func ParseOp(s string) (Op, error) {
	op, err := parseOp(s)
	if err != nil {
		return nil, err
	}
	if err := checkAccumulated([]Op{op}); err != nil {
		return nil, err
	}
	return op, nil
}

// parseOp is ParseOp's syntax: the op a spec names, before any check on
// what the op does to a cell.
func parseOp(s string) (Op, error) {
	kind, rest, _ := strings.Cut(strings.TrimSpace(s), ":")
	switch kind {
	case "outage":
		if rest == "" {
			return nil, fmt.Errorf("scenario: outage needs an IXP acronym in %q", s)
		}
		return IXPOutage{IXP: rest}, nil
	case "latency":
		bandStr, msStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("scenario: latency wants latency:<band>:<deltaMs> in %q", s)
		}
		band, err := parseBand(bandStr)
		if err != nil {
			return nil, err
		}
		ms, err := parseMagnitude(msStr, time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad latency delta in %q: %v", s, err)
		}
		return LatencyShift{Band: band, DeltaMs: ms}, nil
	case "churn":
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("scenario: churn wants churn:<IXP>:<join>:<leave> in %q", s)
		}
		join, err1 := strconv.Atoi(parts[1])
		leave, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || join < 0 || leave < 0 {
			return nil, fmt.Errorf("scenario: bad churn counts in %q (want non-negative integers)", s)
		}
		return MemberChurn{IXP: parts[0], Join: join, Leave: leave}, nil
	case "traffic", "diurnal", "portprice", "remoteprice":
		var unit time.Duration
		if kind == "diurnal" {
			unit = time.Hour
		}
		v, err := parseMagnitude(rest, unit)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad %s value in %q: %v", kind, s, err)
		}
		switch kind {
		case "traffic":
			return TrafficScale{Factor: v}, nil
		case "diurnal":
			return DiurnalShift{Hours: v}, nil
		case "portprice":
			return PortPrice{Factor: v}, nil
		default:
			return RemotePrice{Factor: v}, nil
		}
	default:
		return nil, fmt.Errorf("scenario: unknown op kind %q in %q", kind, s)
	}
}

// ParseScenario parses "name=op,op,..."; a spec without '=' names the
// scenario after its op list. It refuses a scenario whose latency shifts
// add up past MaxLatencyShift in a band, whose traffic scales take the
// transit totals to zero or infinity, or whose diurnal shifts add up past
// a time.Duration.
func ParseScenario(spec string) (Scenario, error) {
	spec = strings.TrimSpace(spec)
	name, opsSpec, ok := strings.Cut(spec, "=")
	if !ok {
		name, opsSpec = spec, spec
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return Scenario{}, fmt.Errorf("scenario: empty scenario name in %q", spec)
	}
	var ops []Op
	for _, part := range strings.Split(opsSpec, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		op, err := ParseOp(part)
		if err != nil {
			return Scenario{}, err
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return Scenario{}, fmt.Errorf("scenario: no ops in %q", spec)
	}
	if err := checkAccumulated(ops); err != nil {
		return Scenario{}, fmt.Errorf("%w (in %q)", err, spec)
	}
	return Scenario{Name: name, Ops: ops}, nil
}

// checkAccumulated folds a scenario's latency, traffic and diurnal ops
// onto an unperturbed cell state, the way a grid cell will apply them, so
// a scenario whose ops are each in range but add up past what the
// pipeline can evaluate is refused at parse time with apply's own error.
// The other ops change nothing these three read. The serve tier parses
// every what-if query, cache hits included, so the state stays on the
// stack: the ops are applied through their concrete types.
func checkAccumulated(ops []Op) error {
	var w worldgen.World
	st := state{World: &w}
	for _, op := range ops {
		var err error
		switch o := op.(type) {
		case LatencyShift:
			err = o.apply(&st)
		case TrafficScale:
			err = o.apply(&st)
		case DiurnalShift:
			err = o.apply(&st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ParseGrid parses a ';'-separated list of scenario specs into a grid
// (seeds are left for the caller to fill in).
func ParseGrid(spec string) (Grid, error) {
	var g Grid
	for _, part := range strings.Split(spec, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		s, err := ParseScenario(part)
		if err != nil {
			return Grid{}, err
		}
		g.Scenarios = append(g.Scenarios, s)
	}
	if len(g.Scenarios) == 0 {
		return Grid{}, fmt.Errorf("scenario: empty grid spec %q", spec)
	}
	return g, nil
}

// OpsString renders an op list in the codec's textual form.
func OpsString(ops []Op) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, ",")
}
