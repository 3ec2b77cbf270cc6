// Package core implements the paper's primary contribution: the ping-based
// detector of remote peering at IXPs (Section 3.1). The detector consumes
// the raw looking-glass observations and the public registry view, applies
// the six data-hygiene filters in the paper's order — sample-size,
// TTL-switch, TTL-match, RTT-consistent, LG-consistent, ASN-change — and
// classifies each surviving ("analyzed") interface by its minimum RTT
// against the 10 ms remoteness threshold, with the Figure 3 distance bands
// ([10,20) intercity, [20,50) intercountry, ≥50 ms intercontinental).
//
// The filters are deliberately conservative: the paper optimises for
// avoiding false positives when estimating the spread of remote peering,
// accepting false negatives (e.g. remote peers closer than the threshold
// horizon) as the price.
package core

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"remotepeering/internal/geo"
	"remotepeering/internal/lg"
	"remotepeering/internal/registry"
	"remotepeering/internal/topo"
)

// Filter identifies one of the six data-hygiene filters.
type Filter int

// Filters in the paper's application order. FilterNone marks an interface
// that survived all six and entered the analyzed set.
const (
	FilterNone Filter = iota
	FilterSampleSize
	FilterTTLSwitch
	FilterTTLMatch
	FilterRTTConsistent
	FilterLGConsistent
	FilterASNChange
)

// String implements fmt.Stringer.
func (f Filter) String() string {
	switch f {
	case FilterNone:
		return "analyzed"
	case FilterSampleSize:
		return "sample-size"
	case FilterTTLSwitch:
		return "ttl-switch"
	case FilterTTLMatch:
		return "ttl-match"
	case FilterRTTConsistent:
		return "rtt-consistent"
	case FilterLGConsistent:
		return "lg-consistent"
	case FilterASNChange:
		return "asn-change"
	default:
		return fmt.Sprintf("Filter(%d)", int(f))
	}
}

// AllFilters lists the six filters in application order.
var AllFilters = []Filter{
	FilterSampleSize, FilterTTLSwitch, FilterTTLMatch,
	FilterRTTConsistent, FilterLGConsistent, FilterASNChange,
}

// Config holds the methodology parameters. The zero value is replaced by
// the paper's published settings.
type Config struct {
	// RemoteThreshold is the minimum-RTT remoteness threshold (10 ms).
	RemoteThreshold time.Duration
	// MinRepliesPerLG is the sample-size filter's floor (8 replies per
	// probing LG server).
	MinRepliesPerLG int
	// MinConsistentReplies is the RTT-consistent filter's floor (4
	// replies within the consistency window).
	MinConsistentReplies int
	// ConsistencyAbs and ConsistencyFrac define the window
	// max(ConsistencyAbs, ConsistencyFrac·minRTT) used by both the
	// RTT-consistent and LG-consistent filters (5 ms / 10%).
	ConsistencyAbs  time.Duration
	ConsistencyFrac float64
	// AcceptedTTLs are the expected initial TTL values (64, 255).
	AcceptedTTLs []uint8
	// Disabled switches off individual filters, for the ablation study.
	Disabled map[Filter]bool
}

func (c Config) withDefaults() Config {
	if c.RemoteThreshold == 0 {
		c.RemoteThreshold = 10 * time.Millisecond
	}
	if c.MinRepliesPerLG == 0 {
		c.MinRepliesPerLG = 8
	}
	if c.MinConsistentReplies == 0 {
		c.MinConsistentReplies = 4
	}
	if c.ConsistencyAbs == 0 {
		c.ConsistencyAbs = 5 * time.Millisecond
	}
	if c.ConsistencyFrac == 0 {
		c.ConsistencyFrac = 0.10
	}
	if len(c.AcceptedTTLs) == 0 {
		c.AcceptedTTLs = []uint8{64, 255}
	}
	return c
}

// Equal reports whether two configurations judge every interface
// identically: equal once defaults are applied, with Disabled compared on
// the filters it actually switches off.
func (c Config) Equal(o Config) bool {
	c, o = c.withDefaults(), o.withDefaults()
	if c.RemoteThreshold != o.RemoteThreshold || c.MinRepliesPerLG != o.MinRepliesPerLG ||
		c.MinConsistentReplies != o.MinConsistentReplies || c.ConsistencyAbs != o.ConsistencyAbs ||
		c.ConsistencyFrac != o.ConsistencyFrac || !slices.Equal(c.AcceptedTTLs, o.AcceptedTTLs) {
		return false
	}
	for _, f := range AllFilters {
		if c.Disabled[f] != o.Disabled[f] {
			return false
		}
	}
	return true
}

// window returns the consistency window around a minimum RTT.
func (c Config) window(min time.Duration) time.Duration {
	frac := time.Duration(c.ConsistencyFrac * float64(min))
	if frac > c.ConsistencyAbs {
		return frac
	}
	return c.ConsistencyAbs
}

// InterfaceResult is the detector's verdict on one probed interface.
type InterfaceResult struct {
	IXPIndex int
	Acronym  string
	IP       netip.Addr
	// Replies is the number of echo replies received (all LGs pooled).
	Replies int
	// Discard names the filter that removed the interface, or FilterNone
	// if it is analyzed.
	Discard Filter
	// MinRTT is the minimum observed RTT (analyzed interfaces only).
	MinRTT time.Duration
	// Class is the Figure 3 distance class of MinRTT.
	Class geo.DistanceClass
	// Remote reports MinRTT ≥ the remoteness threshold.
	Remote bool
	// ASN is the registry identification; Identified is false when public
	// data cannot name the owner.
	ASN        topo.ASN
	Identified bool
}

// Report is the detector's full output.
type Report struct {
	Cfg Config
	// Interfaces holds every probed interface's verdict, ordered by IXP
	// and address.
	Interfaces []InterfaceResult
	// Discards counts interfaces removed by each filter.
	Discards map[Filter]int
}

// Analyze runs the detection pipeline over a campaign's observations.
//
// The detector reads observations in canonical order (lg.Compare), where
// each interface's observations form one contiguous run and each LG
// family's a contiguous sub-run, and judges every run in place. Input in
// any other order is analyzed through a sorted copy; the caller's slice
// is never reordered. An interface's Acronym is its first observation's
// in canonical order.
func Analyze(obs []lg.Observation, reg *registry.Registry, campaign time.Duration, cfg Config) (*Report, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if campaign <= 0 {
		return nil, fmt.Errorf("core: non-positive campaign duration %v", campaign)
	}
	cfg = cfg.withDefaults()
	runs, canonical := countRuns(obs)
	if !canonical {
		obs = slices.Clone(obs)
		lg.Sort(obs)
		runs, _ = countRuns(obs)
	}
	verdicts := make([]InterfaceResult, 0, runs)
	for lo := 0; lo < len(obs); {
		hi := lo + 1
		for hi < len(obs) && sameInterface(&obs[lo], &obs[hi]) {
			hi++
		}
		verdicts = append(verdicts, cfg.judge(obs[lo:hi], reg))
		lo = hi
	}
	return newReport(cfg, verdicts), nil
}

// NewReport assembles a Report from verdicts judged under cfg, given as
// consecutive segments already in canonical order (IXP, then address) —
// how a campaign assembles its per-IXP verdicts, each IXP judged in its
// own pass or spliced from an earlier run. A verdict reads only its own
// interface's observations and its (IXP, address) registry entry, so
// verdicts judged in separate passes assemble into exactly the Report
// one pass over all their observations would produce.
func NewReport(cfg Config, segments ...[]InterfaceResult) *Report {
	n := 0
	for _, seg := range segments {
		n += len(seg)
	}
	verdicts := make([]InterfaceResult, 0, n)
	for _, seg := range segments {
		verdicts = append(verdicts, seg...)
	}
	return newReport(cfg.withDefaults(), verdicts)
}

// newReport wraps verdicts, which it keeps, and counts the discards.
func newReport(cfg Config, verdicts []InterfaceResult) *Report {
	rep := &Report{Cfg: cfg, Interfaces: verdicts, Discards: make(map[Filter]int)}
	for _, v := range verdicts {
		if v.Discard != FilterNone {
			rep.Discards[v.Discard]++
		}
	}
	return rep
}

// countRuns counts the interface runs in obs and reports whether obs is
// in canonical order, comparing each adjacent pair once. The count is
// meaningful only for canonical input.
func countRuns(obs []lg.Observation) (runs int, canonical bool) {
	runs = 1
	for i := 1; i < len(obs); i++ {
		a, b := &obs[i-1], &obs[i]
		if lg.Compare(a, b) > 0 {
			return 0, false
		}
		if !sameInterface(a, b) {
			runs++
		}
	}
	return runs, true
}

// sameInterface reports whether two observations probed the same IXP
// interface.
func sameInterface(a, b *lg.Observation) bool {
	return a.IXPIndex == b.IXPIndex && a.Target == b.Target
}

// runStats summarizes one interface's run of observations: everything the
// six filters and the classification read, gathered without copying a
// reply.
type runStats struct {
	// fewestReplies is the smallest reply count of any LG family that
	// probed the interface, and replied counts the families with at
	// least one reply.
	fewestReplies, replied int
	// lo and hi are the lowest and highest per-family minimum RTTs; lo
	// is also the pooled minimum.
	lo, hi time.Duration
	// replies counts the pooled replies.
	replies int
	// ttlSwitch reports replies carrying more than one TTL, and badTTL a
	// reply TTL outside the accepted set.
	ttlSwitch, badTTL bool
	// consistent counts the replies within the consistency window above
	// lo.
	consistent int
}

// summarize walks one interface's run, family sub-run by family sub-run.
func (c Config) summarize(run []lg.Observation) runStats {
	var st runStats
	var ttl uint8
	for lo := 0; lo < len(run); {
		hi := lo
		n := 0
		var famMin time.Duration
		for ; hi < len(run) && run[hi].Family == run[lo].Family; hi++ {
			o := &run[hi]
			if o.TimedOut {
				continue
			}
			if n == 0 || o.RTT < famMin {
				famMin = o.RTT
			}
			if st.replies == 0 {
				ttl = o.TTL
			} else if o.TTL != ttl {
				st.ttlSwitch = true
			}
			if !c.acceptedTTL(o.TTL) {
				st.badTTL = true
			}
			n++
			st.replies++
		}
		if lo == 0 || n < st.fewestReplies {
			st.fewestReplies = n
		}
		if n > 0 {
			if st.replied == 0 || famMin < st.lo {
				st.lo = famMin
			}
			if st.replied == 0 || famMin > st.hi {
				st.hi = famMin
			}
			st.replied++
		}
		lo = hi
	}
	if st.replies == 0 {
		return st
	}
	limit := st.lo + c.window(st.lo)
	for i := range run {
		if !run[i].TimedOut && run[i].RTT <= limit {
			st.consistent++
		}
	}
	return st
}

func (c Config) acceptedTTL(ttl uint8) bool {
	return slices.Contains(c.AcceptedTTLs, ttl)
}

// judge applies the six filters, in the paper's order, to one
// interface's run of observations and classifies a survivor.
func (c Config) judge(run []lg.Observation, reg *registry.Registry) InterfaceResult {
	first := run[0]
	st := c.summarize(run)
	res := InterfaceResult{
		IXPIndex: first.IXPIndex,
		Acronym:  first.Acronym,
		IP:       first.Target,
		Replies:  st.replies,
	}

	// Identification (used by the ASN-change filter and the network
	// analyses): registry lookups at campaign start and end.
	asnEarly, okEarly := reg.LookupASN(first.IXPIndex, first.Target, 0)
	asnLate, okLate := reg.LookupASN(first.IXPIndex, first.Target, 1)
	if okEarly {
		res.ASN = asnEarly
		res.Identified = true
	}

	enabled := func(f Filter) bool { return !c.Disabled[f] }
	res.Discard = func() Filter {
		// 1. Sample-size: every probing LG server must have returned at
		// least MinRepliesPerLG replies. A family whose pings all timed
		// out still probed.
		if enabled(FilterSampleSize) && st.fewestReplies < c.MinRepliesPerLG {
			return FilterSampleSize
		}
		// 2. TTL-switch: the reply TTL must not change during the
		// measurement period.
		if enabled(FilterTTLSwitch) && st.ttlSwitch {
			return FilterTTLSwitch
		}
		// 3. TTL-match: the reply TTL must be one of the expected
		// initial values; anything else betrays an extra IP hop or an
		// unusual OS.
		if enabled(FilterTTLMatch) && st.badTTL {
			return FilterTTLMatch
		}
		// 4. RTT-consistent: at least MinConsistentReplies of the
		// collected replies must sit within the window above the minimum
		// RTT.
		if enabled(FilterRTTConsistent) && st.consistent < c.MinConsistentReplies {
			return FilterRTTConsistent
		}
		// 5. LG-consistent: when both LG families probed the interface,
		// their per-family minimum RTTs must agree within the window. A
		// family whose pings all timed out has no minimum to compare.
		if enabled(FilterLGConsistent) && st.replied >= 2 && st.hi > st.lo+c.window(st.lo) {
			return FilterLGConsistent
		}
		// 6. ASN-change: the registry identification must be stable
		// across the campaign.
		if enabled(FilterASNChange) && okEarly && okLate && asnEarly != asnLate {
			return FilterASNChange
		}
		return FilterNone
	}()

	if res.Discard == FilterNone {
		if st.replies == 0 {
			// No replies at all and the sample-size filter was disabled:
			// treat as a sample-size discard regardless, since there is
			// nothing to classify.
			res.Discard = FilterSampleSize
		} else {
			res.MinRTT = st.lo
			res.Class = geo.ClassifyRTT(st.lo)
			res.Remote = st.lo >= c.RemoteThreshold
		}
	}
	return res
}
