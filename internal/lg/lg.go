// Package lg drives the measurement campaign of Section 3.1: looking-glass
// servers at the studied IXPs ping the registry-listed member interfaces.
// It reproduces the paper's probing discipline — HTML queries to PCH
// servers trigger 5 pings each and RIPE NCC servers 3, at most one query
// per minute per server, with the rounds spread over the four-month
// campaign at different times of day and days of the week (the defence
// against transient congestion).
//
// A campaign is born in canonical order (Compare). Schedule fixes each
// ping's slot in the observation buffer, and the engine's ping sink
// writes the result into it, so no stream is sorted, merged or copied on
// the way to the detector. Nor is a per-ping plan written: each LG
// server's rounds are one netsim.Sweep, which computes a ping's send
// time, target and slot from its round's start and its target's position
// when the engine reaches it.
package lg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"remotepeering/internal/ixpsim"
	"remotepeering/internal/netsim"
	"remotepeering/internal/stats"
)

// Observation is one ping outcome as seen from an LG server: the raw
// material of the paper's detector.
type Observation struct {
	IXPIndex int
	Acronym  string
	Family   string // ixpsim.FamilyPCH or ixpsim.FamilyRIPE
	Target   netip.Addr
	SentAt   time.Duration
	RTT      time.Duration
	TTL      uint8
	TimedOut bool
}

// Config parameterises the campaign. The zero value is replaced by the
// paper's regime.
type Config struct {
	// Duration of the campaign. Default 120 days (October 2013 to
	// January 2014).
	Duration time.Duration
	// PCHRounds and RIPERounds are the number of query rounds per target
	// per LG family. The paper observed at most 54 replies from PCH
	// (≈ 11 queries × 5 pings) and at most 21 from RIPE NCC (7 × 3).
	PCHRounds  int
	RIPERounds int
	// PingsPerQueryPCH and PingsPerQueryRIPE are the pings one HTML query
	// triggers (5 and 3 in the paper).
	PingsPerQueryPCH  int
	PingsPerQueryRIPE int
	// QuerySpacing is the per-server rate limit (1 minute in the paper).
	QuerySpacing time.Duration
	// PingTimeout bounds how long a reply is awaited.
	PingTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 120 * 24 * time.Hour
	}
	if c.PCHRounds == 0 {
		c.PCHRounds = 11
	}
	if c.RIPERounds == 0 {
		c.RIPERounds = 7
	}
	if c.PingsPerQueryPCH == 0 {
		c.PingsPerQueryPCH = 5
	}
	if c.PingsPerQueryRIPE == 0 {
		c.PingsPerQueryRIPE = 3
	}
	if c.QuerySpacing == 0 {
		c.QuerySpacing = time.Minute
	}
	if c.PingTimeout == 0 {
		c.PingTimeout = 5 * time.Second
	}
	return c
}

// ErrBadConfig rejects a campaign configuration Schedule cannot run.
var ErrBadConfig = errors.New("lg: bad campaign configuration")

// Typed failures of Schedule besides ErrBadConfig: inputs for which
// some ping would have no canonical slot of its own.
var (
	// ErrDuplicateTarget rejects an IXP listing one address twice.
	ErrDuplicateTarget = errors.New("lg: probe target listed twice")
	// ErrDuplicateFamily rejects an IXP with two LG servers of one family.
	ErrDuplicateFamily = errors.New("lg: two LG servers of one family")
	// ErrIXPOrder rejects an IXP index not above the one scheduled before.
	ErrIXPOrder = errors.New("lg: IXPs scheduled out of order")
	// ErrTooManyPings rejects a campaign past math.MaxInt32 pings, the
	// range of a ping's tag.
	ErrTooManyPings = errors.New("lg: more than math.MaxInt32 pings")
)

// MaxDays is the longest campaign, in whole days, whose Duration a
// time.Duration can hold.
const MaxDays = int(math.MaxInt64 / int64(24*time.Hour))

// Validate reports whether the configuration, after defaults, is a
// campaign Schedule can run: no count or duration negative, each LG
// family's rounds at least 2 ns apart so a round's start can be jittered,
// and half a round's span at least a query's (pings−1)·1 s, so one
// target's consecutive rounds never interleave (a regime that would also
// break the one query per minute per server). Errors wrap ErrBadConfig.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Duration < 0 || c.PCHRounds < 0 || c.RIPERounds < 0 || c.PingsPerQueryPCH < 0 ||
		c.PingsPerQueryRIPE < 0 || c.QuerySpacing < 0 || c.PingTimeout < 0 {
		return fmt.Errorf("%w: negative value in %+v", ErrBadConfig, c)
	}
	if d := c.Duration / 2; d/time.Duration(c.PCHRounds) == 0 || d/time.Duration(c.RIPERounds) == 0 {
		return fmt.Errorf("%w: Duration %v too short for %d PCH and %d RIPE rounds",
			ErrBadConfig, c.Duration, c.PCHRounds, c.RIPERounds)
	}
	for _, family := range []string{ixpsim.FamilyPCH, ixpsim.FamilyRIPE} {
		rounds, pings := c.budget(family)
		if half := c.Duration / time.Duration(rounds) / 2; int64(half/time.Second) < int64(pings-1) {
			return fmt.Errorf("%w: %s rounds %v apart interleave queries of %d pings 1 s apart",
				ErrBadConfig, family, 2*half, pings)
		}
	}
	return nil
}

// budget returns the query rounds per target and the pings per query of
// an LG family.
func (c Config) budget(family string) (rounds, pings int) {
	if family == ixpsim.FamilyRIPE {
		return c.RIPERounds, c.PingsPerQueryRIPE
	}
	return c.PCHRounds, c.PingsPerQueryPCH
}

// Campaign schedules and collects a measurement campaign across a set of
// simulated IXPs sharing one engine. Its observation buffer is in
// canonical order from the start: Schedule assigns every planned ping its
// slot and fills in what the slot records besides the result, and the
// engine's ping sink writes the result into the slot.
type Campaign struct {
	cfg Config
	obs []Observation
	// lastIXP is the IXP index Schedule planned last, -1 before the first.
	lastIXP int
}

// NewCampaign creates a campaign with the given configuration.
func NewCampaign(cfg Config) *Campaign {
	return &Campaign{cfg: cfg.withDefaults(), lastIXP: -1}
}

// Schedule plans all probes for the given simulated IXP on the engine and
// registers the campaign as the engine's ping sink. Call once per IXP, in
// ascending IXP index, then run the engine, then read Observations.
//
// Schedule draws every round's start, server by server, and plans each LG
// server's rounds as one sweep: ping p of round r's query to target ti is
// sent at the round's start + ti × QuerySpacing + p seconds. Its tag is
// its canonical slot: the IXP's block offset, plus its target's rank by
// address × the IXP's stride (Σ rounds × pings over its LG servers), plus
// its server's offset among the servers ordered by family, plus round ×
// pings, plus p. Slot order is exactly Compare's: a (target, family)
// pair's pings are planned in (round, ping) order, and since Validate
// keeps half a round's span at least a query's length and a round's start
// jitter is under half its span, their send times strictly ascend.
//
// Schedule refuses, with a typed error, an invalid configuration
// (ErrBadConfig), an IXP without targets, a target listed twice
// (ErrDuplicateTarget), two LG servers of one family (ErrDuplicateFamily),
// an IXP index not above the previous call's (ErrIXPOrder) and a campaign
// past math.MaxInt32 pings (ErrTooManyPings).
func (c *Campaign) Schedule(e *netsim.Engine, sim *ixpsim.SimIXP, src *stats.Source) error {
	if err := c.cfg.Validate(); err != nil {
		return err
	}
	if len(sim.Targets) == 0 {
		return fmt.Errorf("lg: IXP %s has no probe targets", sim.Acronym)
	}
	if sim.IXPIndex <= c.lastIXP {
		return fmt.Errorf("%w: IXP %d after IXP %d", ErrIXPOrder, sim.IXPIndex, c.lastIXP)
	}
	byAddr := make([]int, len(sim.Targets))
	for i := range byAddr {
		byAddr[i] = i
	}
	slices.SortFunc(byAddr, func(a, b int) int { return sim.Targets[a].Compare(sim.Targets[b]) })
	rank := make([]int, len(sim.Targets))
	for k, ti := range byAddr {
		if k > 0 && sim.Targets[ti] == sim.Targets[byAddr[k-1]] {
			return fmt.Errorf("%w: %v at IXP %s", ErrDuplicateTarget, sim.Targets[ti], sim.Acronym)
		}
		rank[ti] = k
	}
	byFamily := make([]int, len(sim.LGs))
	for i := range byFamily {
		byFamily[i] = i
	}
	slices.SortFunc(byFamily, func(a, b int) int { return cmp.Compare(sim.LGs[a].Family, sim.LGs[b].Family) })
	// A slot is a ping's tag, an int32. Validate keeps rounds × pings
	// under 2^62 + 2^33, so one family's share cannot overflow stride.
	limit := int64(math.MaxInt32) - int64(len(c.obs))
	offset := make([]int, len(sim.LGs))
	stride := int64(0)
	for k, i := range byFamily {
		family := sim.LGs[i].Family
		if k > 0 && family == sim.LGs[byFamily[k-1]].Family {
			return fmt.Errorf("%w: %s at IXP %s", ErrDuplicateFamily, family, sim.Acronym)
		}
		rounds, pings := c.cfg.budget(family)
		offset[i] = int(stride)
		if stride += int64(rounds) * int64(pings); stride > limit {
			return fmt.Errorf("%w: %d pings per target at IXP %s", ErrTooManyPings, stride, sim.Acronym)
		}
	}
	if stride > limit/int64(len(sim.Targets)) {
		return fmt.Errorf("%w: %d targets × %d pings at IXP %s", ErrTooManyPings, len(sim.Targets), stride, sim.Acronym)
	}
	c.lastIXP = sim.IXPIndex
	// Every planned ping completes exactly once, reply or timeout, so the
	// schedule fixes the buffer's size: grow it once, exactly, and fill in
	// what each slot records besides the result, in slot order.
	base, planned := len(c.obs), int(stride)*len(sim.Targets)
	c.obs = append(make([]Observation, 0, base+planned), c.obs...)
	for _, ti := range byAddr {
		for _, i := range byFamily {
			rounds, pings := c.cfg.budget(sim.LGs[i].Family)
			o := Observation{IXPIndex: sim.IXPIndex, Acronym: sim.Acronym, Family: sim.LGs[i].Family, Target: sim.Targets[ti]}
			for range rounds * pings {
				c.obs = append(c.obs, o)
			}
		}
	}
	e.OnPing(c.collect)
	for i, server := range sim.LGs {
		rounds, pings := c.cfg.budget(server.Family)
		roundSpan := c.cfg.Duration / time.Duration(rounds)
		s := &sweep{
			starts:  make([]time.Duration, rounds),
			slot0:   make([]int32, len(sim.Targets)),
			targets: sim.Targets,
			pings:   pings,
			spacing: c.cfg.QuerySpacing,
		}
		for r := range s.starts {
			// Each round starts at a different time of day and day of
			// week: its span's start + jitter inside the span's first half.
			s.starts[r] = time.Duration(r)*roundSpan + time.Duration(src.Int63n(int64(roundSpan/2)))
		}
		for ti := range s.slot0 {
			s.slot0[ti] = int32(base + rank[ti]*int(stride) + offset[i])
		}
		e.PlanSweep(server.Node, c.cfg.PingTimeout, s)
	}
	return nil
}

// sweep is one LG server's rounds as a netsim.Sweep. Ping k is ping p of
// round r's query to target ti, k = (r × len(targets) + ti) × pings + p:
// the server's planning order, round by round. One LG query is
// `pings` echo requests one second apart, and the server queries its
// targets QuerySpacing apart.
type sweep struct {
	starts  []time.Duration // round r's start
	slot0   []int32         // target ti's slot for round 0, ping 0
	targets []netip.Addr
	pings   int
	spacing time.Duration
}

func (s *sweep) Len() int { return len(s.starts) * len(s.targets) * s.pings }

func (s *sweep) Ping(k int) (time.Duration, netip.Addr, int32) {
	q, p := k/s.pings, k%s.pings
	r, ti := q/len(s.targets), q%len(s.targets)
	at := s.starts[r] + time.Duration(ti)*s.spacing + time.Duration(p)*time.Second
	return at, s.targets[ti], s.slot0[ti] + int32(r*s.pings+p)
}

// collect is the engine's ping sink: it writes the result into the
// ping's slot.
func (c *Campaign) collect(r netsim.PingResult) {
	o := &c.obs[r.Tag]
	o.SentAt, o.RTT, o.TTL, o.TimedOut = r.SentAt, r.RTT, r.TTL, r.TimedOut
}

// Observations returns the campaign's observation buffer, in canonical
// order (Compare) by construction. After the engine has run, every slot
// holds its ping's outcome.
func (c *Campaign) Observations() []Observation { return c.obs }

// Compare orders observations canonically: by IXP index, then target
// address, then LG family, then send time. It is the one definition of
// the canonical order; Sort orders by it and the detector checks its
// input against it. It takes pointers so that neither caller copies two
// 88-byte observations per comparison.
func Compare(a, b *Observation) int {
	if a.IXPIndex != b.IXPIndex {
		return cmp.Compare(a.IXPIndex, b.IXPIndex)
	}
	if a.Target != b.Target {
		return a.Target.Compare(b.Target)
	}
	if a.Family != b.Family {
		return cmp.Compare(a.Family, b.Family)
	}
	return cmp.Compare(a.SentAt, b.SentAt)
}

// Sort puts observations in canonical order (Compare), keeping ties in
// their input order. A Campaign's buffer is canonical by construction;
// Sort is for foreign input, such as a hand-built stream or one read
// back out of order, which core.Analyze sorts a copy of.
//
// Sort orders 4-byte indices rather than moving 88-byte observations
// through a stable merge sort. The index is the last key, which makes the
// order strict and total, so an unstable sort of the indices yields
// exactly the stable order; the permutation is then applied in place.
// Sort panics beyond math.MaxInt32 observations, which no campaign nears.
func Sort(obs []Observation) {
	if len(obs) > math.MaxInt32 {
		panic("lg: Sort of more than math.MaxInt32 observations")
	}
	perm := make([]int32, len(obs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		if c := Compare(&obs[i], &obs[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	// perm[k] names the observation that belongs at position k. Walk
	// each cycle once, marking a filled position with perm[k] = k.
	for start := range perm {
		if int(perm[start]) == start {
			continue
		}
		held := obs[start]
		k := start
		for {
			next := int(perm[k])
			perm[k] = int32(k)
			if next == start {
				obs[k] = held
				break
			}
			obs[k] = obs[next]
			k = next
		}
	}
}

// Config returns the effective configuration.
func (c *Campaign) Config() Config { return c.cfg }
