// Package lg drives the measurement campaign of Section 3.1: looking-glass
// servers at the studied IXPs ping the registry-listed member interfaces.
// It reproduces the paper's probing discipline — HTML queries to PCH
// servers trigger 5 pings each and RIPE NCC servers 3, at most one query
// per minute per server, with the rounds spread over the four-month
// campaign at different times of day and days of the week (the defence
// against transient congestion).
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

// MaxDays is the longest campaign, in whole days, whose Duration a
// time.Duration can hold.
const MaxDays = int(math.MaxInt64 / int64(24*time.Hour))

// Validate reports whether the configuration, after defaults, is a
// campaign Schedule can run: no count or duration negative, and each LG
// family's rounds at least 2 ns apart so a round's start can be jittered.
// Errors wrap ErrBadConfig.
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
// simulated IXPs sharing one engine.
type Campaign struct {
	cfg Config
	obs []Observation
	// scheduled counts the pings Schedule has planned, collected or not.
	scheduled int
	// sources labels the LG servers Schedule has planned pings from; a
	// ping's tag indexes it.
	sources []source
}

// source is one LG server's share of the campaign: what its observations
// record besides the ping result.
type source struct {
	ixp             int
	acronym, family string
}

// NewCampaign creates a campaign with the given configuration.
func NewCampaign(cfg Config) *Campaign {
	return &Campaign{cfg: cfg.withDefaults()}
}

// Schedule plans all probes for the given simulated IXP on the engine and
// registers the campaign as the engine's ping sink. Call once per IXP,
// then run the engine, then read Observations.
func (c *Campaign) Schedule(e *netsim.Engine, sim *ixpsim.SimIXP, src *stats.Source) error {
	if len(sim.Targets) == 0 {
		return fmt.Errorf("lg: IXP %s has no probe targets", sim.Acronym)
	}
	// Every planned ping completes exactly once, reply or timeout, so
	// the schedule fixes how many observations the engine will deliver:
	// size the plan and the buffer for all of them now rather than
	// growing them by doubling.
	planned := 0
	for _, server := range sim.LGs {
		rounds, pings := c.cfg.budget(server.Family)
		planned += rounds * len(sim.Targets) * pings
	}
	c.scheduled += planned
	if c.scheduled > cap(c.obs) {
		c.obs = append(make([]Observation, 0, c.scheduled), c.obs...)
	}
	e.ReservePings(planned)
	e.OnPing(c.collect)
	for _, server := range sim.LGs {
		tag := int32(len(c.sources))
		c.sources = append(c.sources, source{ixp: sim.IXPIndex, acronym: sim.Acronym, family: server.Family})
		rounds, pings := c.cfg.budget(server.Family)
		roundSpan := c.cfg.Duration / time.Duration(rounds)
		for r := 0; r < rounds; r++ {
			// Each round starts at a different time of day and day of
			// week: base + jitter inside the first half of the span.
			base := time.Duration(r) * roundSpan
			jitter := time.Duration(src.Int63n(int64(roundSpan / 2)))
			roundStart := base + jitter
			for ti, target := range sim.Targets {
				// One LG query: `pings` echo requests one second apart.
				qAt := roundStart + time.Duration(ti)*c.cfg.QuerySpacing
				for p := 0; p < pings; p++ {
					server.Node.Ping(qAt+time.Duration(p)*time.Second, target, c.cfg.PingTimeout, tag)
				}
			}
		}
	}
	return nil
}

// collect is the engine's ping sink.
func (c *Campaign) collect(r netsim.PingResult) {
	s := &c.sources[r.Tag]
	c.obs = append(c.obs, Observation{
		IXPIndex: s.ixp,
		Acronym:  s.acronym,
		Family:   s.family,
		Target:   r.Target,
		SentAt:   r.SentAt,
		RTT:      r.RTT,
		TTL:      r.TTL,
		TimedOut: r.TimedOut,
	})
}

// Observations returns everything collected so far, sorted by IXP, target,
// family, and send time so downstream processing is deterministic.
func (c *Campaign) Observations() []Observation {
	Sort(c.obs)
	return c.obs
}

// Raw returns the collected observations in engine execution order,
// unsorted — for callers that merge several campaigns' streams and sort
// the concatenation once instead of paying a sort per campaign.
func (c *Campaign) Raw() []Observation { return c.obs }

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
// their input order. All four-way key ties originate from a single IXP's
// engine, whose execution order is deterministic; this is what lets a
// parallel campaign merge per-IXP observation streams into a
// byte-identical result for any worker count.
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
