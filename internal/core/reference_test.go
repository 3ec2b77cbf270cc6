package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"remotepeering/internal/geo"
	"remotepeering/internal/lg"
	"remotepeering/internal/registry"
)

// analyzeRef is the detector as it was before Analyze learned to walk
// canonical runs in place: it groups replies into per-interface,
// per-family slices through a map. It is kept verbatim as the reference
// that TestAnalyzeMatchesReference holds Analyze to.
func analyzeRef(obs []lg.Observation, reg *registry.Registry, campaign time.Duration, cfg Config) (*Report, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if campaign <= 0 {
		return nil, fmt.Errorf("core: non-positive campaign duration %v", campaign)
	}
	cfg = cfg.withDefaults()

	type ifaceKey struct {
		ixp int
		ip  netip.Addr
	}
	type ifaceObs struct {
		acronym  string
		families map[string][]lg.Observation // replies only, per LG family
		replies  int
	}
	groups := make(map[ifaceKey]*ifaceObs)
	var order []ifaceKey
	for _, o := range obs {
		k := ifaceKey{o.IXPIndex, o.Target}
		g, ok := groups[k]
		if !ok {
			g = &ifaceObs{acronym: o.Acronym, families: make(map[string][]lg.Observation)}
			groups[k] = g
			order = append(order, k)
		}
		if _, seen := g.families[o.Family]; !seen {
			g.families[o.Family] = nil
		}
		if !o.TimedOut {
			g.families[o.Family] = append(g.families[o.Family], o)
			g.replies++
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].ixp != order[j].ixp {
			return order[i].ixp < order[j].ixp
		}
		return order[i].ip.Less(order[j].ip)
	})

	rep := &Report{Cfg: cfg, Discards: make(map[Filter]int)}
	accepted := func(ttl uint8) bool {
		for _, t := range cfg.AcceptedTTLs {
			if ttl == t {
				return true
			}
		}
		return false
	}
	enabled := func(f Filter) bool { return !cfg.Disabled[f] }

	for _, k := range order {
		g := groups[k]
		res := InterfaceResult{
			IXPIndex: k.ixp,
			Acronym:  g.acronym,
			IP:       k.ip,
			Replies:  g.replies,
		}

		// Identification (used by the ASN-change filter and the network
		// analyses): registry lookups at campaign start and end.
		asnEarly, okEarly := reg.LookupASN(k.ixp, k.ip, 0)
		asnLate, okLate := reg.LookupASN(k.ixp, k.ip, 1)
		if okEarly {
			res.ASN = asnEarly
			res.Identified = true
		}

		res.Discard = func() Filter {
			// 1. Sample-size: every probing LG server must have returned
			// at least MinRepliesPerLG replies.
			if enabled(FilterSampleSize) {
				for _, replies := range g.families {
					if len(replies) < cfg.MinRepliesPerLG {
						return FilterSampleSize
					}
				}
			}

			// 2. TTL-switch: the reply TTL must not change during the
			// measurement period.
			ttls := map[uint8]bool{}
			for _, replies := range g.families {
				for _, o := range replies {
					ttls[o.TTL] = true
				}
			}
			if enabled(FilterTTLSwitch) && len(ttls) > 1 {
				return FilterTTLSwitch
			}

			// 3. TTL-match: the reply TTL must be one of the expected
			// initial values; anything else betrays an extra IP hop or
			// an unusual OS.
			if enabled(FilterTTLMatch) {
				for t := range ttls {
					if !accepted(t) {
						return FilterTTLMatch
					}
				}
			}

			// 4. RTT-consistent: at least MinConsistentReplies of the
			// collected replies must sit within the window above the
			// minimum RTT.
			min, consistent := minAndWithin(g.families, cfg)
			if enabled(FilterRTTConsistent) && consistent < cfg.MinConsistentReplies {
				return FilterRTTConsistent
			}
			_ = min

			// 5. LG-consistent: when both LG families probed the
			// interface, their per-family minimum RTTs must agree within
			// the window.
			if enabled(FilterLGConsistent) && len(g.families) >= 2 {
				var mins []time.Duration
				for _, replies := range g.families {
					if m, ok := minRTT(replies); ok {
						mins = append(mins, m)
					}
				}
				if len(mins) >= 2 {
					lo, hi := mins[0], mins[0]
					for _, m := range mins[1:] {
						if m < lo {
							lo = m
						}
						if m > hi {
							hi = m
						}
					}
					if hi > lo+cfg.window(lo) {
						return FilterLGConsistent
					}
				}
			}

			// 6. ASN-change: the registry identification must be stable
			// across the campaign.
			if enabled(FilterASNChange) && okEarly && okLate && asnEarly != asnLate {
				return FilterASNChange
			}
			return FilterNone
		}()

		if res.Discard == FilterNone {
			var all []lg.Observation
			for _, replies := range g.families {
				all = append(all, replies...)
			}
			m, ok := minRTT(all)
			if !ok {
				// No replies at all and the sample-size filter was
				// disabled: treat as a sample-size discard regardless,
				// since there is nothing to classify.
				res.Discard = FilterSampleSize
			} else {
				res.MinRTT = m
				res.Class = geo.ClassifyRTT(m)
				res.Remote = m >= cfg.RemoteThreshold
			}
		}
		if res.Discard != FilterNone {
			rep.Discards[res.Discard]++
		}
		rep.Interfaces = append(rep.Interfaces, res)
	}
	return rep, nil
}

// minRTT returns the minimum RTT among replies.
func minRTT(replies []lg.Observation) (time.Duration, bool) {
	if len(replies) == 0 {
		return 0, false
	}
	m := replies[0].RTT
	for _, o := range replies[1:] {
		if o.RTT < m {
			m = o.RTT
		}
	}
	return m, true
}

// minAndWithin returns the pooled minimum RTT and the number of replies
// within the consistency window above it.
func minAndWithin(families map[string][]lg.Observation, cfg Config) (time.Duration, int) {
	var min time.Duration
	first := true
	for _, replies := range families {
		for _, o := range replies {
			if first || o.RTT < min {
				min = o.RTT
				first = false
			}
		}
	}
	if first {
		return 0, 0
	}
	limit := min + cfg.window(min)
	n := 0
	for _, replies := range families {
		for _, o := range replies {
			if o.RTT <= limit {
				n++
			}
		}
	}
	return min, n
}
