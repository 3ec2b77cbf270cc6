// Package spread orchestrates the Section 3 measurement campaign: it
// builds the simulated IXPs, schedules and runs the four-month
// looking-glass study, derives the public registry view, and runs the
// six-filter detector. The facade's RunSpreadStudy delegates here, and the
// scenario engine re-runs the same pipeline over perturbed worlds — both
// callers share one implementation, so a baseline scenario cell reproduces
// the facade's Table 1 byte-for-byte.
package spread

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/ixpsim"
	"remotepeering/internal/lg"
	"remotepeering/internal/netsim"
	"remotepeering/internal/parallel"
	"remotepeering/internal/registry"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

// Options controls Run.
type Options struct {
	// Seed drives the measurement-side randomness (noise, scheduling);
	// it is independent of the world's seed.
	Seed int64
	// IXPs selects studied-IXP indices to measure; nil means all 22.
	IXPs []int
	// Workers bounds the number of IXP simulations run concurrently
	// (0 = one per CPU). Results are byte-identical for every value: each
	// IXP runs in its own discrete-event engine with RNG streams derived
	// from Seed and the IXP index alone.
	Workers int
	// Campaign overrides the probing regime (zero value = the paper's).
	Campaign lg.Config
	// Detector overrides the methodology parameters (zero value = the
	// paper's: 10 ms threshold, 8 replies per LG, 4-reply consistency,
	// 5 ms / 10% windows, TTLs {64, 255}).
	Detector core.Config
	// Reuse, when set, lets Run skip the discrete-event simulation of
	// IXPs whose inputs are unchanged since a prior campaign and splice
	// that campaign's raw per-IXP observation streams in instead. The
	// detector always re-runs over the merged observations (its registry
	// view is global, so a membership change anywhere can move
	// cross-IXP aggregates). See Reuse for the caller's obligations.
	Reuse *Reuse
	// Retain records the per-IXP observation segments on the Result so a
	// later Run can splice them through Reuse. The segments are
	// sub-slices of Raw, so retaining them costs one map entry per IXP.
	Retain bool
}

// Reuse points Run at a prior Result whose per-IXP observation streams
// may be spliced into a new campaign. The caller asserts that for every
// IXP the Dirty predicate clears, the simulation inputs are identical to
// From's: same measurement seed, same campaign config, and a world whose
// IXP-scoped state (members, interface records, inter-site layout) and
// global physics (pseudowire delay shifts) are unchanged. Because each
// IXP simulates in its own engine with RNG streams keyed by (seed, IXP
// index) alone, an unchanged IXP reproduces its observation stream
// byte-for-byte — splicing is a pure cost optimisation, pinned by the
// scenario engine's reuse-equivalence tests. A Result rehydrated from a
// snapshot (Rehydrate) is a valid From under the same obligations.
type Reuse struct {
	// From is the prior campaign.
	From *Result
	// Dirty reports whether the IXP with the given studied index must be
	// re-simulated. A nil predicate marks every IXP clean.
	Dirty func(ixpIndex int) bool
}

// Result bundles the outcome of a Section 3 measurement campaign.
type Result struct {
	// Report is the detector output: Table 1 rows, Figure 2 CDF,
	// Figure 3 classification, Figure 4 network aggregation.
	Report *core.Report
	// Observations is the number of ping outcomes collected.
	Observations int
	// Validation scores the detector against the simulator's ground
	// truth — the reproduction's analogue of the paper's TorIX/E4A/
	// Invitel validation, but exhaustive.
	Validation core.Validation
	// Raw holds the collected ping outcomes, so callers can re-run the
	// detector under alternative configurations (threshold sweeps,
	// filter ablations) without repeating the campaign.
	Raw []lg.Observation
	// Truth reports the ground-truth remoteness of a probed interface.
	Truth func(ixpIndex int, ip netip.Addr) bool
	// Campaign is the effective campaign configuration.
	Campaign lg.Config
	// Detector is the detector configuration the observations were
	// analyzed under, and Seed the measurement seed the campaign ran
	// with — recorded so persistence layers can both re-run the same
	// analysis byte-identically and answer "does this stored campaign
	// satisfy that query?".
	Detector core.Config
	Seed     int64

	// perIXP maps each simulated (or spliced) IXP to its segment of Raw
	// (only when Options.Retain was set) so a later Run can splice clean
	// IXPs through Options.Reuse. truth holds each IXP's ground-truth
	// table (target IP → remoteness) — the one piece of the discrete-event
	// simulation that outlives it, always retained: Validate, Reuse, and
	// snapshot persistence all read remoteness through it.
	perIXP map[int][]lg.Observation
	truth  map[int]map[netip.Addr]bool
}

// Reanalyze re-runs the detector over the campaign's raw observations with
// a different configuration — the ablation entry point.
func (r *Result) Reanalyze(w *worldgen.World, cfg core.Config) (*core.Report, error) {
	return core.Analyze(r.Raw, registry.FromWorld(w), r.Campaign.Duration, cfg)
}

// Run reproduces Section 3 over the given world.
func Run(w *worldgen.World, opts Options) (*Result, error) {
	return RunCtx(context.Background(), w, opts)
}

// RunCtx is Run with cooperative cancellation at per-IXP granularity:
// once ctx is done, no further IXP simulation starts and the call returns
// ctx.Err(). The scenario engine passes its cell context here so an
// abandoned what-if stops inside the campaign — the pipeline's longest
// stage — rather than running all studied IXPs to completion.
func RunCtx(ctx context.Context, w *worldgen.World, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w == nil {
		return nil, fmt.Errorf("spread: nil world")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("spread: negative Workers %d (use 0 for one per CPU)", opts.Workers)
	}
	ixps := opts.IXPs
	if len(ixps) == 0 {
		ixps = make([]int, w.NumStudied())
		for i := range ixps {
			ixps[i] = i
		}
	}
	campaignCfg := opts.Campaign
	if campaignCfg.Duration == 0 {
		campaignCfg.Duration = time.Duration(w.CampaignDuration()) * 24 * time.Hour
	}

	// The IXP simulations are mutually independent — separate fabrics,
	// nodes, and event queues — so each runs in its own engine and the
	// per-IXP observation streams merge afterwards. The RNG sources are
	// split serially up front, labelled by IXP index (the same labels the
	// serial implementation used), so every IXP sees the same streams
	// regardless of worker count or scheduling: the merged, sorted result
	// is byte-identical to a single-threaded run.
	src := stats.NewSource(opts.Seed)
	simSrcs := make([]*stats.Source, len(ixps))
	campSrcs := make([]*stats.Source, len(ixps))
	for k, idx := range ixps {
		simSrcs[k] = src.Split(fmt.Sprintf("ixp-%d", idx))
		campSrcs[k] = src.Split(fmt.Sprintf("campaign-%d", idx))
	}

	type ixpRun struct {
		truth map[netip.Addr]bool
		obs   []lg.Observation
	}
	runs, err := parallel.MapErrCtx(ctx, opts.Workers, len(ixps), func(k int) (ixpRun, error) {
		idx := ixps[k]
		if r := opts.Reuse; r != nil && r.From != nil && (r.Dirty == nil || !r.Dirty(idx)) {
			if obs, ok := r.From.perIXP[idx]; ok {
				// Unchanged IXP: splice the prior campaign's raw stream
				// (and its ground-truth table) instead of re-running the
				// discrete-event simulation.
				return ixpRun{truth: r.From.truth[idx], obs: obs}, nil
			}
		}
		var e netsim.Engine
		camp := lg.NewCampaign(campaignCfg)
		sim, err := ixpsim.Build(&e, w, idx, campaignCfg.Duration, simSrcs[k])
		if err != nil {
			return ixpRun{}, fmt.Errorf("spread: build IXP %d: %w", idx, err)
		}
		if err := camp.Schedule(&e, sim, campSrcs[k]); err != nil {
			return ixpRun{}, fmt.Errorf("spread: schedule IXP %d: %w", idx, err)
		}
		if err := e.Run(); err != nil {
			return ixpRun{}, fmt.Errorf("spread: campaign IXP %d: %w", idx, err)
		}
		// Canonicalise each stream inside its own worker: the merge below
		// concatenates segments in ascending IXP order, and because the
		// canonical sort's leading key is the IXP index, per-segment
		// stable sorts compose into exactly the sequence one global
		// stable sort would produce — cheaper (smaller sorts, in
		// parallel), and spliced streams arrive pre-sorted for free.
		obs := camp.Raw()
		lg.Sort(obs)
		return ixpRun{truth: sim.TruthMap(), obs: obs}, nil
	})
	if err != nil {
		return nil, err
	}

	truths := make(map[int]map[netip.Addr]bool, len(ixps))
	total := 0
	for k, r := range runs {
		truths[ixps[k]] = r.truth
		total += len(r.obs)
	}
	order := make([]int, len(ixps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ixps[order[a]] < ixps[order[b]] })
	dup := false
	for i := 1; i < len(order); i++ {
		if ixps[order[i]] == ixps[order[i-1]] {
			dup = true
		}
	}
	var perIXP map[int][]lg.Observation
	if opts.Retain && !dup {
		perIXP = make(map[int][]lg.Observation, len(ixps))
	}
	obs := make([]lg.Observation, 0, total)
	// Build the registry between allocating the merged stream and filling
	// it. At paper scale that allocation is ~27 MB, about the GC's whole
	// trigger-to-goal runway, so it can start a cycle with the heap at its
	// goal; every goroutine that allocates must then help mark until the
	// cycle ends. Allocating the registry's maps here makes this goroutine
	// help first, before the long copy, which shortens the cycle and the
	// stall it puts on concurrent requests.
	reg := registry.FromWorld(w)
	for _, k := range order {
		lo := len(obs)
		obs = append(obs, runs[k].obs...)
		if perIXP != nil {
			perIXP[ixps[k]] = obs[lo:len(obs):len(obs)]
		}
	}
	if dup {
		// A duplicated IXP selection interleaves segments under the
		// canonical order; fall back to the global sort. It retains no
		// segments, so a later Reuse re-simulates those IXPs.
		lg.Sort(obs)
	}
	report, err := core.Analyze(obs, reg, campaignCfg.Duration, opts.Detector)
	if err != nil {
		return nil, fmt.Errorf("spread: detector: %w", err)
	}
	truth := truthFunc(truths)
	return &Result{
		Report:       report,
		Observations: len(obs),
		Validation:   report.Validate(truth),
		Raw:          obs,
		Truth:        truth,
		Campaign:     campaignCfg,
		Detector:     opts.Detector,
		Seed:         opts.Seed,
		perIXP:       perIXP,
		truth:        truths,
	}, nil
}

// truthFunc wraps per-IXP ground-truth tables as a Result.Truth closure.
func truthFunc(truths map[int]map[netip.Addr]bool) func(int, netip.Addr) bool {
	return func(ixpIndex int, ip netip.Addr) bool {
		return truths[ixpIndex][ip]
	}
}

// RemoteTruth extracts the campaign's ground truth in persistable form:
// for every simulated (or spliced) studied-IXP index, the sorted list of
// probe-target addresses that are remote, plus the sorted list of indices
// themselves — including IXPs with no remote targets, so rehydration
// restores exactly the same key set.
func (r *Result) RemoteTruth() (ixps []int, remote [][]netip.Addr) {
	ixps = make([]int, 0, len(r.truth))
	for idx := range r.truth {
		ixps = append(ixps, idx)
	}
	sort.Ints(ixps)
	remote = make([][]netip.Addr, len(ixps))
	for k, idx := range ixps {
		var ips []netip.Addr
		for ip, isRemote := range r.truth[idx] {
			if isRemote {
				ips = append(ips, ip)
			}
		}
		sort.Slice(ips, func(a, b int) bool { return ips[a].Less(ips[b]) })
		remote[k] = ips
	}
	return ixps, remote
}

// Rehydrate reconstructs a campaign Result from its persisted parts: the
// canonical raw observation stream, the effective campaign and detector
// configurations, and the per-IXP remote-truth sets from RemoteTruth.
// The detector re-runs over the raw stream against the world's registry
// view — both pure functions of their inputs — so the rehydrated Report,
// Validation, and Observations are byte-identical to the live Result's.
// Per-IXP segments are recovered by splitting the canonical stream on its
// leading sort key, which makes a rehydrated Result a valid splice source
// for Options.Reuse.
func Rehydrate(w *worldgen.World, seed int64, campaign lg.Config, detector core.Config, raw []lg.Observation, ixps []int, remote [][]netip.Addr) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("spread: nil world")
	}
	if len(ixps) != len(remote) {
		return nil, fmt.Errorf("spread: truth table mismatch: %d IXPs, %d remote sets", len(ixps), len(remote))
	}
	truths := make(map[int]map[netip.Addr]bool, len(ixps))
	for k, idx := range ixps {
		m := make(map[netip.Addr]bool, len(remote[k]))
		for _, ip := range remote[k] {
			m[ip] = true
		}
		truths[idx] = m
	}
	perIXP := make(map[int][]lg.Observation, len(ixps))
	lo := 0
	for lo < len(raw) {
		hi := lo + 1
		for hi < len(raw) && raw[hi].IXPIndex == raw[lo].IXPIndex {
			hi++
		}
		if _, ok := perIXP[raw[lo].IXPIndex]; ok {
			return nil, fmt.Errorf("spread: raw stream not in canonical order (IXP %d segments split)", raw[lo].IXPIndex)
		}
		perIXP[raw[lo].IXPIndex] = raw[lo:hi:hi]
		lo = hi
	}
	report, err := core.Analyze(raw, registry.FromWorld(w), campaign.Duration, detector)
	if err != nil {
		return nil, fmt.Errorf("spread: rehydrate detector: %w", err)
	}
	truth := truthFunc(truths)
	return &Result{
		Report:       report,
		Observations: len(raw),
		Validation:   report.Validate(truth),
		Raw:          raw,
		Truth:        truth,
		Campaign:     campaign,
		Detector:     detector,
		Seed:         seed,
		perIXP:       perIXP,
		truth:        truths,
	}, nil
}
