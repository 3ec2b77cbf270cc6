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
	"errors"
	"fmt"
	"net/netip"
	"slices"
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

// Typed failures of Run and of the Result methods.
var (
	// ErrDuplicateIXP rejects a selection that names an IXP twice: it
	// would measure one exchange twice on identical streams.
	ErrDuplicateIXP = errors.New("spread: IXP selected twice")
	// ErrPartialRaw rejects re-analyzing or persisting a Result whose Raw
	// holds only the IXPs its run simulated: a run through Reuse splices
	// the clean IXPs' verdicts, not their observations.
	ErrPartialRaw = errors.New("spread: Raw holds only the re-simulated IXPs' observations")
)

// Options controls Run.
type Options struct {
	// Seed drives the measurement-side randomness (noise, scheduling);
	// it is independent of the world's seed.
	Seed int64
	// IXPs selects studied-IXP indices to measure, each at most once;
	// nil means every studied IXP. A dark IXP (no registry-listed probe
	// targets left, as after an outage) is skipped, and a selection whose
	// every IXP is dark is an error: Run measures exactly the IXPs of
	// NewCampaignKey over its options.
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
	// Reuse, when set, lets Run skip IXPs whose inputs are unchanged
	// since a prior campaign and splice that campaign's detector verdicts,
	// observation counts and ground truth for them instead. See Reuse for
	// the caller's obligations.
	Reuse *Reuse
	// Retain is a no-op, kept so existing callers compile: every Result
	// records what a later Run splices.
	Retain bool
}

// Reuse points Run at a prior Result whose per-IXP verdicts may be
// spliced into a new campaign. The prior campaign must have run under the
// same seed, campaign and detector configuration (Run checks), and the
// caller asserts that for every IXP the Dirty predicate clears, the
// world's IXP-scoped state (members, interface records, inter-site
// layout) and global physics (pseudowire delay shifts) are unchanged.
// Each IXP simulates in its own engine with RNG streams keyed by (seed,
// IXP index) alone, so an unchanged IXP reproduces its observation stream
// byte-for-byte; and the detector judges an interface from its own
// observations and its (IXP, address) registry entry, which is built
// from that IXP's interface records alone — so an unchanged IXP's
// verdicts are byte-identical too, and splicing them is a pure cost
// optimisation, pinned by the reuse-equivalence tests. A Result
// rehydrated from a snapshot (Rehydrate) is a valid From.
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
	// Raw holds the ping outcomes this run simulated, in canonical order,
	// so callers can re-run the detector under alternative configurations
	// (threshold sweeps, filter ablations) without repeating the
	// campaign. A run without Reuse simulates every IXP, so its Raw holds
	// all Observations; a run through Reuse holds only the re-simulated
	// IXPs' (Reanalyze and the snapshot encoder refuse it, ErrPartialRaw).
	// When the run simulated one IXP, Raw is that IXP's campaign buffer
	// itself; when it simulated more, their streams concatenated once in
	// IXP order; when it simulated none, nil.
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

	// ixps records, for every measured (or spliced) IXP, what a later
	// Run splices in its place.
	ixps map[int]ixpRecord
}

// ixpRecord is one IXP's share of a campaign: its verdicts, its
// observation count, and its ground-truth table (target IP → remoteness)
// — the one piece of the discrete-event simulation that outlives it. The
// worker that simulated the IXP judges it; newResult then makes verdicts
// the IXP's range of Report.Interfaces, a cap == len sub-slice.
type ixpRecord struct {
	verdicts []core.InterfaceResult
	obs      int
	truth    map[netip.Addr]bool
}

// measured returns the studied-IXP indices the campaign measured,
// ascending.
func (r *Result) measured() []int {
	out := make([]int, 0, len(r.ixps))
	for idx := range r.ixps {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// Reanalyze re-runs the detector over the campaign's raw observations with
// a different configuration — the ablation entry point.
func (r *Result) Reanalyze(w *worldgen.World, cfg core.Config) (*core.Report, error) {
	if len(r.Raw) != r.Observations {
		return nil, ErrPartialRaw
	}
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
	key, err := NewCampaignKey(w, opts.Seed, opts.Campaign, opts.Detector, opts.IXPs)
	if err != nil {
		return nil, err
	}
	ixps, campaignCfg := key.IXPs, key.Campaign
	if err := campaignCfg.Validate(); err != nil {
		return nil, fmt.Errorf("spread: %w", err)
	}
	var from *Result
	clean := func(int) bool { return false }
	if r := opts.Reuse; r != nil && r.From != nil {
		from = r.From
		if !key.sameRun(from) {
			return nil, fmt.Errorf("spread: Reuse.From ran under a different seed, campaign or detector")
		}
		clean = func(idx int) bool { return r.Dirty == nil || !r.Dirty(idx) }
	}

	// The IXP simulations are mutually independent — separate fabrics,
	// nodes, and event queues — so each runs in its own engine. Its RNG
	// streams are split from the seed by labels naming the IXP index
	// (Split is pure), so every IXP sees the same streams regardless of
	// worker count, scheduling, or which other IXPs are spliced. Each
	// worker judges the stream it simulated: a verdict reads only its own
	// interface's observations and its (IXP, address) registry entry.
	src := stats.NewSource(opts.Seed)
	type ixpRun struct {
		rec ixpRecord
		obs []lg.Observation
	}
	runs, err := parallel.MapErrCtx(ctx, opts.Workers, len(ixps), func(k int) (ixpRun, error) {
		idx := ixps[k]
		if rec, ok := from.record(idx); ok && clean(idx) {
			return ixpRun{rec: rec}, nil
		}
		var e netsim.Engine
		camp := lg.NewCampaign(campaignCfg)
		sim, err := ixpsim.Build(&e, w, idx, campaignCfg.Duration, src.Split(fmt.Sprintf("ixp-%d", idx)))
		if err != nil {
			return ixpRun{}, fmt.Errorf("spread: build IXP %d: %w", idx, err)
		}
		if err := camp.Schedule(&e, sim, src.Split(fmt.Sprintf("campaign-%d", idx))); err != nil {
			return ixpRun{}, fmt.Errorf("spread: schedule IXP %d: %w", idx, err)
		}
		e.Run()
		obs := camp.Observations()
		verdicts, err := judge(w, idx, obs, campaignCfg.Duration, opts.Detector)
		if err != nil {
			return ixpRun{}, fmt.Errorf("spread: detector: IXP %d: %w", idx, err)
		}
		return ixpRun{rec: ixpRecord{verdicts: verdicts, obs: len(obs), truth: sim.TruthMap()}, obs: obs}, nil
	})
	if err != nil {
		return nil, err
	}

	// Raw is the simulated streams in IXP order: the one stream itself
	// when one IXP was simulated, one concatenation when more were.
	recs := make(map[int]ixpRecord, len(ixps))
	var streams [][]lg.Observation
	for k, r := range runs {
		recs[ixps[k]] = r.rec
		if len(r.obs) > 0 {
			streams = append(streams, r.obs)
		}
	}
	var raw []lg.Observation
	if len(streams) == 1 {
		raw = streams[0]
	} else {
		raw = slices.Concat(streams...)
	}
	return newResult(recs, raw, opts.Seed, campaignCfg, opts.Detector)
}

// judge runs the detector over one IXP's observations against that IXP's
// registry entries.
func judge(w *worldgen.World, idx int, obs []lg.Observation, campaign time.Duration, detector core.Config) ([]core.InterfaceResult, error) {
	rep, err := core.Analyze(obs, registry.ForIXP(w, idx), campaign, detector)
	if err != nil {
		return nil, err
	}
	return rep.Interfaces, nil
}

// newResult builds the Result of a fresh, spliced or rehydrated campaign
// from its per-IXP records. The Report holds their verdicts in ascending
// IXP order, and each record's verdicts become its range of the Report, a
// cap == len sub-slice so an append cannot overwrite the next IXP's.
func newResult(recs map[int]ixpRecord, raw []lg.Observation, seed int64, campaign lg.Config, detector core.Config) (*Result, error) {
	r := &Result{Raw: raw, Campaign: campaign, Detector: detector, Seed: seed, ixps: recs}
	order := r.measured()
	segments := make([][]core.InterfaceResult, len(order))
	for k, idx := range order {
		segments[k] = recs[idx].verdicts
		r.Observations += recs[idx].obs
	}
	if r.Observations == 0 {
		return nil, fmt.Errorf("spread: detector: core: no observations")
	}
	r.Report = core.NewReport(detector, segments...)
	lo := 0
	for _, idx := range order {
		rec := recs[idx]
		hi := lo + len(rec.verdicts)
		rec.verdicts = r.Report.Interfaces[lo:hi:hi]
		recs[idx] = rec
		lo = hi
	}
	r.Truth = truthFunc(recs)
	r.Validation = r.Report.Validate(r.Truth)
	return r, nil
}

// record returns the IXP's record, if r (which may be nil) measured it.
func (r *Result) record(idx int) (ixpRecord, bool) {
	if r == nil {
		return ixpRecord{}, false
	}
	rec, ok := r.ixps[idx]
	return rec, ok
}

// truthFunc wraps per-IXP ground-truth tables as a Result.Truth closure.
func truthFunc(recs map[int]ixpRecord) func(int, netip.Addr) bool {
	return func(ixpIndex int, ip netip.Addr) bool {
		return recs[ixpIndex].truth[ip]
	}
}

// RemoteTruth extracts the campaign's ground truth in persistable form:
// for every simulated (or spliced) studied-IXP index, the sorted list of
// probe-target addresses that are remote, plus the sorted list of indices
// themselves — including IXPs with no remote targets, so rehydration
// restores exactly the same key set.
func (r *Result) RemoteTruth() (ixps []int, remote [][]netip.Addr) {
	ixps = r.measured()
	remote = make([][]netip.Addr, len(ixps))
	for k, idx := range ixps {
		var ips []netip.Addr
		for ip, isRemote := range r.ixps[idx].truth {
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
// The detector re-runs over each IXP's segment of the raw stream against
// that IXP's registry view — both pure functions of their inputs — so the
// rehydrated Report, Validation, and Observations are byte-identical to
// the live Result's, and the per-IXP records it derives make it a valid
// splice source for Options.Reuse. Segments out of ascending IXP order
// are an error.
func Rehydrate(w *worldgen.World, seed int64, campaign lg.Config, detector core.Config, raw []lg.Observation, ixps []int, remote [][]netip.Addr) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("spread: nil world")
	}
	if len(ixps) != len(remote) {
		return nil, fmt.Errorf("spread: truth table mismatch: %d IXPs, %d remote sets", len(ixps), len(remote))
	}
	recs := make(map[int]ixpRecord, len(ixps))
	for k, idx := range ixps {
		m := make(map[netip.Addr]bool, len(remote[k]))
		for _, ip := range remote[k] {
			m[ip] = true
		}
		recs[idx] = ixpRecord{truth: m}
	}
	for lo := 0; lo < len(raw); {
		idx := raw[lo].IXPIndex
		hi := lo + 1
		for hi < len(raw) && raw[hi].IXPIndex == idx {
			hi++
		}
		if lo > 0 && idx < raw[lo-1].IXPIndex {
			return nil, fmt.Errorf("spread: raw stream not in canonical order (IXP %d after IXP %d)", idx, raw[lo-1].IXPIndex)
		}
		verdicts, err := judge(w, idx, raw[lo:hi], campaign.Duration, detector)
		if err != nil {
			return nil, fmt.Errorf("spread: rehydrate detector: IXP %d: %w", idx, err)
		}
		rec := recs[idx]
		rec.verdicts, rec.obs = verdicts, hi-lo
		recs[idx] = rec
		lo = hi
	}
	return newResult(recs, raw, seed, campaign, detector)
}
