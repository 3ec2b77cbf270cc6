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
	// nil means all 22.
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

// ixpRecord is one IXP's share of a campaign: its verdicts (a cap == len
// sub-slice of Report.Interfaces, contiguous because the IXP index leads
// the canonical order), its observation count, and its ground-truth table
// (target IP → remoteness) — the one piece of the discrete-event
// simulation that outlives it.
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
	ixps := slices.Clone(opts.IXPs)
	if len(ixps) == 0 {
		ixps = make([]int, w.NumStudied())
		for i := range ixps {
			ixps[i] = i
		}
	}
	slices.Sort(ixps)
	for i := 1; i < len(ixps); i++ {
		if ixps[i] == ixps[i-1] {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateIXP, ixps[i])
		}
	}
	campaignCfg := effectiveCampaign(w, opts.Campaign)
	if err := campaignCfg.Validate(); err != nil {
		return nil, fmt.Errorf("spread: %w", err)
	}
	var from *Result
	clean := func(int) bool { return false }
	if r := opts.Reuse; r != nil && r.From != nil {
		from = r.From
		if !(CampaignKey{Seed: opts.Seed, Campaign: campaignCfg, Detector: opts.Detector}).sameRun(from) {
			return nil, fmt.Errorf("spread: Reuse.From ran under a different seed, campaign or detector")
		}
		clean = func(idx int) bool { return r.Dirty == nil || !r.Dirty(idx) }
	}

	// The IXP simulations are mutually independent — separate fabrics,
	// nodes, and event queues — so each runs in its own engine. Its RNG
	// streams are split from the seed by labels naming the IXP index
	// (Split is pure), so every IXP sees the same streams regardless of
	// worker count, scheduling, or which other IXPs are spliced.
	src := stats.NewSource(opts.Seed)
	type ixpRun struct {
		rec     ixpRecord
		obs     []lg.Observation
		spliced bool
	}
	runs, err := parallel.MapErrCtx(ctx, opts.Workers, len(ixps), func(k int) (ixpRun, error) {
		idx := ixps[k]
		if rec, ok := from.record(idx); ok && clean(idx) {
			return ixpRun{rec: rec, spliced: true}, nil
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
		// Canonicalise each stream inside its own worker: the canonical
		// order's leading key is the IXP index, so per-IXP sorts
		// concatenated in ascending IXP order are exactly the sequence
		// one global sort would produce.
		obs := camp.Raw()
		lg.Sort(obs)
		return ixpRun{rec: ixpRecord{obs: len(obs), truth: sim.TruthMap()}, obs: obs}, nil
	})
	if err != nil {
		return nil, err
	}

	// Merge and judge only the simulated streams. Build the registry
	// between allocating the merged stream and filling it: at paper scale
	// a full merge is ~27 MB, about the GC's whole trigger-to-goal runway,
	// so it can start a cycle with the heap at its goal; allocating the
	// registry's maps here makes this goroutine help mark first, before
	// the long copy, which shortens the stall on concurrent requests.
	total, observations := 0, 0
	for _, r := range runs {
		total += len(r.obs)
		observations += r.rec.obs
	}
	if observations == 0 {
		return nil, fmt.Errorf("spread: detector: core: no observations")
	}
	raw := make([]lg.Observation, 0, total)
	var fresh map[int][]core.InterfaceResult
	if total > 0 {
		reg := registry.FromWorld(w)
		for _, r := range runs {
			raw = append(raw, r.obs...)
		}
		rep, err := core.Analyze(raw, reg, campaignCfg.Duration, opts.Detector)
		if err != nil {
			return nil, fmt.Errorf("spread: detector: %w", err)
		}
		fresh = byIXP(rep.Interfaces)
	}
	segments := make([][]core.InterfaceResult, len(runs))
	for k, r := range runs {
		segments[k] = fresh[ixps[k]]
		if r.spliced {
			segments[k] = r.rec.verdicts
		}
	}
	report := core.NewReport(opts.Detector, segments...)
	ranges := byIXP(report.Interfaces)
	recs := make(map[int]ixpRecord, len(ixps))
	for k, r := range runs {
		r.rec.verdicts = ranges[ixps[k]]
		recs[ixps[k]] = r.rec
	}
	truth := truthFunc(recs)
	return &Result{
		Report:       report,
		Observations: observations,
		Validation:   report.Validate(truth),
		Raw:          raw,
		Truth:        truth,
		Campaign:     campaignCfg,
		Detector:     opts.Detector,
		Seed:         opts.Seed,
		ixps:         recs,
	}, nil
}

// byIXP splits verdicts in canonical order into per-IXP ranges, each a
// cap == len sub-slice so an append cannot overwrite the next IXP's.
func byIXP(verdicts []core.InterfaceResult) map[int][]core.InterfaceResult {
	out := make(map[int][]core.InterfaceResult)
	for lo := 0; lo < len(verdicts); {
		hi := lo + 1
		for hi < len(verdicts) && verdicts[hi].IXPIndex == verdicts[lo].IXPIndex {
			hi++
		}
		out[verdicts[lo].IXPIndex] = verdicts[lo:hi:hi]
		lo = hi
	}
	return out
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
// The detector re-runs over the raw stream against the world's registry
// view — both pure functions of their inputs — so the rehydrated Report,
// Validation, and Observations are byte-identical to the live Result's,
// and the per-IXP records it derives make it a valid splice source for
// Options.Reuse.
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
	seen := make(map[int]bool, len(ixps))
	for lo := 0; lo < len(raw); {
		idx := raw[lo].IXPIndex
		hi := lo + 1
		for hi < len(raw) && raw[hi].IXPIndex == idx {
			hi++
		}
		if seen[idx] {
			return nil, fmt.Errorf("spread: raw stream not in canonical order (IXP %d segments split)", idx)
		}
		seen[idx] = true
		rec := recs[idx]
		rec.obs = hi - lo
		recs[idx] = rec
		lo = hi
	}
	report, err := core.Analyze(raw, registry.FromWorld(w), campaign.Duration, detector)
	if err != nil {
		return nil, fmt.Errorf("spread: rehydrate detector: %w", err)
	}
	for idx, verdicts := range byIXP(report.Interfaces) {
		rec := recs[idx]
		rec.verdicts = verdicts
		recs[idx] = rec
	}
	truth := truthFunc(recs)
	return &Result{
		Report:       report,
		Observations: len(raw),
		Validation:   report.Validate(truth),
		Raw:          raw,
		Truth:        truth,
		Campaign:     campaign,
		Detector:     detector,
		Seed:         seed,
		ixps:         recs,
	}, nil
}
