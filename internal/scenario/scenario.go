package scenario

import (
	"context"
	"errors"
	"fmt"

	"remotepeering/internal/core"
	"remotepeering/internal/econ"
	"remotepeering/internal/fault"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/offload"
	"remotepeering/internal/parallel"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

// Scenario is one named what-if: a composition of perturbation ops applied
// in order to the cell's state (a fresh clone of the world when an op
// rewrites it).
type Scenario struct {
	Name string
	Ops  []Op
}

// Grid is a scenario×seed campaign matrix. Every scenario runs once per
// seed offset; the runner prepends its own unperturbed baseline cell
// (offset 0), which every cell is diffed against.
type Grid struct {
	Scenarios []Scenario
	// Seeds are measurement/traffic seed offsets (cell seeds are the
	// options' base seeds plus the offset). Empty means {0}.
	Seeds []int64
}

// Cells returns the number of cells the grid expands to, including the
// baseline.
func (g Grid) Cells() int {
	seeds := len(g.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	return 1 + len(g.Scenarios)*seeds
}

// Options tunes a grid run.
type Options struct {
	// MeasureSeed and TrafficSeed are the baseline pipeline seeds; grid
	// seed offsets are added to both. With the same seeds, the baseline
	// cell reproduces RunSpreadStudy/CollectTraffic numbers exactly.
	MeasureSeed int64
	TrafficSeed int64
	// Workers bounds how many cells run concurrently (0 = one per CPU).
	// Each cell's inner pipeline runs serially — the parallelism axis is
	// the grid — and results are byte-identical for every value: cell
	// RNG streams are keyed by scenario index and seed offset alone.
	Workers int
	// Campaign and Detector override the spread study's regime per cell
	// (zero values = the paper's).
	Campaign lg.Config
	Detector core.Config
	// IXPs restricts the spread study to a subset of studied-IXP indices
	// (nil = all 22). Dark IXPs are always skipped.
	IXPs []int
	// Intervals bounds the traffic month (0 = the full 8064 samples).
	Intervals int
	// CoverageIXPs is the k of the offload-coverage metric: the greedy
	// expansion's offloaded share after k exchanges (default 5).
	CoverageIXPs int
	// GreedyIXPs is the expansion depth the decay parameter b is fitted
	// from (default 30, the paper's Figure 9 x-axis).
	GreedyIXPs int
	// Econ is the base Section 5 price vector (zero value = the
	// reference parameterisation); price ops rescale it per cell.
	Econ econ.Params
	// NoReuse forces every cell through the full rerun pipeline, ignoring
	// the ops' dirty-stage masks. The report is byte-identical either way
	// — the flag exists for the equivalence tests that prove it, and as an
	// escape hatch.
	NoReuse bool
	// Cones, when set, shares customer-cone tables with the caller — the
	// long-lived query service passes each world residency's in-memory
	// cache here so successive grid runs over the same world stop
	// recomputing cones, and the tick engine passes its own to every
	// EvalEvolved. When nil, Run uses a private per-run cache, which still
	// serves every cell of the run. Cone contents are a pure function of
	// the graph, so sharing changes only cost, never results; a cache
	// bound to a different graph is ignored by the offload layer, and
	// NoReuse ignores it.
	Cones *offload.ConeCache
	// Baseline is the world view's holder, through which the baseline
	// cell gets its campaign, traffic dataset and offload read-out: the
	// held ones when their recorded inputs equal this run's exactly, and
	// otherwise computed and held. Scenario cells and ticks do not use
	// it. Like Cones it carries artifacts, not a setting — the report is
	// byte-identical either way, nil included. NoReuse ignores it.
	Baseline *Baseline
	// Faults is the injectable fault plane (nil in production): it can
	// panic an evaluation goroutine mid-cell, which each cell's
	// Faults.Contain turns into an error that fault.Retry retries.
	Faults *fault.Plane
	// FaultKey namespaces this run's fault draws and backoff jitter —
	// the serve tier passes the query digest, so retry timing is a pure
	// function of (query, cell, attempt) and never touches an RNG
	// stream that feeds results.
	FaultKey string
	// CellAttempts is the attempt budget fault.Retry gives each cell (and,
	// through tick.Config.Pipeline, each tick): a recovered panic or an
	// injected transient fault (fault.Transient) is re-evaluated until the
	// budget is spent; 0 means Retry's default of 3. A cell is a pure
	// function of its grid coordinates, so a retry reproduces the exact
	// bytes the crashed attempt would have produced.
	CellAttempts int
}

func (o Options) withDefaults() Options {
	if o.CoverageIXPs <= 0 {
		o.CoverageIXPs = 5
	}
	if o.GreedyIXPs <= 0 {
		o.GreedyIXPs = 30
	}
	if o.Econ.P == 0 {
		o.Econ = econ.DefaultParams(0)
	}
	return o
}

// Metrics are one cell's headline numbers: the Table 1 / Figure 3 detector
// view, the Figure 9 offload view, and the Section 5 verdict.
type Metrics struct {
	// Observations is the campaign's ping-outcome count.
	Observations int
	// AnalyzedIfaces is the interface count surviving the six filters.
	AnalyzedIfaces int
	// DetectedRemote is the Table 1 remote total across IXPs.
	DetectedRemote int
	// BandCounts splits the detected interfaces into the Figure 3 remote
	// classes: 10-20 ms, 20-50 ms, ≥50 ms.
	BandCounts [3]int
	// PotentialPeers is the Section 4.2 candidate count after exclusions.
	PotentialPeers int
	// CoveredNets is the number of networks covered when peering at the
	// greedy-best CoverageIXPs exchanges (group 4).
	CoveredNets int
	// OffloadedFrac is the offloaded share of transit traffic at
	// CoverageIXPs exchanges.
	OffloadedFrac float64
	// FittedB is the decay parameter fitted from the greedy curve.
	FittedB float64
	// Viable is the eq. 14 verdict at the cell's (possibly price-
	// perturbed) parameters with the fitted b.
	Viable bool
}

// Delta is a cell's headline movement against the baseline.
type Delta struct {
	DetectedRemote int
	BandCounts     [3]int
	CoveredNets    int
	OffloadedFrac  float64
	FittedB        float64
	// ViableFlipped marks cells whose economic verdict differs from the
	// baseline's.
	ViableFlipped bool
}

// CellResult is one evaluated grid cell.
type CellResult struct {
	// Scenario is the scenario name ("baseline" for the implicit cell).
	Scenario string
	// Ops is the serialized op list (empty for the baseline).
	Ops string
	// SeedOffset is the grid seed offset the cell ran under.
	SeedOffset int64
	// Metrics are the cell's absolute numbers.
	Metrics Metrics
}

// Diff returns the cell's movement against a baseline.
func (c CellResult) Diff(base Metrics) Delta {
	d := Delta{
		DetectedRemote: c.Metrics.DetectedRemote - base.DetectedRemote,
		CoveredNets:    c.Metrics.CoveredNets - base.CoveredNets,
		OffloadedFrac:  c.Metrics.OffloadedFrac - base.OffloadedFrac,
		FittedB:        c.Metrics.FittedB - base.FittedB,
		ViableFlipped:  c.Metrics.Viable != base.Viable,
	}
	for i := range d.BandCounts {
		d.BandCounts[i] = c.Metrics.BandCounts[i] - base.BandCounts[i]
	}
	return d
}

// Report is a grid run's outcome: the baseline metrics plus every cell in
// grid order (scenarios in declaration order, seed offsets within each).
type Report struct {
	Baseline     Metrics
	Cells        []CellResult
	CoverageIXPs int
	GreedyIXPs   int
	// Held reports which baseline parts came from Options.Baseline instead
	// of being computed. It is not rendered: the report's bytes are the
	// same either way.
	Held HeldParts
}

// HeldParts names the baseline parts a run took from its holder: the
// campaign, the traffic dataset, and the offload read-out (potential
// peers, covered networks, offloaded share and fitted b).
type HeldParts struct {
	Campaign, Traffic, Offload bool
}

// cellSpec pairs a scenario with one seed offset and its RNG stream.
// newSrc re-derives the stream from the root on every call (Split is
// pure), so a retried cell replays identical draws instead of resuming
// a stream the crashed attempt had already advanced.
type cellSpec struct {
	scn    Scenario
	off    int64
	newSrc func() *stats.Source
	base   bool
}

// Run evaluates the grid. Cells fan out across workers through
// internal/parallel with the repo's hard invariant: the report is
// byte-identical at every worker count, because a cell that rewrites the
// world does so on its own clone, every cell's RNG streams derive from the
// scenario index and seed offset alone, and the cell results merge in grid
// order.
func Run(w *worldgen.World, grid Grid, opts Options) (*Report, error) {
	return RunCtx(context.Background(), w, grid, opts)
}

// RunCtx is Run with cooperative cancellation: once ctx is done, no new
// grid cell starts and no new pipeline stage starts inside a running
// cell; the call returns ctx.Err() promptly. The long-lived query service
// passes each HTTP request's context here, so an abandoned what-if stops
// burning grid cells instead of running the campaign to completion. A nil
// error still means every cell ran — cancellation never yields a partial
// report.
func RunCtx(ctx context.Context, w *worldgen.World, grid Grid, opts Options) (*Report, error) {
	ctx, opts, err := enter(ctx, w, opts)
	if err != nil {
		return nil, err
	}

	seeds := grid.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}

	// Expand the matrix: the baseline first, then scenarios × seeds. The
	// per-cell RNG sources split serially here — keyed by scenario index
	// and seed offset, never by worker identity — so an op's random draws
	// are a pure function of the cell's grid coordinates.
	root := stats.NewSource(opts.MeasureSeed).Split("scenario-grid")
	cells := []cellSpec{{scn: Scenario{Name: "baseline"}, off: 0, base: true}}
	for si, s := range grid.Scenarios {
		if s.Name == "" {
			return nil, fmt.Errorf("scenario: scenario %d has no name", si)
		}
		if s.Name == "baseline" {
			return nil, fmt.Errorf("scenario: the name %q is reserved for the implicit unperturbed cell", s.Name)
		}
		for _, off := range seeds {
			cells = append(cells, cellSpec{scn: s, off: off})
		}
	}
	for i := range cells {
		si := -1 // baseline
		if !cells[i].base {
			si = (i - 1) / len(seeds)
		}
		label := fmt.Sprintf("cell-%d-seed-%d", si, cells[i].off)
		cells[i].newSrc = func() *stats.Source { return root.Split(label) }
	}

	// The baseline runs first, alone, with the grid's worker budget fanned
	// into its inner stages (each stage is worker-count-invariant, so this
	// changes wall time, never results). Its artifacts — per-IXP verdicts,
	// dataset, cone cache — are what the scenario cells reuse for every
	// stage their ops leave clean.
	if opts.Cones == nil {
		opts.Cones = offload.NewConeCache()
	}
	base, err := runCell(ctx, w, cells[0], opts, nil, opts.Workers)
	if err != nil {
		return nil, wrapCellErr(ctx, cells[0], err)
	}
	results := make([]Metrics, len(cells))
	results[0] = base.Metrics
	rest, err := parallel.MapErrCtx(ctx, opts.Workers, len(cells)-1, func(i int) (Metrics, error) {
		art, err := runCell(ctx, w, cells[i+1], opts, base, 1)
		if err != nil {
			return Metrics{}, wrapCellErr(ctx, cells[i+1], err)
		}
		return art.Metrics, nil
	})
	if err != nil {
		return nil, err
	}
	copy(results[1:], rest)

	rep := &Report{
		Baseline:     results[0],
		CoverageIXPs: opts.CoverageIXPs,
		GreedyIXPs:   opts.GreedyIXPs,
		Held:         base.held,
	}
	for i, spec := range cells {
		rep.Cells = append(rep.Cells, CellResult{
			Scenario:   spec.scn.Name,
			Ops:        OpsString(spec.scn.Ops),
			SeedOffset: spec.off,
			Metrics:    results[i],
		})
	}
	return rep, nil
}

// enter is the pipeline's entry check, shared by RunCtx and EvalEvolved:
// it refuses a nil or unfrozen world and a negative worker count, and
// returns the context (Background for nil) and the defaulted options.
func enter(ctx context.Context, w *worldgen.World, opts Options) (context.Context, Options, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch {
	case w == nil:
		return nil, opts, fmt.Errorf("scenario: nil world")
	case opts.Workers < 0:
		return nil, opts, fmt.Errorf("scenario: negative Workers %d (use 0 for one per CPU)", opts.Workers)
	case !w.Graph.Frozen():
		return nil, opts, fmt.Errorf("scenario: world graph is not frozen (world not from Generate or topo.Restore?)")
	}
	return ctx, opts.withDefaults(), nil
}

// wrapCellErr labels a cell failure with its grid coordinates; the
// context's own cancellation error passes through bare so callers match
// it directly with errors.Is.
func wrapCellErr(ctx context.Context, spec cellSpec, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
		return err
	}
	return fmt.Errorf("scenario %q (seed offset %d): %w", spec.scn.Name, spec.off, err)
}

// runCell evaluates one cell with crash containment: a panic inside the
// evaluation (injected by the fault plane, or real) is recovered and the
// cell retried with capped exponential backoff, jittered
// deterministically by (fault key, cell, attempt). Because the cell is a
// pure function of its grid coordinates — newSrc replays the same RNG
// stream every attempt — a retried cell's metrics are byte-identical to
// what the crashed attempt would have produced, so fault schedules
// change wall time and nothing else.
func runCell(ctx context.Context, w *worldgen.World, spec cellSpec, opts Options, base *Artifacts, innerWorkers int) (*Artifacts, error) {
	key := fmt.Sprintf("%s|cell|%s|%d", opts.FaultKey, spec.scn.Name, spec.off)
	var art *Artifacts
	err := fault.Retry(ctx, opts.CellAttempts, 0, 0, key, fault.Transient, func(int) error {
		return opts.Faults.Contain(key, func() (err error) {
			art, err = evalCell(ctx, w, spec, opts, base, innerWorkers)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return art, nil
}

// evalCell applies one cell's ops to its state and hands their dirty
// summary to runStages.
func evalCell(ctx context.Context, w *worldgen.World, spec cellSpec, opts Options, base *Artifacts, innerWorkers int) (*Artifacts, error) {
	d := dirtyOf(spec.scn.Ops)
	es := &EvolveState{
		World:   w,
		Traffic: netflow.Config{Seed: opts.TrafficSeed + spec.off, Intervals: opts.Intervals},
		Econ:    opts.Econ,
	}
	// Only ops with dirty simulations (outage, churn, latency) write the
	// world. The baseline, seed-offset and config-only cells read the
	// caller's world, which no stage writes.
	if d.AllSims || len(d.Sims) > 0 {
		es.World = w.Clone()
	}
	if _, err := ApplyOps(es, spec.scn.Ops, spec.newSrc()); err != nil {
		return nil, err
	}
	if spec.off != 0 {
		// Seed offsets re-seed both measured stages.
		opts.MeasureSeed += spec.off
		d.Direct |= StageSpread | StageTraffic
		d.AllSims = true
	}
	var held *Baseline
	if spec.base {
		held = opts.Baseline
	}
	return runStages(ctx, es, d, base, held, opts, innerWorkers)
}

// runStages evaluates the paper pipeline over a perturbed state, re-running
// exactly the stages d marks dirty and reusing base's immutable artifacts
// for the clean ones. Both entry points into the pipeline — evalCell (the
// grid) and EvalEvolved (the tick engine) — feed it, so there is exactly
// one implementation of the stage-reuse contract: a reusing evaluation is
// byte-identical to a full rerun, pinned by the reuse-equivalence suite.
// With base == nil, or NoReuse, every stage runs; NoReuse also keeps the
// run off the holder and the shared cone cache, so the full-rerun
// reference stays independent of every shared artifact. The campaign runs
// under opts' measurement seed, regime and IXPs, and every stage fans out
// to workers; es is only read.
func runStages(ctx context.Context, es *EvolveState, d Dirty, base *Artifacts, held *Baseline, opts Options, workers int) (*Artifacts, error) {
	if base == nil || opts.NoReuse {
		d = Dirty{Direct: StageAll, AllSims: true}
	}
	if opts.NoReuse {
		held, opts.Cones = nil, nil
	}
	mask := d.Stages()

	art := &Artifacts{}
	m := &art.Metrics

	// --- Section 3: the spread campaign ---
	// Stage boundaries are the cell's cancellation points: each stage is
	// seconds of work at paper scale, so an abandoned request stops within
	// one stage rather than one whole cell.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if mask&StageSpread == 0 {
		art.Spread = base.Spread
		m.Observations = base.Metrics.Observations
		m.AnalyzedIfaces = base.Metrics.AnalyzedIfaces
		m.DetectedRemote = base.Metrics.DetectedRemote
		m.BandCounts = base.Metrics.BandCounts
	} else {
		// A dark IXP has nothing to probe: the key's selection holds only
		// the (possibly opts-restricted) studied IXPs that still expose
		// registry-listed targets.
		key, err := spread.NewCampaignKey(es.World, opts.MeasureSeed, opts.Campaign, opts.Detector, opts.IXPs)
		if err != nil {
			return nil, err
		}
		var reuse *spread.Reuse
		if base != nil && !d.AllSims {
			// Membership ops name the exchanges they touched; every other
			// IXP's inputs are identical to the baseline's, so its
			// verdicts are spliced instead of re-measured.
			dirty := make(map[int]bool, len(d.Sims))
			for _, acr := range d.Sims {
				if _, xi, err := es.World.IXPByAcronym(acr); err == nil {
					dirty[xi] = true
				}
			}
			reuse = &spread.Reuse{
				From:  base.Spread,
				Dirty: func(idx int) bool { return dirty[idx] },
			}
		}
		sp, ok, err := held.Campaign(ctx, es.World, key, workers, reuse)
		if err != nil {
			return nil, err
		}
		art.Spread, art.held.Campaign = sp, ok
		spreadMetrics(m, sp)
	}

	// --- Section 4.1: the traffic dataset ---
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if mask&StageTraffic == 0 {
		art.Dataset = base.Dataset
	} else {
		// A traffic op moves the rates, not the flows: the dataset prices
		// base's ranking, which every cell and tick of a view shares
		// because no op rewires the graph. A reseeded cell ranks afresh,
		// and so does the full-rerun reference.
		tcfg := es.Traffic
		tcfg.Workers = workers
		var from *netflow.Dataset
		if base != nil && !opts.NoReuse {
			from = base.Dataset
		}
		ds, ok, err := held.Traffic(es.World, tcfg, from)
		if err != nil {
			return nil, err
		}
		art.Dataset, art.held.Traffic = ds, ok
	}

	// --- Section 4: the offload analysis ---
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if mask&StageOffload == 0 {
		setOffload(m, base.Metrics)
	} else {
		readout, ok, err := held.offload(art.Dataset, opts.CoverageIXPs, opts.GreedyIXPs, func() (Metrics, error) {
			// No op rewires the AS graph, so every cell's customer cones
			// are identical: the baseline seeds the shared cache with the
			// grid's full worker budget and scenario cells hit it.
			study, err := offload.NewStudyOptions(es.World, art.Dataset, offload.Options{Workers: workers, Cones: opts.Cones})
			if err != nil {
				return Metrics{}, err
			}
			x, err := study.Expand(offload.GroupAll, opts.CoverageIXPs, opts.GreedyIXPs)
			if err != nil {
				return Metrics{}, err
			}
			return Metrics{PotentialPeers: study.PotentialPeerCount(), CoveredNets: x.CoveredNets, OffloadedFrac: x.OffloadedFrac, FittedB: x.FittedB}, nil
		})
		if err != nil {
			return nil, err
		}
		setOffload(m, readout)
		art.held.Offload = ok
	}

	// --- Section 5: the economic verdict ---
	if mask&StageEcon == 0 {
		m.Viable = base.Metrics.Viable
	} else {
		params := es.Econ
		params.B = m.FittedB
		m.Viable = params.RemoteViable()
	}
	return art, nil
}

// setOffload copies the offload stage's metrics — the Section 4 read-out —
// from another evaluation's.
func setOffload(m *Metrics, from Metrics) {
	m.PotentialPeers, m.CoveredNets = from.PotentialPeers, from.CoveredNets
	m.OffloadedFrac, m.FittedB = from.OffloadedFrac, from.FittedB
}

// spreadMetrics derives a cell's Section 3 metrics from its campaign,
// whether the cell ran it or took it from a holder.
func spreadMetrics(m *Metrics, sp *spread.Result) {
	m.Observations = sp.Observations
	for _, row := range sp.Report.Table1() {
		m.AnalyzedIfaces += row.Analyzed
		m.DetectedRemote += row.Remote
	}
	for _, row := range sp.Report.Figure3() {
		m.BandCounts[0] += row.Counts[1]
		m.BandCounts[1] += row.Counts[2]
		m.BandCounts[2] += row.Counts[3]
	}
}
