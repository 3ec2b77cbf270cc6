// Package remotepeering is a Go reproduction of "Remote Peering: More
// Peering without Internet Flattening" (Castro, Cardona, Gorinsky,
// Francois — CoNEXT 2014): the ping-based detector of remote peering at
// IXPs, the transit-traffic offload analysis, and the economic viability
// model, together with the synthetic substrate (packet-level layer-2/3
// simulator, AS-level economy, looking-glass measurement apparatus,
// NetFlow-style traffic generator) that replaces the paper's live-Internet
// and proprietary-data dependencies.
//
// The package is a facade over the internal implementation and is what the
// example programs and command-line tools consume. A typical session:
//
//	w, _ := remotepeering.GenerateWorld(remotepeering.WorldConfig{Seed: 1})
//	spread, _ := remotepeering.RunSpreadStudy(w, remotepeering.SpreadOptions{Seed: 2})
//	fmt.Println(spread.Report.Table1())
//
//	ds, _ := remotepeering.CollectTraffic(w, remotepeering.TrafficConfig{Seed: 3})
//	study, _ := remotepeering.NewOffloadStudy(w, ds)
//	steps := study.Greedy(remotepeering.GroupAll, 0)
//
//	fit, _ := remotepeering.FitDecay(remainingFractions)
//	params := remotepeering.DefaultEconParams(fit.B)
//	fmt.Println(params.RemoteViable())
package remotepeering

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"time"

	"remotepeering/internal/asindex"
	"remotepeering/internal/catalog"
	"remotepeering/internal/core"
	"remotepeering/internal/econ"
	"remotepeering/internal/fault"
	"remotepeering/internal/fleet"
	"remotepeering/internal/ixpsim"
	"remotepeering/internal/journal"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/netsim"
	"remotepeering/internal/offload"
	"remotepeering/internal/registry"
	"remotepeering/internal/scenario"
	"remotepeering/internal/serve"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

// Re-exported types. The aliases keep the public API surface in one place
// while the implementation lives in focused internal packages.
type (
	// World is the generated synthetic universe: the AS-level economy,
	// the 65 IXPs with memberships and ground-truth remote flags, and the
	// probe-target interfaces of the 22 studied IXPs.
	World = worldgen.World
	// WorldConfig parameterises world generation.
	WorldConfig = worldgen.Config

	// DetectorConfig holds the Section 3.1 methodology parameters
	// (remoteness threshold, filter windows, accepted TTLs).
	DetectorConfig = core.Config
	// DetectorReport is the detector output with per-figure analyses.
	DetectorReport = core.Report
	// Filter identifies one of the six data-hygiene filters.
	Filter = core.Filter
	// Validation scores detector verdicts against simulator ground truth.
	Validation = core.Validation

	// CampaignConfig controls the looking-glass probing regime.
	CampaignConfig = lg.Config
	// Observation is a single ping outcome seen from an LG server.
	Observation = lg.Observation

	// TrafficConfig parameterises the NetFlow-style collection.
	TrafficConfig = netflow.Config
	// TrafficDataset is the collected month of border traffic.
	TrafficDataset = netflow.Dataset

	// OffloadStudy is the prepared Section 4 analysis.
	OffloadStudy = offload.Study
	// PeerGroup selects one of the paper's four peer groups.
	PeerGroup = offload.PeerGroup
	// GreedyStep is one step of the Figure 9 expansion.
	GreedyStep = offload.GreedyStep
	// InterfaceStep is one step of the Figure 10 reachable-interfaces
	// expansion.
	InterfaceStep = offload.InterfaceStep
	// IXPPotential is one IXP's standalone offload potential (Figure 7).
	IXPPotential = offload.IXPPotential

	// ASNBitSet is an allocation-free set over the dense ids a world's
	// frozen AS graph assigns (World.Graph.ID and World.Graph.ASN map
	// between ASNs and ids, which ascend with ASNs) — the currency of the
	// bitset-valued fast paths (OffloadStudy.CoveredSet,
	// TrafficDataset.SeriesTotalSet). The map-valued signatures
	// (OffloadStudy.Covered, TrafficDataset.SeriesTotal) remain available
	// as thin adapters over the same engine, so existing callers keep
	// working unmodified.
	ASNBitSet = asindex.BitSet

	// EconParams holds the Section 5 model parameters.
	EconParams = econ.Params
)

// Detector filters, in the paper's application order.
const (
	FilterNone          = core.FilterNone
	FilterSampleSize    = core.FilterSampleSize
	FilterTTLSwitch     = core.FilterTTLSwitch
	FilterTTLMatch      = core.FilterTTLMatch
	FilterRTTConsistent = core.FilterRTTConsistent
	FilterLGConsistent  = core.FilterLGConsistent
	FilterASNChange     = core.FilterASNChange
)

// Peer groups 1-4 (Section 4.2).
const (
	GroupOpen               = offload.GroupOpen
	GroupOpenTop10Selective = offload.GroupOpenTop10Selective
	GroupOpenSelective      = offload.GroupOpenSelective
	GroupAll                = offload.GroupAll
)

// PeerGroups lists the four peer groups from narrowest to broadest.
var PeerGroups = offload.Groups

// GenerateWorld builds the deterministic synthetic world.
func GenerateWorld(cfg WorldConfig) (*World, error) {
	return worldgen.Generate(cfg)
}

// SpreadOptions controls RunSpreadStudy: the measurement seed, the studied
// IXP subset, the worker count, and the campaign/detector overrides.
type SpreadOptions = spread.Options

// SpreadResult bundles the outcome of a Section 3 measurement campaign:
// the detector report, the raw observations (for Reanalyze ablations), and
// the exhaustive ground-truth validation.
type SpreadResult = spread.Result

// AnalyzeObservations runs the detector directly over a set of raw
// observations — useful for vantage-point ablations (e.g. PCH-only).
func AnalyzeObservations(obs []Observation, reg *Registry, campaign time.Duration, cfg DetectorConfig) (*DetectorReport, error) {
	return core.Analyze(obs, reg, campaign, cfg)
}

// RunSpreadStudy reproduces Section 3: it builds the simulated IXPs,
// schedules and runs the four-month looking-glass campaign, derives the
// public registry view, and runs the detector. The implementation lives in
// internal/spread, where the scenario engine re-runs it per what-if cell.
func RunSpreadStudy(w *World, opts SpreadOptions) (*SpreadResult, error) {
	return spread.Run(w, opts)
}

// Registry is the public-data view (the PeeringDB/PCH/IXP-website
// analogue) that the detector identifies interface owners through.
type Registry = registry.Registry

// RegistryFromWorld derives the published registry view — including its
// calibrated imperfections — from the world's ground truth.
func RegistryFromWorld(w *World) *Registry {
	return registry.FromWorld(w)
}

// CollectTraffic reproduces the Section 4.1 dataset: a month of 5-minute
// border-traffic records with AS paths.
func CollectTraffic(w *World, cfg TrafficConfig) (*TrafficDataset, error) {
	return netflow.Collect(w, cfg)
}

// OffloadOptions tunes the Section 4 analysis machinery.
type OffloadOptions = offload.Options

// NewOffloadStudy prepares the Section 4 offload analysis over a world and
// its traffic dataset, using one worker per CPU. Results are identical for
// every worker count.
func NewOffloadStudy(w *World, ds *TrafficDataset) (*OffloadStudy, error) {
	return offload.NewStudy(w, ds)
}

// NewOffloadStudyOptions is NewOffloadStudy with an explicit worker count.
func NewOffloadStudyOptions(w *World, ds *TrafficDataset, opts OffloadOptions) (*OffloadStudy, error) {
	return offload.NewStudyOptions(w, ds, opts)
}

// DecayFit is the result of fitting remaining-transit curves to e^{-b·k}.
type DecayFit = stats.ExpFit

// FitDecay fits the empirical remaining-transit-fraction curve (indexed by
// number of reached IXPs, starting at 1) to the model t = e^{-b·k},
// returning the paper's parameter b — the bridge from Section 4's
// measurements to Section 5's model.
func FitDecay(remainingFractions []float64) (DecayFit, error) {
	return econ.FitB(remainingFractions)
}

// DefaultEconParams returns the reference Section 5 parameterisation for a
// given decay rate b (prices satisfying inequalities 7 and 8).
func DefaultEconParams(b float64) EconParams {
	return econ.DefaultParams(b)
}

// FitDecayFromGreedy fits the model's decay parameter b from a greedy
// Figure 9 curve. Because a fixed share of the transit traffic is not
// offloadable at any IXP (no member's cone covers it), the fit isolates
// the decaying component: (remaining − floor)/(total − floor), with the
// floor just under the curve's asymptote. totalBps is the full
// transit-provider traffic (in + out).
func FitDecayFromGreedy(steps []GreedyStep, totalBps float64) (DecayFit, error) {
	remaining := make([]float64, len(steps))
	for i, s := range steps {
		remaining[i] = s.Remaining()
	}
	return econ.FitBFromRemaining(remaining, totalBps)
}

// Scenario-engine re-exports: the typed what-if perturbation algebra over
// a generated world and the grid campaign runner (internal/scenario).
type (
	// Scenario is one named what-if: perturbation ops applied in order
	// to a fresh deterministic clone of the world.
	Scenario = scenario.Scenario
	// ScenarioOp is one serializable perturbation (a closed set:
	// IXPOutage, LatencyShift, MemberChurn, TrafficScale, DiurnalShift,
	// PortPrice, RemotePrice).
	ScenarioOp = scenario.Op
	// ScenarioGrid is a scenario×seed campaign matrix.
	ScenarioGrid = scenario.Grid
	// ScenarioOptions tunes a grid run (seeds, workers, campaign and
	// traffic overrides, coverage depth, base prices).
	ScenarioOptions = scenario.Options
	// ScenarioMetrics are one cell's headline numbers.
	ScenarioMetrics = scenario.Metrics
	// ScenarioCell is one evaluated grid cell.
	ScenarioCell = scenario.CellResult
	// ScenarioDelta is a cell's movement against the baseline.
	ScenarioDelta = scenario.Delta
	// ScenarioReport is a grid run's outcome with stable text/CSV
	// rendering.
	ScenarioReport = scenario.Report

	// IXPOutage takes an exchange dark.
	IXPOutage = scenario.IXPOutage
	// LatencyShift moves remote pseudowire delays per distance band.
	LatencyShift = scenario.LatencyShift
	// MemberChurn joins/removes members at one IXP.
	MemberChurn = scenario.MemberChurn
	// TrafficScale scales the NREN's transit-traffic level.
	TrafficScale = scenario.TrafficScale
	// DiurnalShift rotates the diurnal/weekly traffic profile.
	DiurnalShift = scenario.DiurnalShift
	// PortPrice scales the per-IXP costs g and h of the Section 5 model.
	PortPrice = scenario.PortPrice
	// RemotePrice scales the remote-peering prices h and v.
	RemotePrice = scenario.RemotePrice
)

// LatencyShift distance bands.
const (
	BandAll              = scenario.BandAll
	BandIntercity        = scenario.BandIntercity
	BandIntercountry     = scenario.BandIntercountry
	BandIntercontinental = scenario.BandIntercontinental
)

// ScenarioStageMask marks the pipeline stages a scenario op invalidates;
// the grid runner re-runs exactly the dirty stages of each cell and
// reuses the baseline's artifacts for the clean ones (byte-identically —
// set ScenarioOptions.NoReuse to force full reruns and see for yourself).
type ScenarioStageMask = scenario.StageMask

// Scenario pipeline stages.
const (
	ScenarioStageWorld   = scenario.StageWorld
	ScenarioStageSpread  = scenario.StageSpread
	ScenarioStageTraffic = scenario.StageTraffic
	ScenarioStageOffload = scenario.StageOffload
	ScenarioStageEcon    = scenario.StageEcon
	ScenarioStageAll     = scenario.StageAll
)

// ScenarioOpStages reports the dirty-stage mask of an op, downstream
// closure included — e.g. a TrafficScale dirties traffic, offload, and
// econ, while a PortPrice cell skips straight to the economic verdict.
func ScenarioOpStages(op ScenarioOp) ScenarioStageMask {
	return scenario.OpStages(op)
}

// RunScenarios evaluates a what-if grid over the world: every cell clones
// the world, applies its scenario's ops, re-runs the full pipeline (spread
// study, traffic collection, offload analysis, economic model), and is
// diffed against the runner's own unperturbed baseline cell. Cells fan out
// across Workers with the repo-wide invariant: the report is byte-identical
// for every worker count.
func RunScenarios(w *World, grid ScenarioGrid, opts ScenarioOptions) (*ScenarioReport, error) {
	return scenario.Run(w, grid, opts)
}

// ParseScenarioGrid parses the textual grid form used by cmd/rpwhatif:
// ';'-separated scenarios, each "name=op,op,..." with ops like
// "outage:AMS-IX", "latency:city:-3", "churn:LINX:40:10", "traffic:1.5",
// "diurnal:6", "portprice:0.5", "remoteprice:0.8".
func ParseScenarioGrid(spec string) (ScenarioGrid, error) {
	return scenario.ParseGrid(spec)
}

// ParseScenarioOp parses one op in the same textual form.
func ParseScenarioOp(s string) (ScenarioOp, error) {
	return scenario.ParseOp(s)
}

// CloneWorld returns a copy of the world that shares no mutable state
// with the original — the copy-on-write substrate the scenario engine
// perturbs. Memberships, probe targets and pseudowire deltas are copied;
// the AS graph, which also assigns the dense ids, is shared, and it is
// frozen, so its mutators fail on either world (and nothing may write
// through the network records it hands out). Callers experimenting with manual
// membership surgery get the scenario engine's guarantee: analyses over
// the clone never write through to the parent.
func CloneWorld(w *World) *World {
	return w.Clone()
}

// Snapshot-store and query-service re-exports: persistent worlds/datasets
// (internal/snapshot) and the long-lived concurrent what-if API
// (internal/serve).
type (
	// Snapshot bundles the persistable artifacts: the world, and
	// optionally the traffic dataset and the measurement campaign. What
	// queries derive from them (traffic series, customer cones) is
	// recomputed, never persisted. Reports computed from an attached
	// snapshot are byte-identical to reports computed from the live
	// objects.
	Snapshot = snapshot.Snapshot
	// ConeCache shares customer-cone tables between offload studies (and
	// scenario grid runs) over the same immutable AS graph. It lives in
	// memory only.
	ConeCache = offload.ConeCache
	// ServeConfig parameterises the query service: the snapshot (or
	// catalog), the in-flight evaluation bound, admission and deadline
	// policy, the result-cache budget, and the per-evaluation worker
	// bound.
	ServeConfig = serve.Config
	// Server is the /v1 query service over one immutable snapshot or a
	// catalog of them.
	Server = serve.Server
	// Catalog is a content-addressed store of snapshot files with a
	// bounded set of resident, attached worlds: attach-on-demand,
	// single-flight, refcounted against eviction, LRU under a byte
	// budget, quarantining snapshots that fail validation.
	Catalog = catalog.Catalog
	// CatalogOptions parameterises a Catalog: the resident budget, the
	// attach retry policy, and an optional fault plane.
	CatalogOptions = catalog.Options
	// CatalogWorld is one catalogued world's public state — digest,
	// path, size, health, outstanding leases.
	CatalogWorld = catalog.WorldInfo
	// WorldLease is a refcounted pin on a resident world: the world
	// stays resident, never evicted, until Release.
	WorldLease = catalog.Lease
	// FaultPlane is the injectable failure plane the serve tier threads
	// through attaches, evaluations, and caches. A nil plane is the
	// production plane: every injection site costs one nil comparison.
	FaultPlane = fault.Plane
	// FaultConfig seeds a FaultPlane with per-class injection rates.
	FaultConfig = fault.Config
)

// Typed snapshot integrity errors: a wrong file (ErrSnapshotBadMagic), a
// format this build does not read — a future one, or a retired one to
// regenerate from its seed — (ErrSnapshotVersion), a short file
// (ErrSnapshotTruncated), and a damaged one (ErrSnapshotCorrupt). Opening
// a snapshot never panics and never returns a silently-wrong world.
var (
	ErrSnapshotBadMagic  = snapshot.ErrBadMagic
	ErrSnapshotVersion   = snapshot.ErrVersion
	ErrSnapshotTruncated = snapshot.ErrTruncated
	ErrSnapshotCorrupt   = snapshot.ErrCorrupt
)

// NewConeCache returns an empty shareable customer-cone cache.
func NewConeCache() *ConeCache { return offload.NewConeCache() }

// SaveSnapshot writes the snapshot to path atomically in the flat
// (mmap-able) format and returns its SHA-256 content digest. The bytes
// depend on the artifacts alone — never on a Workers knob — so the same
// world saves to the same digest at any worker count.
func SaveSnapshot(path string, s *Snapshot) (digest string, err error) {
	return snapshot.SaveFlatFile(path, s)
}

// AttachedSnapshot is a snapshot file mapped into memory: attach costs
// microseconds regardless of file size, and the world materializes lazily
// on the first Snapshot() call, decoded by copy. The materialized
// snapshot owns its memory, so Close may follow Snapshot() at once.
type AttachedSnapshot = snapshot.Attached

// AttachSnapshot maps the snapshot at path, validating only the header
// and section directory.
func AttachSnapshot(path string) (*AttachedSnapshot, error) {
	return snapshot.Attach(path)
}

// OpenSnapshot attaches the snapshot at path, materializes it, and
// releases the mapping. Every artifact answers queries byte-identically
// to the live objects it was saved from.
func OpenSnapshot(path string) (*Snapshot, error) {
	return snapshot.OpenFile(path)
}

// Typed catalog failures callers route on: unknown or ambiguous world
// keys, a quarantined (validation-failing) world, and admission pressure
// (every resident world pinned by a lease).
var (
	ErrUnknownWorld     = catalog.ErrUnknownWorld
	ErrAmbiguousWorld   = catalog.ErrAmbiguous
	ErrWorldQuarantined = catalog.ErrQuarantined
	ErrNoWorldSlot      = catalog.ErrNoSlot
)

// OpenCatalog scans dir for snapshot files and catalogs them by content
// digest; non-snapshot files are skipped. Worlds attach
// on demand when leased (Catalog.Acquire) and evict LRU under
// opts.ResidentBytes.
func OpenCatalog(dir string, opts CatalogOptions) (*Catalog, error) {
	return catalog.Open(dir, opts)
}

// NewCatalog builds an empty catalog; register files with Catalog.Add.
func NewCatalog(opts CatalogOptions) *Catalog {
	return catalog.New(opts)
}

// NewFaultPlane builds a seeded fault plane for chaos drills. The
// contract: a plane may delay, fail, or crash operations, but completed
// work is byte-identical to a fault-free run.
func NewFaultPlane(cfg FaultConfig) *FaultPlane {
	return fault.New(cfg)
}

// ParseFaultPlane builds a fault plane from the textual -chaos form,
// e.g. "seed=42,slow=0.5,fail=0.3,corrupt=0.05,panic=0.2,cachefail=0.2,delay=20ms".
func ParseFaultPlane(spec string) (*FaultPlane, error) {
	return fault.Parse(spec)
}

// NewServer builds the query service over a loaded snapshot or a catalog
// without binding a listener — the embedding entry point (tests mount
// Server.Handler on httptest, cmd/rpserve on a real listener).
func NewServer(cfg ServeConfig) (*Server, error) {
	return serve.New(cfg)
}

// Serve runs the query service on addr until ctx is cancelled, then
// shuts down gracefully (in-flight requests get 10 seconds to drain).
func Serve(ctx context.Context, addr string, cfg ServeConfig) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	hs := serve.NewHTTPServer(addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(shutdownCtx)
	}
}

// RunScenariosCtx is RunScenarios with cooperative cancellation: once ctx
// is done, no new grid cell or pipeline stage starts and the call returns
// ctx.Err() — how the query service stops abandoned what-ifs.
func RunScenariosCtx(ctx context.Context, w *World, grid ScenarioGrid, opts ScenarioOptions) (*ScenarioReport, error) {
	return scenario.RunCtx(ctx, w, grid, opts)
}

// Living-world re-exports: the tick engine that evolves a world through
// discrete time steps (internal/tick) and the append-only event journal
// with checkpointed deterministic replay that makes a timeline durable
// (internal/journal).
type (
	// TickConfig parameterises an evolution: the event regime (churn,
	// drift, price walks, outages), the checkpoint cadence, and the
	// per-tick pipeline options.
	TickConfig = tick.Config
	// TickEngine is one evolving world: it advances through discrete
	// time steps, re-running only the pipeline stages each tick's events
	// invalidate. The world at tick N is byte-identical across live
	// runs, replays, and worker counts.
	TickEngine = tick.Engine
	// TickResult is one committed tick's outcome: its events, dirty
	// stages, and post-tick metrics.
	TickResult = tick.Result
	// TickNewspaper is the digest view of a recent window of ticks.
	TickNewspaper = tick.Newspaper
	// TickState is the snapshot section that places a saved world on its
	// timeline: the tick, the evolution seed, and the evolved regime.
	TickState = snapshot.TickState
	// JournalRecord is one committed tick's durable form: its events and
	// the RNG stream key its application drew from.
	JournalRecord = journal.Record
	// JournalCheckpoint marks a flat-snapshot checkpoint on a timeline.
	JournalCheckpoint = journal.Checkpoint
	// JournalContents is a journal file decoded in full: header, tick
	// records, and checkpoint markers.
	JournalContents = journal.Contents
	// JournalSyncPolicy names when the journal fsyncs — the durability
	// guarantee of the -fsync flag (commit | checkpoint | off).
	JournalSyncPolicy = journal.SyncPolicy
)

// Typed journal integrity errors, mirroring the snapshot family: a wrong
// file, a short one, and a damaged one. ReadJournal never panics.
var (
	ErrJournalBadMagic  = journal.ErrBadMagic
	ErrJournalTruncated = journal.ErrTruncated
	ErrJournalCorrupt   = journal.ErrCorrupt
)

// DefaultTickConfig returns the reference evolution regime.
func DefaultTickConfig() TickConfig { return tick.DefaultConfig() }

// ParseTickConfig parses the compact "key=value,..." evolution spec used
// by the tools' -tick flags, e.g. "seed=7,joins=3,leaves=2,outage=0.02".
func ParseTickConfig(spec string) (TickConfig, error) { return tick.ParseConfig(spec) }

// ParseJournalSyncPolicy parses the -fsync flag form: commit (every
// acked tick durable, the default), checkpoint (durable up to the last
// checkpoint), or off (page cache only).
func ParseJournalSyncPolicy(s string) (JournalSyncPolicy, error) { return journal.ParseSyncPolicy(s) }

// NewTickEngine builds an in-memory evolution over a genesis world (which
// is cloned, never mutated) and evaluates the tick-0 baseline.
func NewTickEngine(ctx context.Context, genesis *World, cfg TickConfig) (*TickEngine, error) {
	return tick.New(ctx, genesis, cfg)
}

// OpenTickEngine attaches an evolution to a directory: a fresh directory
// starts a new journalled timeline, an existing journal is recovered —
// torn tail truncated, newest valid checkpoint attached, tail replayed —
// to exactly the state an uninterrupted run would hold.
func OpenTickEngine(ctx context.Context, dir string, genesis *World, cfg TickConfig) (*TickEngine, error) {
	return tick.Open(ctx, dir, genesis, cfg)
}

type (
	// FleetRouter fronts a fleet of rpserve workers: health-gated
	// membership and rendezvous-hash routing with failover, where each
	// request goes whole to the worker that owns its world.
	FleetRouter = fleet.Router
	// FleetConfig parameterises a FleetRouter.
	FleetConfig = fleet.Config
	// FleetState is a member's health (Up, Suspect, Down) as decided by
	// the router's heartbeat loop.
	FleetState = fleet.State
)

// NewFleetRouter builds a router over the configured peers; call Start
// on it to begin heartbeating and Handler for its HTTP surface.
func NewFleetRouter(cfg FleetConfig) (*FleetRouter, error) { return fleet.New(cfg) }

// ReadJournal decodes a journal file strictly, for inspection and for
// driving ReplayTicks by hand.
func ReadJournal(path string) (*JournalContents, error) { return journal.Read(path) }

// ReplayTicks rebuilds an engine by replaying recorded tick records over
// a genesis world. With evalEach, every tick runs the stage pipeline
// exactly as the live run did; without it, a single evaluation at the end
// rebuilds the artifacts. Both are byte-identical to the live run.
func ReplayTicks(ctx context.Context, genesis *World, cfg TickConfig, recs []JournalRecord, evalEach bool) (*TickEngine, error) {
	return tick.Replay(ctx, genesis, cfg, recs, evalEach)
}

// P95 returns the 95th-percentile rate of a traffic series — the
// transit-billing number of Section 2.1.
func P95(series []float64) (float64, error) {
	return netflow.P95(series)
}

// WriteObservationsCSV archives a campaign's raw observations in the CSV
// interchange format; ReadObservationsCSV restores them for re-analysis
// (the paper published its measurement data similarly).
func WriteObservationsCSV(w io.Writer, obs []Observation) error {
	return lg.WriteCSV(w, obs)
}

// ReadObservationsCSV parses observations written by WriteObservationsCSV.
func ReadObservationsCSV(r io.Reader) ([]Observation, error) {
	return lg.ReadCSV(r)
}

// ProbeComparison contrasts what layer-3 path discovery and delay
// measurement each reveal about one member interface — the paper's core
// argument (remote peering is invisible on layer 3) in data form.
type ProbeComparison struct {
	IP netip.Addr
	// HopCount is the traceroute hop count from the LG server (1 =
	// on-link; lost probes can inflate it with timed-out rows, exactly
	// as real traceroute prints "*" lines).
	HopCount int
	// SawRouter reports whether any intermediate layer-3 device answered
	// along the path. For a genuine layer-2 pseudowire this is always
	// false — the paper's invisibility argument — while a misdirected
	// registry entry (the TTL-match hazard) exposes its proxy router
	// here.
	SawRouter bool
	// MinRTT is the minimum ping RTT over a short probe burst.
	MinRTT time.Duration
	// TrueRemote is the simulator's ground truth.
	TrueRemote bool
}

// CompareLayer3Visibility builds one studied IXP, then runs both
// traceroute and a burst of pings from its PCH looking glass to every
// registry-listed member interface. In the result, remote and direct
// members are indistinguishable by hop count but separate cleanly by
// minimum RTT — why the paper's methodology is delay-based.
func CompareLayer3Visibility(w *World, ixpIndex int, seed int64) ([]ProbeComparison, error) {
	if w == nil {
		return nil, fmt.Errorf("remotepeering: nil world")
	}
	var e netsim.Engine
	src := stats.NewSource(seed)
	sim, err := ixpsim.Build(&e, w, ixpIndex, 24*time.Hour, src.Split("sim"))
	if err != nil {
		return nil, err
	}
	if len(sim.LGs) == 0 {
		return nil, fmt.Errorf("remotepeering: IXP %d has no LG server", ixpIndex)
	}
	lgNode := sim.LGs[0].Node

	results := make([]ProbeComparison, len(sim.Targets))
	e.OnTraceroute(func(r netsim.TracerouteResult) {
		results[r.Tag].HopCount = r.HopCount()
		for _, h := range r.Hops {
			if !h.TimedOut && !h.Reached {
				results[r.Tag].SawRouter = true
			}
		}
	})
	// A burst of three pings per target; keep the minimum.
	e.OnPing(func(r netsim.PingResult) {
		if r.TimedOut {
			return
		}
		if res := &results[r.Tag]; res.MinRTT == 0 || r.RTT < res.MinRTT {
			res.MinRTT = r.RTT
		}
	})
	for i, target := range sim.Targets {
		results[i] = ProbeComparison{IP: target, HopCount: -1, TrueRemote: sim.IsRemote(target)}
		at := time.Duration(i) * time.Minute
		lgNode.Traceroute(at, target, 8, 5*time.Second, int32(i))
		for p := 0; p < 3; p++ {
			lgNode.Ping(at+30*time.Second+time.Duration(p)*time.Second, target, 5*time.Second, int32(i))
		}
	}
	e.Run()
	return results, nil
}
