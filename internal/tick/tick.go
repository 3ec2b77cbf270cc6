// Package tick is the evolution engine: it advances a world through
// discrete time steps, sampling events — membership churn, traffic growth
// and diurnal phase drift, port/remote price walks, occasional IXP
// outages — from a seeded generator and applying them through the
// scenario op algebra. Each tick therefore carries the ops' dirty-stage
// masks, so advancing time re-runs only the invalidated pipeline stages
// and splices the previous tick's artifacts for the clean ones: a
// churn-only tick costs a fraction of a cold pipeline run.
//
// Determinism is the same contract the rest of the repo honors, lifted to
// a timeline: the event stream is a pure function of (config seed, tick),
// op randomness draws from a stream keyed by the tick alone, and every
// stage is worker-count-invariant — so the world at tick N is
// byte-identical across live runs, replays, and worker counts. The
// journal (internal/journal) makes the timeline durable: every committed
// tick appends its events and RNG stream key, periodic checkpoints
// persist the full state as flat snapshots, and recovery attaches the
// nearest checkpoint and replays the tail to exactly the bytes the
// uninterrupted run would have produced.
//
// Atomicity: a tick stages its changes on a clone of the current world
// and commits — journal first, then the in-memory swap — only after the
// whole apply+evaluate pipeline succeeded. A panic mid-tick (injected by
// the fault plane or real) rolls back to the pre-tick state, and the
// journal never records a half-applied tick.
package tick

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"remotepeering/internal/econ"
	"remotepeering/internal/fault"
	"remotepeering/internal/journal"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/offload"
	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

// JournalFile is the journal's file name inside an evolution directory.
const JournalFile = "journal.rpj"

// Config parameterises an evolution: the event regime the world lives
// under, the checkpoint cadence, and the pipeline options every tick's
// evaluation runs with.
type Config struct {
	// Seed drives event generation and op randomness. Together with the
	// genesis world it determines the entire timeline.
	Seed int64

	// ChurnIXPs is the number of churn events per tick, each at one
	// randomly-selected studied IXP; ChurnJoins/ChurnLeaves are the mean
	// member arrivals/departures per event (the draw is uniform on
	// [0, 2·mean]). Zero churn knobs disable churn.
	ChurnIXPs   int
	ChurnJoins  int
	ChurnLeaves int
	// TrafficDrift is the maximum ± relative step of the transit-demand
	// walk per tick (e.g. 0.02 = ±2%); DiurnalDrift the maximum ± hours
	// the diurnal phase moves per tick; PriceDrift the maximum ± relative
	// step of the port- and remote-price walks per tick. Zero disables
	// each walk.
	TrafficDrift float64
	DiurnalDrift float64
	PriceDrift   float64
	// OutageRate is the per-tick probability that one randomly-selected
	// studied IXP goes dark (its members leave; arrivals may later
	// repopulate it). The last live exchange is never darkened.
	OutageRate float64

	// CheckpointEvery is the tick interval between flat-snapshot
	// checkpoints when a journal is attached (default 16).
	CheckpointEvery int

	// Fsync is the attached journal's sync policy — when an acked tick
	// reaches stable storage (see journal.SyncPolicy). The zero value is
	// SyncCommit: every acked tick is durable. A runtime knob like
	// Workers: it never shapes results, so the journal header does not
	// record it and a resumed run may choose differently.
	Fsync journal.SyncPolicy

	// Pipeline supplies the per-tick evaluation's knobs: seeds, campaign,
	// detector, coverage depths, workers, and the fault plane. Its Econ
	// field seeds the evolving price vector (zero = the reference
	// parameterisation); price walks rescale it from there.
	Pipeline scenario.Options

	// Cones is the engine's customer-cone cache: the serve tier passes its
	// residency's cache, and nil gives the engine a private one. The engine
	// installs it as Pipeline.Cones, overwriting whatever that held. Tick
	// events never touch the AS graph, so one cache serves the whole
	// timeline.
	Cones *offload.ConeCache

	// Metrics receives tick/checkpoint/recovery observations and is
	// threaded to the attached journal. A runtime knob like Workers: it
	// never shapes results, the journal header does not record it, and a
	// resumed run may attach different metrics (or none).
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
	return c
}

// DefaultConfig is the reference evolution regime: modest churn at one
// exchange per tick, ±2% demand drift, a quarter-hour of diurnal drift,
// ±1% price walks, a 1% outage rate, checkpoints every 16 ticks, and the
// serve tier's default pipeline seeds.
func DefaultConfig() Config {
	cfg := Config{
		Seed:            1,
		ChurnIXPs:       1,
		ChurnJoins:      3,
		ChurnLeaves:     2,
		TrafficDrift:    0.02,
		DiurnalDrift:    0.25,
		PriceDrift:      0.01,
		OutageRate:      0.01,
		CheckpointEvery: 16,
	}
	cfg.Pipeline.MeasureSeed = 2
	cfg.Pipeline.TrafficSeed = 3
	return cfg
}

// ParseConfig parses a compact "key=value,..." evolution spec over
// DefaultConfig — the -tick flag's format, mirroring the fault plane's
// -chaos spec:
//
//	seed=7,joins=3,leaves=2,churn-ixps=1,traffic=0.02,diurnal=0.25,
//	price=0.01,outage=0.01,checkpoint=16,mseed=2,tseed=3,intervals=288,
//	days=6,k=5,greedy=30,fsync=commit
//
// An empty spec is DefaultConfig. Counts (checkpoint, intervals, days, k,
// greedy) must be non-negative decimal integers, days at most lg.MaxDays
// and greedy other than 1; every value must parse whole.
func ParseConfig(spec string) (Config, error) {
	cfg := DefaultConfig()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("tick: bad spec term %q (want key=value)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "joins":
			cfg.ChurnJoins, err = strconv.Atoi(val)
		case "leaves":
			cfg.ChurnLeaves, err = strconv.Atoi(val)
		case "churn-ixps":
			cfg.ChurnIXPs, err = strconv.Atoi(val)
		case "traffic":
			cfg.TrafficDrift, err = parseFinite(val)
		case "diurnal":
			cfg.DiurnalDrift, err = parseFinite(val)
		case "price":
			cfg.PriceDrift, err = parseFinite(val)
		case "outage":
			cfg.OutageRate, err = parseFinite(val)
		case "checkpoint":
			cfg.CheckpointEvery, err = parseCount(val, math.MaxInt)
		case "mseed":
			cfg.Pipeline.MeasureSeed, err = strconv.ParseInt(val, 10, 64)
		case "tseed":
			cfg.Pipeline.TrafficSeed, err = strconv.ParseInt(val, 10, 64)
		case "intervals":
			cfg.Pipeline.Intervals, err = parseCount(val, math.MaxInt)
		case "days":
			var days int
			days, err = parseCount(val, lg.MaxDays)
			cfg.Pipeline.Campaign.Duration = time.Duration(days) * 24 * time.Hour
		case "k":
			cfg.Pipeline.CoverageIXPs, err = parseCount(val, math.MaxInt)
		case "greedy":
			cfg.Pipeline.GreedyIXPs, err = parseCount(val, math.MaxInt)
		case "fsync":
			cfg.Fsync, err = journal.ParseSyncPolicy(val)
		default:
			return Config{}, fmt.Errorf("tick: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("tick: bad %s value %q: %v", key, val, err)
		}
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// parseCount parses a decimal integer in [0, hi].
func parseCount(s string, hi int) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && (n < 0 || n > hi) {
		err = fmt.Errorf("out of range [0, %d]", hi)
	}
	return n, err
}

// parseFinite parses a finite float; NaN and the infinities would pass
// validate's sign checks and poison every walk they drive.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = errors.New("not a finite number")
	}
	return f, err
}

// maxDiurnalDrift bounds DiurnalDrift, in hours: one week, the period of
// the diurnal/weekly profile the walk rotates, so a larger step moves the
// peak nowhere a smaller one cannot. Unbounded, a step of about 2.56e6
// hours draws a shift the journal cannot parse back (it overflows a
// time.Duration), and the timeline could not be recovered.
const maxDiurnalDrift = 168

// validate rejects knob values the engine cannot run with: negative
// churn counts would hand Intn a non-positive bound and panic the first
// Advance, negative drifts or rates have no meaning, and a greedy depth of
// 1 leaves every tick's decay fit a single point. A traffic or price
// drift of 1 or more can draw a step factor of zero or below, which the
// op refuses; a retry draws the same op, so the timeline would stop at
// that tick for good.
func (c Config) validate() error {
	if c.Pipeline.GreedyIXPs == 1 {
		return fmt.Errorf("tick: greedy depth must be 0 (the default) or at least 2 for the decay fit")
	}
	for _, k := range []struct {
		name string
		bad  bool
		want string
	}{
		{"churn-ixps", c.ChurnIXPs < 0, "not negative"},
		{"joins", c.ChurnJoins < 0, "not negative"},
		{"leaves", c.ChurnLeaves < 0, "not negative"},
		{"traffic", c.TrafficDrift < 0 || c.TrafficDrift >= 1, "in [0, 1)"},
		{"diurnal", c.DiurnalDrift < 0 || c.DiurnalDrift > maxDiurnalDrift, fmt.Sprintf("in [0, %d] hours", maxDiurnalDrift)},
		{"price", c.PriceDrift < 0 || c.PriceDrift >= 1, "in [0, 1)"},
		{"outage", c.OutageRate < 0, "not negative"},
	} {
		if k.bad {
			return fmt.Errorf("tick: %s must be %s", k.name, k.want)
		}
	}
	return nil
}

// Result is one committed tick's outcome: the events applied, the closed
// dirty-stage mask they carried (the cost story: "spread|offload|econ" is
// a cheap tick, "world|…" a full rerun), and the post-tick metrics.
type Result struct {
	Tick    uint64           `json:"tick"`
	Events  []string         `json:"events,omitempty"`
	Stages  string           `json:"stages"`
	Metrics scenario.Metrics `json:"metrics"`
}

// Engine is one evolving world: the current (world, regime) state, the
// previous tick's pipeline artifacts (the stage-reuse source), the
// in-memory history, and optionally an attached journal. An Engine is not
// safe for concurrent use — the serve tier serialises Advance per world
// and publishes immutable views to its readers.
type Engine struct {
	cfg      Config
	es       *scenario.EvolveState
	art      *scenario.Artifacts
	tick     uint64
	hist     []Result
	jr       *journal.Journal
	dir      string
	genesis  string // genesis world content digest
	worldCfg worldgen.Config
}

// New builds an engine over a genesis world (which is cloned, never
// mutated) and evaluates the tick-0 baseline — the full pipeline once, so
// the first Advance already has artifacts to splice.
func New(ctx context.Context, genesis *worldgen.World, cfg Config) (*Engine, error) {
	e, err := newEngine(genesis, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.evalGenesis(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

func newEngine(genesis *worldgen.World, cfg Config) (*Engine, error) {
	if genesis == nil {
		return nil, fmt.Errorf("tick: nil genesis world")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	digest, err := snapshot.WorldDigest(genesis)
	if err != nil {
		return nil, err
	}
	ec := cfg.Pipeline.Econ
	if ec.P == 0 {
		ec = econ.DefaultParams(0)
	}
	cfg.Pipeline.Cones = cfg.Cones
	if cfg.Pipeline.Cones == nil {
		cfg.Pipeline.Cones = offload.NewConeCache()
	}
	return &Engine{
		cfg: cfg,
		es: &scenario.EvolveState{
			World:   genesis.Clone(),
			Traffic: netflow.Config{Seed: cfg.Pipeline.TrafficSeed, Intervals: cfg.Pipeline.Intervals},
			Econ:    ec,
		},
		genesis:  digest,
		worldCfg: genesis.Cfg,
	}, nil
}

func (e *Engine) evalGenesis(ctx context.Context) error {
	art, err := scenario.EvalEvolved(ctx, e.es, scenario.Dirty{}, nil, e.cfg.Pipeline)
	if err != nil {
		return err
	}
	e.art = art
	e.hist = []Result{{Tick: 0, Stages: scenario.StageAll.String(), Metrics: art.Metrics}}
	return nil
}

// Tick returns the engine's position on its timeline.
func (e *Engine) Tick() uint64 { return e.tick }

// World returns the current world. It is replaced wholesale (never
// mutated) on each committed tick, so a caller holding the returned
// pointer keeps a consistent pre-tick view.
func (e *Engine) World() *worldgen.World { return e.es.World }

// Artifacts returns the current tick's pipeline artifacts.
func (e *Engine) Artifacts() *scenario.Artifacts { return e.art }

// Metrics returns the current tick's headline metrics.
func (e *Engine) Metrics() scenario.Metrics { return e.art.Metrics }

// Regime returns the current evolved traffic configuration and price
// vector.
func (e *Engine) Regime() (netflow.Config, econ.Params) { return e.es.Traffic, e.es.Econ }

// State returns the engine's persistable tick state — the Tick section a
// snapshot of the current world carries, from which a later process can
// place the saved world on its timeline.
func (e *Engine) State() *snapshot.TickState {
	return &snapshot.TickState{
		Tick:    e.tick,
		Seed:    e.cfg.Seed,
		Traffic: e.es.Traffic,
		Econ:    e.es.Econ,
	}
}

// Cones returns the engine's shared customer-cone cache.
func (e *Engine) Cones() *offload.ConeCache { return e.cfg.Pipeline.Cones }

// Close closes the attached journal, if any.
func (e *Engine) Close() error {
	if e.jr == nil {
		return nil
	}
	jr := e.jr
	e.jr = nil
	return jr.Close()
}

// src re-derives an op-application RNG stream from the evolution seed and
// a stream key. Split is pure, so a replayed (or retried) application
// draws identical values.
func (e *Engine) src(key string) *stats.Source {
	return stats.NewSource(e.cfg.Seed).Split(key)
}

func streamKey(t uint64) string { return fmt.Sprintf("apply-%d", t) }

// genEvents samples tick t's events. The draw sequence is fixed by the
// config alone (every enabled knob draws exactly once per tick whether or
// not it yields an op), and the source is keyed by (seed, t), so the
// event stream is a pure function of the configuration and the tick — at
// any worker count, in any process.
func (e *Engine) genEvents(t uint64) ([]scenario.Op, []string) {
	src := stats.NewSource(e.cfg.Seed).Split(fmt.Sprintf("events-%d", t))
	w := e.es.World
	studied := w.StudiedIXPs()
	var ops []scenario.Op

	if e.cfg.ChurnIXPs > 0 && (e.cfg.ChurnJoins > 0 || e.cfg.ChurnLeaves > 0) {
		for c := 0; c < e.cfg.ChurnIXPs; c++ {
			idx := src.Intn(len(studied))
			join := src.Intn(2*e.cfg.ChurnJoins + 1)
			leave := src.Intn(2*e.cfg.ChurnLeaves + 1)
			if join == 0 && leave == 0 {
				continue
			}
			ops = append(ops, scenario.MemberChurn{IXP: studied[idx].Acronym, Join: join, Leave: leave})
		}
	}
	if e.cfg.OutageRate > 0 {
		hit := src.Float64() < e.cfg.OutageRate
		idx := src.Intn(len(studied))
		// The draw sequence above is unconditional; only the op is gated,
		// and never on the last live exchange (a fully-dark world has
		// nothing left to measure).
		if hit && e.isLive(idx) && e.liveCount() > 1 {
			ops = append(ops, scenario.IXPOutage{IXP: studied[idx].Acronym})
		}
	}
	if e.cfg.TrafficDrift > 0 {
		if f := 1 + e.cfg.TrafficDrift*(2*src.Float64()-1); f != 1 {
			ops = append(ops, scenario.TrafficScale{Factor: f})
		}
	}
	if e.cfg.DiurnalDrift > 0 {
		if h := e.cfg.DiurnalDrift * (2*src.Float64() - 1); h != 0 {
			ops = append(ops, scenario.DiurnalShift{Hours: h})
		}
	}
	if e.cfg.PriceDrift > 0 {
		if f := 1 + e.cfg.PriceDrift*(2*src.Float64()-1); f != 1 {
			ops = append(ops, scenario.PortPrice{Factor: f})
		}
		if f := 1 + e.cfg.PriceDrift*(2*src.Float64()-1); f != 1 {
			ops = append(ops, scenario.RemotePrice{Factor: f})
		}
	}
	events := make([]string, len(ops))
	for i, op := range ops {
		events[i] = op.String()
	}
	return ops, events
}

// isLive reports whether studied IXP idx still exposes probe targets.
func (e *Engine) isLive(idx int) bool {
	for _, rec := range e.es.World.Ifaces {
		if rec.IXPIndex == idx {
			return true
		}
	}
	return false
}

// liveCount counts studied IXPs with probe targets.
func (e *Engine) liveCount() int {
	has := make([]bool, e.es.World.NumStudied())
	for _, rec := range e.es.World.Ifaces {
		has[rec.IXPIndex] = true
	}
	n := 0
	for _, b := range has {
		if b {
			n++
		}
	}
	return n
}

// Advance commits one tick: sample events, stage their application on a
// clone, run exactly the dirty pipeline stages (splicing the previous
// tick's artifacts for the clean ones), append to the journal, and swap
// the new state in. Failure at any point — including a panic injected by
// the fault plane — leaves the engine at its pre-call tick with the
// journal unchanged; recovered panics and injected transients are retried
// up to Pipeline.CellAttempts times (a tick is a pure function of its
// coordinates, so a retry reproduces the crashed attempt's exact bytes).
func (e *Engine) Advance(ctx context.Context) (Result, error) {
	if e.art == nil {
		return Result{}, fmt.Errorf("tick: engine has no evaluated baseline")
	}
	t := e.tick + 1
	t0 := time.Now()
	ops, events := e.genEvents(t)
	key := streamKey(t)
	faultKey := fmt.Sprintf("%s|tick|%d", e.cfg.Pipeline.FaultKey, t)
	var (
		res    Result
		staged *scenario.EvolveState
		art    *scenario.Artifacts
	)
	err := fault.Retry(ctx, e.cfg.Pipeline.CellAttempts, 0, 0, faultKey, fault.Transient, func(int) error {
		return e.cfg.Pipeline.Faults.Contain(faultKey, func() (err error) {
			res, staged, art, err = e.applyEval(ctx, t, ops, events, key)
			return err
		})
	})
	if err != nil {
		return Result{}, fmt.Errorf("tick: advance to %d: %w", t, err)
	}
	// Commit order: journal record first — synced per the journal's
	// policy before the tick is acked — then the in-memory swap. A crash
	// between the two loses only unserved memory, never durability; a
	// journal failure leaves the engine rolled back.
	if e.jr != nil {
		if err := e.jr.Commit(journal.Record{Tick: t, StreamKey: key, Events: events}); err != nil {
			return Result{}, fmt.Errorf("tick %d: %w", t, err)
		}
	}
	e.es, e.art, e.tick = staged, art, t
	e.hist = append(e.hist, res)
	e.cfg.Metrics.observeTick(time.Since(t0))
	if e.jr != nil && t%uint64(e.cfg.CheckpointEvery) == 0 {
		if err := e.Checkpoint(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// AdvanceTo advances until the timeline reaches target, returning every
// committed result (none if already there) — including, on error, a tick
// that committed before its post-commit checkpoint failed: the journal
// holds it and the in-memory state advanced, so callers must not
// under-report it.
func (e *Engine) AdvanceTo(ctx context.Context, target uint64) ([]Result, error) {
	var out []Result
	for e.tick < target {
		before := e.tick
		res, err := e.Advance(ctx)
		if e.tick > before {
			out = append(out, res)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// stage applies ops, drawing from the stream key's source, to a clone of
// the engine's state, and leaves the engine untouched.
func (e *Engine) stage(ops []scenario.Op, key string) (*scenario.EvolveState, scenario.Dirty, error) {
	staged := &scenario.EvolveState{World: e.es.World.Clone(), Traffic: e.es.Traffic, Econ: e.es.Econ}
	d, err := scenario.ApplyOps(staged, ops, e.src(key))
	return staged, d, err
}

// applyEval is one staged apply+evaluate attempt: it works on a clone and
// leaves the engine untouched.
func (e *Engine) applyEval(ctx context.Context, t uint64, ops []scenario.Op, events []string, key string) (Result, *scenario.EvolveState, *scenario.Artifacts, error) {
	staged, d, err := e.stage(ops, key)
	if err != nil {
		return Result{}, nil, nil, err
	}
	art, err := scenario.EvalEvolved(ctx, staged, d, e.art, e.cfg.Pipeline)
	if err != nil {
		return Result{}, nil, nil, err
	}
	return Result{Tick: t, Events: events, Stages: d.Stages().String(), Metrics: art.Metrics}, staged, art, nil
}

// History returns a copy of the full in-memory history, tick-0 baseline
// included — a live engine's is never empty, so publishers get a history
// whose last entry always carries the current metrics.
func (e *Engine) History() []Result {
	return append([]Result(nil), e.hist...)
}

// Since returns the in-memory history of ticks strictly after t. Live
// engines hold their full timeline; recovered ones hold what they
// replayed.
func (e *Engine) Since(t uint64) []Result {
	var out []Result
	for _, r := range e.hist {
		if r.Tick > t {
			out = append(out, r)
		}
	}
	return out
}

// Checkpoint persists the engine's current state as a flat snapshot next
// to the journal and records the marker. It requires an attached
// journal (Open).
func (e *Engine) Checkpoint() error {
	if e.jr == nil {
		return fmt.Errorf("tick: no journal attached")
	}
	name := fmt.Sprintf("checkpoint-%06d.flat", e.tick)
	snap := &snapshot.Snapshot{World: e.es.World, Tick: e.State()}
	t0 := time.Now()
	digest, err := snapshot.SaveFlatFile(filepath.Join(e.dir, name), snap)
	if err != nil {
		return fmt.Errorf("tick: checkpoint at %d: %w", e.tick, err)
	}
	if err := e.jr.CommitCheckpoint(journal.Checkpoint{Tick: e.tick, File: name, Digest: digest}); err != nil {
		return err
	}
	var size int64
	if fi, err := os.Stat(filepath.Join(e.dir, name)); err == nil {
		size = fi.Size()
	}
	e.cfg.Metrics.observeCheckpoint(time.Since(t0), size)
	return nil
}

// header is the journal's genesis record: everything a later process
// needs to rebuild the timeline — the world recipe, the evolution knobs,
// and the pipeline seeds. Runtime-only knobs (workers, fault plane) are
// deliberately absent: they must never change results.
type header struct {
	World           worldgen.Config `json:"world"`
	GenesisDigest   string          `json:"genesis_digest"`
	Seed            int64           `json:"seed"`
	ChurnIXPs       int             `json:"churn_ixps"`
	ChurnJoins      int             `json:"churn_joins"`
	ChurnLeaves     int             `json:"churn_leaves"`
	TrafficDrift    float64         `json:"traffic_drift"`
	DiurnalDrift    float64         `json:"diurnal_drift"`
	PriceDrift      float64         `json:"price_drift"`
	OutageRate      float64         `json:"outage_rate"`
	CheckpointEvery int             `json:"checkpoint_every"`
	MeasureSeed     int64           `json:"measure_seed"`
	TrafficSeed     int64           `json:"traffic_seed"`
	Intervals       int             `json:"intervals"`
	CampaignNs      int64           `json:"campaign_ns,omitempty"`
	CoverageIXPs    int             `json:"coverage_ixps,omitempty"`
	GreedyIXPs      int             `json:"greedy_ixps,omitempty"`
}

func (e *Engine) header() header {
	world := e.worldCfg
	world.Workers = 0 // runtime-only: a regeneration picks its own
	return header{
		World:           world,
		GenesisDigest:   e.genesis,
		Seed:            e.cfg.Seed,
		ChurnIXPs:       e.cfg.ChurnIXPs,
		ChurnJoins:      e.cfg.ChurnJoins,
		ChurnLeaves:     e.cfg.ChurnLeaves,
		TrafficDrift:    e.cfg.TrafficDrift,
		DiurnalDrift:    e.cfg.DiurnalDrift,
		PriceDrift:      e.cfg.PriceDrift,
		OutageRate:      e.cfg.OutageRate,
		CheckpointEvery: e.cfg.CheckpointEvery,
		MeasureSeed:     e.cfg.Pipeline.MeasureSeed,
		TrafficSeed:     e.cfg.Pipeline.TrafficSeed,
		Intervals:       e.cfg.Pipeline.Intervals,
		CampaignNs:      int64(e.cfg.Pipeline.Campaign.Duration),
		CoverageIXPs:    e.cfg.Pipeline.CoverageIXPs,
		GreedyIXPs:      e.cfg.Pipeline.GreedyIXPs,
	}
}

// merge overlays the header's timeline-defining knobs onto a caller
// config, keeping only the caller's runtime knobs (workers, faults,
// shared caches). The journal is the source of truth for anything that
// shapes results: a resumed run must generate exactly the future the
// original would have.
func (h header) merge(cfg Config) Config {
	cfg.Seed = h.Seed
	cfg.ChurnIXPs = h.ChurnIXPs
	cfg.ChurnJoins = h.ChurnJoins
	cfg.ChurnLeaves = h.ChurnLeaves
	cfg.TrafficDrift = h.TrafficDrift
	cfg.DiurnalDrift = h.DiurnalDrift
	cfg.PriceDrift = h.PriceDrift
	cfg.OutageRate = h.OutageRate
	cfg.CheckpointEvery = h.CheckpointEvery
	cfg.Pipeline.MeasureSeed = h.MeasureSeed
	cfg.Pipeline.TrafficSeed = h.TrafficSeed
	cfg.Pipeline.Intervals = h.Intervals
	cfg.Pipeline.Campaign.Duration = time.Duration(h.CampaignNs)
	cfg.Pipeline.CoverageIXPs = h.CoverageIXPs
	cfg.Pipeline.GreedyIXPs = h.GreedyIXPs
	return cfg
}

// Open attaches an engine to an evolution directory. A fresh directory
// starts a new timeline: the genesis world is evaluated, and a journal is
// created recording its recipe. An existing journal is recovered — torn
// tail truncated, newest digest-valid checkpoint attached, tail records
// replayed, one evaluation rebuilding the artifacts — and the engine
// continues exactly where the previous process would have: the recovered
// state is byte-identical to an uninterrupted run at the same tick
// (pinned by the replay-equivalence suite). With an existing journal,
// genesis may be nil (the world regenerates from the recorded recipe); a
// provided world must match the recorded genesis digest.
func Open(ctx context.Context, dir string, genesis *worldgen.World, cfg Config) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tick: %w", err)
	}
	path := filepath.Join(dir, JournalFile)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		if genesis == nil {
			return nil, fmt.Errorf("tick: a new journal in %s needs a genesis world", dir)
		}
		e, err := New(ctx, genesis, cfg)
		if err != nil {
			return nil, err
		}
		hb, err := json.Marshal(e.header())
		if err != nil {
			return nil, fmt.Errorf("tick: encode header: %w", err)
		}
		jr, err := journal.Create(path, hb)
		if err != nil {
			return nil, err
		}
		jr.SetSyncPolicy(cfg.Fsync)
		jr.SetMetrics(cfg.Metrics.journalMetrics())
		e.jr, e.dir = jr, dir
		return e, nil
	}
	return recoverDir(ctx, dir, path, genesis, cfg)
}

func recoverDir(ctx context.Context, dir, path string, genesis *worldgen.World, cfg Config) (*Engine, error) {
	c, jr, err := journal.Recover(path)
	if err != nil {
		return nil, err
	}
	var hdr header
	if err := json.Unmarshal(c.Header, &hdr); err != nil {
		jr.Close()
		return nil, fmt.Errorf("%w: journal header: %v", journal.ErrCorrupt, err)
	}
	cfg = hdr.merge(cfg)
	if genesis == nil {
		if genesis, err = worldgen.Generate(hdr.World); err != nil {
			jr.Close()
			return nil, fmt.Errorf("tick: regenerate genesis: %w", err)
		}
	}
	e, err := newEngine(genesis, cfg)
	if err != nil {
		jr.Close()
		return nil, err
	}
	if e.genesis != hdr.GenesisDigest {
		jr.Close()
		return nil, fmt.Errorf("tick: journal %s grew from world %.12s…, given world is %.12s…",
			dir, hdr.GenesisDigest, e.genesis)
	}

	// Adopt the newest checkpoint whose snapshot still matches its
	// recorded digest; damaged or missing checkpoints fall back to older
	// ones, and ultimately to genesis replay. OpenFile releases each
	// candidate's mapping once it has materialized.
	for i := len(c.Checkpoints) - 1; i >= 0; i-- {
		cp := c.Checkpoints[i]
		snap, err := snapshot.OpenFile(filepath.Join(dir, cp.File))
		if err != nil || snap.Digest != cp.Digest || snap.Tick == nil || snap.Tick.Tick != cp.Tick {
			continue
		}
		e.es = &scenario.EvolveState{World: snap.World, Traffic: snap.Tick.Traffic, Econ: snap.Tick.Econ}
		e.tick = cp.Tick
		break
	}
	var tail []journal.Record
	for _, r := range c.Records {
		if r.Tick > e.tick {
			tail = append(tail, r)
		}
	}
	if err := e.replay(ctx, tail, false); err != nil {
		jr.Close()
		return nil, err
	}
	jr.SetSyncPolicy(cfg.Fsync)
	jr.SetMetrics(cfg.Metrics.journalMetrics())
	e.jr, e.dir = jr, dir
	cfg.Metrics.observeRecovery(len(tail))
	return e, nil
}

// Replay rebuilds an engine by replaying a recorded history over a
// genesis world. With evalEach, every tick runs the stage pipeline
// exactly as the live run did — per-tick metrics land in the history and
// each evaluation splices the previous one; without it, only the world
// and regime evolve and a single full evaluation at the end rebuilds the
// artifacts. Stage determinism makes the two byte-identical, which is
// precisely what the replay-equivalence suite pins.
func Replay(ctx context.Context, genesis *worldgen.World, cfg Config, recs []journal.Record, evalEach bool) (*Engine, error) {
	e, err := newEngine(genesis, cfg)
	if err != nil {
		return nil, err
	}
	if evalEach {
		if err := e.evalGenesis(ctx); err != nil {
			return nil, err
		}
	}
	if err := e.replay(ctx, recs, evalEach); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) replay(ctx context.Context, recs []journal.Record, evalEach bool) error {
	for _, r := range recs {
		if r.Tick != e.tick+1 {
			return fmt.Errorf("%w: record for tick %d follows tick %d", journal.ErrCorrupt, r.Tick, e.tick)
		}
		ops := make([]scenario.Op, 0, len(r.Events))
		for _, ev := range r.Events {
			op, err := scenario.ParseOp(ev)
			if err != nil {
				return fmt.Errorf("tick %d: %w", r.Tick, err)
			}
			ops = append(ops, op)
		}
		staged, d, err := e.stage(ops, r.StreamKey)
		if err != nil {
			return fmt.Errorf("tick %d: %w", r.Tick, err)
		}
		res := Result{Tick: r.Tick, Events: r.Events, Stages: d.Stages().String()}
		if evalEach {
			art, err := scenario.EvalEvolved(ctx, staged, d, e.art, e.cfg.Pipeline)
			if err != nil {
				return err
			}
			e.art = art
			res.Metrics = art.Metrics
		}
		e.es, e.tick = staged, r.Tick
		e.hist = append(e.hist, res)
	}
	if !evalEach {
		art, err := scenario.EvalEvolved(ctx, e.es, scenario.Dirty{}, nil, e.cfg.Pipeline)
		if err != nil {
			return err
		}
		e.art = art
		if n := len(e.hist); n > 0 {
			e.hist[n-1].Metrics = art.Metrics
		} else {
			e.hist = []Result{{Tick: e.tick, Stages: scenario.StageAll.String(), Metrics: art.Metrics}}
		}
	}
	return nil
}
