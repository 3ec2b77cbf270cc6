package scenario

import (
	"context"
	"fmt"

	"remotepeering/internal/econ"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

// EvolveState is the mutable (world, regime) a tick engine advances in
// place over time — the counterpart of the grid's copy-on-write per-cell
// state. Unlike a grid cell, whose perturbation is discarded after its
// metrics are read, an evolved state carries op effects forward: a
// TrafficScale at tick 3 is still in force at tick 40.
type EvolveState struct {
	World *worldgen.World
	// Traffic is the evolving traffic regime: scale and diurnal-phase ops
	// mutate it cumulatively. The caller seeds it (Seed, Intervals); the
	// Workers field is overridden per evaluation and never part of state.
	Traffic netflow.Config
	// Econ is the evolving Section 5 price vector; price-walk ops rescale
	// it cumulatively.
	Econ econ.Params
}

// Dirty summarises the invalidation of one applied op batch: the union of
// the ops' direct stage masks plus which studied-IXP simulations must
// re-run. The zero value means "nothing changed" (an empty tick).
type Dirty struct {
	// Direct is the union of the ops' stage masks before downstream
	// closure; Stages() adds the closure.
	Direct StageMask
	// AllSims marks a global-physics change that invalidates every IXP
	// simulation; Sims lists individually-touched exchanges by acronym.
	AllSims bool
	Sims    []string
}

// Stages returns the closed dirty mask (world ⇒ everything,
// traffic ⇒ offload ⇒ econ).
func (d Dirty) Stages() StageMask { return closeStages(d.Direct) }

// dirtyOf summarises the invalidation of an op list.
func dirtyOf(ops []Op) Dirty {
	var d Dirty
	for _, op := range ops {
		d.Direct |= op.stages()
		all, list := op.dirtySims()
		d.AllSims = d.AllSims || all
		d.Sims = append(d.Sims, list...)
	}
	return d
}

// ApplyOps applies ops in order to es, drawing any op randomness (churn
// member selection) from src, and returns the combined dirty summary.
// The world is mutated in place — callers wanting atomicity stage the
// application on a clone and swap on success, which is exactly what the
// tick engine does. Op randomness is a pure function of src's stream, so
// replaying the same ops against the same state with an identically-keyed
// source reproduces the same world byte-for-byte.
func ApplyOps(es *EvolveState, ops []Op, src *stats.Source) (Dirty, error) {
	if es == nil || es.World == nil {
		return Dirty{}, fmt.Errorf("scenario: nil evolve state or world")
	}
	st := &state{World: es.World, Traffic: es.Traffic, Econ: es.Econ, src: src}
	for _, op := range ops {
		if err := op.apply(st); err != nil {
			return Dirty{}, err
		}
	}
	es.World = st.World
	es.Traffic = st.Traffic
	es.Econ = st.Econ
	return dirtyOf(ops), nil
}

// Artifacts are the retained products of one full pipeline evaluation
// over an evolved state: the exported mirror of the grid's internal
// cellArtifacts. The spread result records its per-IXP verdicts, so the
// next tick can splice clean exchanges through the spread reuse path.
type Artifacts struct {
	Spread  *spread.Result
	Dataset *netflow.Dataset
	Metrics Metrics
}

// EvalEvolved runs the paper pipeline over an evolved state, re-running
// exactly the stages d marks dirty and splicing prev's artifacts for the
// clean ones (prev == nil, or opts.NoReuse, forces a full cold run). It
// shares runStages with the grid's evalCell, so the stage-reuse contract
// — a reusing evaluation is byte-identical to a full rerun at any worker
// count — is one implementation, pinned by one equivalence suite.
//
// opts supplies the pipeline knobs (seeds, campaign, detector, coverage
// depths, workers, cone cache); es supplies the evolving world, traffic
// regime, and price vector. opts.Econ is ignored — the evolving vector in
// es.Econ is authoritative.
func EvalEvolved(ctx context.Context, es *EvolveState, d Dirty, prev *Artifacts, opts Options) (*Artifacts, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if es == nil || es.World == nil {
		return nil, fmt.Errorf("scenario: nil evolve state or world")
	}
	if !es.World.Graph.Frozen() {
		return nil, fmt.Errorf("scenario: world graph is not frozen (world not from Generate or topo.Restore?)")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("scenario: negative Workers %d (use 0 for one per CPU)", opts.Workers)
	}
	opts = opts.withDefaults()

	var base *cellArtifacts
	if prev != nil {
		base = &cellArtifacts{spread: prev.Spread, ds: prev.Dataset, m: prev.Metrics}
	}

	tr := es.Traffic
	tr.Workers = opts.Workers
	st := &state{
		World:   es.World,
		Traffic: tr,
		Spread: spread.Options{
			Seed:     opts.MeasureSeed,
			Workers:  opts.Workers,
			Campaign: opts.Campaign,
			Detector: opts.Detector,
		},
		Econ: es.Econ,
	}
	art, err := runStages(ctx, st, d, base, nil, opts, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &Artifacts{Spread: art.spread, Dataset: art.ds, Metrics: art.m}, nil
}
