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

// EvolveState is the (world, regime) that ops perturb and the pipeline
// evaluates: a grid cell's state, discarded once its metrics are read, and
// a tick engine's, which carries op effects forward — a TrafficScale at
// tick 3 is still in force at tick 40. Ops may rewrite any of it: world
// structure (outage, churn), measurement physics (latency shift), the
// traffic regime (scale, diurnal phase) or the price vector.
type EvolveState struct {
	World *worldgen.World
	// Traffic is the evolving traffic regime: scale and diurnal-phase ops
	// mutate it cumulatively. The caller seeds it (Seed, Intervals); the
	// Workers field is overridden per evaluation and never part of state.
	Traffic netflow.Config
	// Econ is the evolving Section 5 price vector; price ops rescale it
	// cumulatively.
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

// ApplyOps applies ops in order to es, in place, drawing any op
// randomness (churn member selection) from src, and returns the combined
// dirty summary. A failed batch leaves es partly applied: callers wanting
// atomicity stage the application on a clone and drop it on error, which
// is exactly what the tick engine does. Op randomness is a pure function
// of src's stream, so replaying the same ops against the same state with
// an identically-keyed source reproduces the same world byte-for-byte.
func ApplyOps(es *EvolveState, ops []Op, src *stats.Source) (Dirty, error) {
	if es == nil || es.World == nil {
		return Dirty{}, fmt.Errorf("scenario: nil evolve state or world")
	}
	for _, op := range ops {
		if err := op.apply(es, src); err != nil {
			return Dirty{}, err
		}
	}
	return dirtyOf(ops), nil
}

// Artifacts are the products of one pipeline evaluation, a grid cell's or
// a tick's: the metrics and the immutable parts a later evaluation reuses
// for its clean stages. The spread result records its per-IXP verdicts,
// so the next cell or tick can splice clean exchanges through the spread
// reuse path.
type Artifacts struct {
	Spread  *spread.Result
	Dataset *netflow.Dataset
	Metrics Metrics
	// held reports which parts came from the run's Baseline holder.
	held HeldParts
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
	if es == nil {
		return nil, fmt.Errorf("scenario: nil evolve state")
	}
	ctx, opts, err := enter(ctx, es.World, opts)
	if err != nil {
		return nil, err
	}
	return runStages(ctx, es, d, prev, nil, opts, opts.Workers)
}
