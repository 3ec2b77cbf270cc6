package scenario

import (
	"context"
	"sync"

	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/worldgen"
)

// Baseline is the one get-or-compute path for a world view's baseline
// parts — a campaign, a traffic dataset, and the baseline cell's offload
// read-out. Asked for a part, it returns the one it holds when that
// part's recorded inputs equal the request's key exactly, and otherwise
// computes it and holds the result. It starts from the parts the view
// already carries (a snapshot's persisted sections, or a live world's
// current artifacts) and keeps, beside them, the most recently computed
// part of each kind — one slot each, so requests that interleave
// different keys evict each other and compute again. A computed campaign
// is held as its per-IXP verdicts and truth tables, never its raw
// observations. The offload read-out is keyed by the exact dataset it was
// computed over and the coverage and fit depths; only the grid's baseline
// cell asks for it, since it is a function of the view's own world.
//
// The grid's baseline cell, rpserve's /v1/spread and /v1/offload, and the
// rpspread, rpoffload and rpecon -load paths all ask through it. A
// Baseline is safe for concurrent use. Concurrent first uses may each
// compute a part; they compute the same bytes, and the last store wins.
// A nil Baseline holds nothing and computes every part it is asked for.
type Baseline struct {
	spread *spread.Result
	ds     *netflow.Dataset

	mu          sync.Mutex
	heldSpread  *spread.Result
	heldDS      *netflow.Dataset
	heldOffload *heldReadout
}

// heldReadout is a baseline cell's offload read-out (the fields
// setOffload copies) with the inputs it was computed from.
type heldReadout struct {
	ds     *netflow.Dataset
	k, fit int
	m      Metrics
}

// NewBaseline returns a holder over a view's own parts (either may be
// nil).
func NewBaseline(sp *spread.Result, ds *netflow.Dataset) *Baseline {
	return &Baseline{spread: sp, ds: ds}
}

// Campaign returns the campaign measured over w under exactly key's
// inputs, and whether it was held: the view's own or the held campaign
// when key matches it, and otherwise a run of key's seed, campaign,
// detector and IXPs with the given worker budget and splice source
// (spread.Options.Reuse), held without its raw observations but returned
// whole. A hit answers even after ctx is done; a miss then returns
// ctx.Err().
func (b *Baseline) Campaign(ctx context.Context, w *worldgen.World, key spread.CampaignKey, workers int, reuse *spread.Reuse) (*spread.Result, bool, error) {
	if b != nil {
		if key.Matches(b.spread) {
			return b.spread, true, nil
		}
		b.mu.Lock()
		r := b.heldSpread
		b.mu.Unlock()
		if key.Matches(r) {
			return r, true, nil
		}
	}
	r, err := spread.RunCtx(ctx, w, spread.Options{
		Seed:     key.Seed,
		Campaign: key.Campaign,
		Detector: key.Detector,
		IXPs:     key.IXPs,
		Workers:  workers,
		Reuse:    reuse,
	})
	if err != nil {
		return nil, false, err
	}
	if b != nil {
		held := *r
		held.Raw = nil
		b.mu.Lock()
		b.heldSpread = &held
		b.mu.Unlock()
	}
	return r, false, nil
}

// Traffic returns the dataset of cfg over w, and whether it was held:
// the view's own or the held dataset when cfg matches it, and otherwise
// netflow.Price(from, w, cfg), held.
func (b *Baseline) Traffic(w *worldgen.World, cfg netflow.Config, from *netflow.Dataset) (*netflow.Dataset, bool, error) {
	if b != nil {
		if cfg.Matches(b.ds) {
			return b.ds, true, nil
		}
		b.mu.Lock()
		ds := b.heldDS
		b.mu.Unlock()
		if cfg.Matches(ds) {
			return ds, true, nil
		}
	}
	ds, err := netflow.Price(from, w, cfg)
	if err != nil {
		return nil, false, err
	}
	if b != nil {
		b.mu.Lock()
		b.heldDS = ds
		b.mu.Unlock()
	}
	return ds, false, nil
}

// offload returns the offload read-out of a study over exactly ds, read
// at k exchanges with the decay fitted over fit steps, and whether it was
// held: the held one when its inputs are these, and otherwise compute's,
// held.
func (b *Baseline) offload(ds *netflow.Dataset, k, fit int, compute func() (Metrics, error)) (Metrics, bool, error) {
	if b != nil {
		b.mu.Lock()
		h := b.heldOffload
		b.mu.Unlock()
		if h != nil && h.ds == ds && h.k == k && h.fit == fit {
			return h.m, true, nil
		}
	}
	m, err := compute()
	if err != nil {
		return Metrics{}, false, err
	}
	if b != nil {
		b.mu.Lock()
		b.heldOffload = &heldReadout{ds: ds, k: k, fit: fit, m: m}
		b.mu.Unlock()
	}
	return m, false, nil
}

// Reset drops the computed parts, keeping the view's own.
func (b *Baseline) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.heldSpread, b.heldDS, b.heldOffload = nil, nil, nil
	b.mu.Unlock()
}
