package scenario

import (
	"sync"

	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
)

// Baseline holds one world view's baseline parts — a campaign and a
// traffic dataset — for every run over that view to reuse. It starts
// from the parts the view already carries (a snapshot's persisted
// sections, or a live world's current artifacts) and keeps, beside them,
// the most recently computed part of each kind — one slot each, so runs
// that interleave different keys evict each other and compute again. A
// part stands in for a computation only when its recorded inputs equal
// the request's key exactly. A computed campaign is held as its per-IXP verdicts and truth
// tables, never its raw observations.
//
// A Baseline is safe for concurrent use. Concurrent first uses may each
// compute a part; they compute the same bytes, and the last store wins.
// All methods are nil-safe: a nil Baseline holds nothing.
type Baseline struct {
	spread *spread.Result
	ds     *netflow.Dataset

	mu         sync.Mutex
	heldSpread *spread.Result
	heldDS     *netflow.Dataset
}

// NewBaseline returns a holder over a view's own parts (either may be
// nil).
func NewBaseline(sp *spread.Result, ds *netflow.Dataset) *Baseline {
	return &Baseline{spread: sp, ds: ds}
}

// Campaign returns a held campaign measured under exactly k's inputs.
func (b *Baseline) Campaign(k spread.CampaignKey) (*spread.Result, bool) {
	if b == nil {
		return nil, false
	}
	if k.Matches(b.spread) {
		return b.spread, true
	}
	b.mu.Lock()
	r := b.heldSpread
	b.mu.Unlock()
	if k.Matches(r) {
		return r, true
	}
	return nil, false
}

// Traffic returns a held dataset collected under exactly key's inputs.
func (b *Baseline) Traffic(key netflow.Config) (*netflow.Dataset, bool) {
	if b == nil {
		return nil, false
	}
	if key.Matches(b.ds) {
		return b.ds, true
	}
	b.mu.Lock()
	ds := b.heldDS
	b.mu.Unlock()
	if key.Matches(ds) {
		return ds, true
	}
	return nil, false
}

// StoreCampaign holds r, without its raw observations, as the most
// recently computed campaign.
func (b *Baseline) StoreCampaign(r *spread.Result) {
	if b == nil {
		return
	}
	held := *r
	held.Raw = nil
	b.mu.Lock()
	b.heldSpread = &held
	b.mu.Unlock()
}

// StoreTraffic holds ds as the most recently computed dataset.
func (b *Baseline) StoreTraffic(ds *netflow.Dataset) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.heldDS = ds
	b.mu.Unlock()
}

// Reset drops the computed parts, keeping the view's own.
func (b *Baseline) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.heldSpread, b.heldDS = nil, nil
	b.mu.Unlock()
}
