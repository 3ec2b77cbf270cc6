package scenario

import (
	"sync"

	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
)

// Baseline holds one world view's baseline parts — a campaign, a traffic
// dataset, and the baseline cell's offload read-out — for every run over
// that view to reuse. It starts from the parts the view already carries
// (a snapshot's persisted sections, or a live world's current artifacts)
// and keeps, beside them, the most recently computed part of each kind —
// one slot each, so runs that interleave different keys evict each other
// and compute again. A part stands in for a computation only when its
// recorded inputs equal the request's key exactly. A computed campaign is
// held as its per-IXP verdicts and truth tables, never its raw
// observations. The offload read-out is keyed by the exact dataset it was
// computed over and the coverage and fit depths; only the grid's baseline
// cell reads or stores it, since it is a function of the view's own world.
//
// A Baseline is safe for concurrent use. Concurrent first uses may each
// compute a part; they compute the same bytes, and the last store wins.
// All methods are nil-safe: a nil Baseline holds nothing.
type Baseline struct {
	spread *spread.Result
	ds     *netflow.Dataset

	mu          sync.Mutex
	heldSpread  *spread.Result
	heldDS      *netflow.Dataset
	heldOffload *heldReadout
}

// heldReadout is a baseline cell's metrics, of which the offload read-out
// (the fields setOffload copies) is read, with the inputs the read-out was
// computed from.
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

// offload returns held metrics whose offload read-out comes from a study
// over exactly ds, read at k exchanges with the decay fitted over fit
// steps.
func (b *Baseline) offload(ds *netflow.Dataset, k, fit int) (Metrics, bool) {
	if b == nil {
		return Metrics{}, false
	}
	b.mu.Lock()
	h := b.heldOffload
	b.mu.Unlock()
	if h == nil || h.ds != ds || h.k != k || h.fit != fit {
		return Metrics{}, false
	}
	return h.m, true
}

// storeOffload holds m's offload read-out as that of a study over ds at
// (k, fit).
func (b *Baseline) storeOffload(ds *netflow.Dataset, k, fit int, m Metrics) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.heldOffload = &heldReadout{ds: ds, k: k, fit: fit, m: m}
	b.mu.Unlock()
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
