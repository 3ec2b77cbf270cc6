package tick

import (
	"time"

	"remotepeering/internal/journal"
	"remotepeering/internal/obs"
)

// Metrics are the tick engine's observability hooks. One *Metrics is
// shared by every engine a process runs (the serve tier passes the same
// instance to each live world), so the series aggregate across worlds.
// All handles are nil-safe; a nil *Metrics disables everything without
// branching the commit path.
type Metrics struct {
	// TickSeconds times each committed Advance, event generation through
	// journal commit.
	TickSeconds *obs.Histogram
	// Ticks counts committed ticks.
	Ticks *obs.Counter
	// CheckpointSeconds times each flat-snapshot checkpoint write.
	CheckpointSeconds *obs.Histogram
	// CheckpointBytes is the size of the most recent checkpoint file.
	CheckpointBytes *obs.Gauge
	// Checkpoints counts committed checkpoints.
	Checkpoints *obs.Counter
	// Recoveries counts journal recoveries (engine opens over an
	// existing journal).
	Recoveries *obs.Counter
	// RecoveredTicks counts tail records replayed during recoveries.
	RecoveredTicks *obs.Counter
	// Journal carries the attached journals' fsync/commit metrics.
	Journal *journal.Metrics
}

// NewMetrics registers the tick and journal families on reg. Nil
// registry returns nil (disabled).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		TickSeconds:       reg.Histogram("rp_tick_seconds", "Latency of committed tick advances."),
		Ticks:             reg.Counter("rp_tick_ticks_total", "Ticks committed by the tick engine."),
		CheckpointSeconds: reg.Histogram("rp_tick_checkpoint_seconds", "Latency of flat-snapshot checkpoint writes."),
		CheckpointBytes:   reg.Gauge("rp_tick_checkpoint_bytes", "Size of the most recently written checkpoint."),
		Checkpoints:       reg.Counter("rp_tick_checkpoints_total", "Checkpoints committed next to the journal."),
		Recoveries:        reg.Counter("rp_tick_recoveries_total", "Engine opens that recovered an existing journal."),
		RecoveredTicks:    reg.Counter("rp_tick_recovered_ticks_total", "Journal tail records replayed during recovery."),
		Journal:           journal.NewMetrics(reg),
	}
}

// journalMetrics returns the journal-layer slice of m, nil-safely.
func (m *Metrics) journalMetrics() *journal.Metrics {
	if m == nil {
		return nil
	}
	return m.Journal
}

// observe* helpers keep the engine call sites one-liners and nil-safe.

func (m *Metrics) observeTick(d time.Duration) {
	if m == nil {
		return
	}
	m.TickSeconds.Observe(d)
	m.Ticks.Inc()
}

func (m *Metrics) observeCheckpoint(d time.Duration, size int64) {
	if m == nil {
		return
	}
	m.CheckpointSeconds.Observe(d)
	m.CheckpointBytes.Set(size)
	m.Checkpoints.Inc()
}

func (m *Metrics) observeRecovery(tail int) {
	if m == nil {
		return
	}
	m.Recoveries.Inc()
	m.RecoveredTicks.Add(int64(tail))
}
