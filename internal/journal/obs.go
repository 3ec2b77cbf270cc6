package journal

import (
	"time"

	"remotepeering/internal/obs"
)

// Metrics are the journal's observability hooks. All fields are
// nil-safe obs handles, so a journal without metrics (or with a nil
// *Metrics) runs the identical code path — the timing reads collapse
// into unused values.
type Metrics struct {
	// FsyncSeconds times each fsync issued by Commit/CommitCheckpoint.
	FsyncSeconds *obs.Histogram
	// Commits counts committed tick records.
	Commits *obs.Counter
}

// NewMetrics registers the journal family on reg. Engines attached to
// many worlds share one *Metrics — the series aggregate across worlds.
// Nil registry returns nil (disabled).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		FsyncSeconds: reg.Histogram("rp_journal_fsync_seconds", "Latency of journal fsyncs at commit and checkpoint."),
		Commits:      reg.Counter("rp_journal_commits_total", "Tick records committed to the journal."),
	}
}

// SetMetrics attaches metrics to the journal. Nil is allowed (and the
// default): observability off.
func (j *Journal) SetMetrics(m *Metrics) { j.metrics = m }

// timedSync is Sync with the fsync latency observed when metrics are
// attached.
func (j *Journal) timedSync() error {
	if j.metrics == nil {
		return j.Sync()
	}
	t0 := time.Now()
	err := j.Sync()
	j.metrics.FsyncSeconds.Observe(time.Since(t0))
	return err
}
