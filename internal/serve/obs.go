package serve

import (
	"context"
	"net/http"
	"strings"
	"time"

	"remotepeering/internal/obs"
)

// serveMetrics is the server's slice of the metrics registry. A nil
// *serveMetrics (no registry configured) disables everything: every
// method is nil-safe and the handles inside are never touched.
type serveMetrics struct {
	requests       *obs.HistogramVec // rp_serve_request_seconds{class=...}
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheHitBytes  *obs.Counter
	cacheMissBytes *obs.Counter
	// baseline counts baseline parts by [part][held]:
	// rp_serve_baseline_total{part="campaign|traffic|offload",outcome="computed|held"}.
	baseline [3][2]*obs.Counter
}

// Baseline parts, indexing serveMetrics.baseline.
const (
	partCampaign = iota
	partTraffic
	partOffload
)

var (
	partNames    = [3]string{"campaign", "traffic", "offload"}
	outcomeNames = [2]string{"computed", "held"}
)

// instrument registers the serve scheduler's surface on reg and returns
// the hot-path handles. The existing atomic counters stay authoritative
// — /v1/healthz and the dedup tests keep reading them — and the
// registry mirrors them through value functions.
func (s *Server) instrument(reg *obs.Registry) *serveMetrics {
	if reg == nil {
		return nil
	}
	reg.CounterFunc("rp_serve_evaluations_total", "Leader computations performed (dedup'd, uncached work).", s.Evaluations)
	reg.CounterFunc("rp_serve_panics_total", "Evaluation panics recovered by the scheduler.", s.Panics)
	reg.CounterFunc("rp_serve_shed_total", "Requests rejected by admission control.", s.Shed)
	reg.GaugeFunc("rp_serve_pending", "Distinct computations queued or running.",
		func() float64 { return float64(s.Pending()) })
	reg.GaugeFunc("rp_serve_inflight", "Evaluations currently holding a scheduler slot.",
		func() float64 { return float64(len(s.sem)) })
	reg.GaugeFunc("rp_serve_live_worlds", "Worlds with a running tick engine.",
		func() float64 { return float64(s.LiveWorlds()) })
	reg.GaugeFunc("rp_serve_cache_entries", "Bodies resident in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("rp_serve_cache_bytes", "Bytes resident in the result cache.",
		func() float64 { return float64(s.cache.Bytes()) })
	m := &serveMetrics{
		requests:       reg.HistogramVec("rp_serve_request_seconds", "Request latency by endpoint class.", "class"),
		cacheHits:      reg.Counter("rp_serve_cache_hits_total", "Queries answered from the result cache."),
		cacheMisses:    reg.Counter("rp_serve_cache_misses_total", "Queries that ran (or joined) a computation."),
		cacheHitBytes:  reg.Counter("rp_serve_cache_hit_bytes_total", "Bytes served from the result cache."),
		cacheMissBytes: reg.Counter("rp_serve_cache_miss_bytes_total", "Bytes served from fresh computations."),
	}
	for part, name := range partNames {
		for held, outcome := range outcomeNames {
			m.baseline[part][held] = reg.Counter("rp_serve_baseline_total",
				"Baseline parts a computation took from its world view's holder (held) or computed.",
				"part", name, "outcome", outcome)
		}
	}
	return m
}

// partOutcome is one baseline part a computation needed, and whether its
// world view held it.
type partOutcome struct {
	part int
	held bool
}

// noteBaseline records whether a computation held or computed each
// baseline part it needed: one counter step per part, and one "baseline"
// event on the computation's trace, inside its eval span.
func (s *Server) noteBaseline(ctx context.Context, parts ...partOutcome) {
	notes := make([]string, len(parts))
	for i, p := range parts {
		held := 0
		if p.held {
			held = 1
		}
		if s.om != nil {
			s.om.baseline[p.part][held].Inc()
		}
		notes[i] = partNames[p.part] + "=" + outcomeNames[held]
	}
	obs.TraceFromContext(ctx).Event("baseline", strings.Join(notes, " "))
}

func (m *serveMetrics) hit(n int) {
	if m == nil {
		return
	}
	m.cacheHits.Inc()
	m.cacheHitBytes.Add(int64(n))
}

func (m *serveMetrics) miss(n int) {
	if m == nil {
		return
	}
	m.cacheMisses.Inc()
	m.cacheMissBytes.Add(int64(n))
}

// observeRequest is the Instrument callback: one latency observation
// per completed request, classed by obs.EndpointClass.
func observeRequest(vec *obs.HistogramVec, r *http.Request, d time.Duration) {
	vec.With(obs.EndpointClass(r)).Observe(d)
}
