// Package obs is the observability layer of the serve tier: a hand-rolled,
// zero-alloc-on-hot-path metrics registry (counters, gauges, fixed-bucket
// histograms — every cell an atomic), a deterministic request tracer with a
// bounded in-memory flight recorder, and the admin HTTP plane that exposes
// both alongside net/http/pprof.
//
// Two contracts shape the package:
//
//   - observability must never perturb results: nothing here is consulted
//     by any computation, and every handle is nil-safe, so a server built
//     without a registry runs the exact same code with each instrument
//     collapsing to a single nil check;
//   - the hot path never allocates: Counter.Add, Gauge.Set, and
//     Histogram.Observe touch only pre-allocated atomic cells. Allocation
//     happens at registration time and at exposition time, both cold.
//
// The exposition format is the Prometheus text format (version 0.0.4),
// written by hand — the registry deliberately has no dependencies beyond
// the standard library.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the bounds of every latency histogram, in seconds: a
// 1-2-5 ladder from 100µs to 60s. Exact request durations land on their
// bucket's upper bound at exposition time, so the ladder is also the
// resolution of every quantile a scraper derives from them.
var DefBuckets = []float64{
	0.0001, 0.0002, 0.0005,
	0.001, 0.002, 0.005,
	0.01, 0.02, 0.05,
	0.1, 0.2, 0.5,
	1, 2, 5,
	10, 30, 60,
}

// Counter is a monotonically increasing atomic cell.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. A nil Counter (disabled registry) is a
// no-op.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic cell holding a value that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores the value. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n. Nil-safe.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency histogram: one atomic cell per
// bucket plus atomic sum (nanoseconds) and count. Observe is a linear
// scan over ~18 bounds and two atomic adds — no locks, no allocation.
type Histogram struct {
	cells    []atomic.Int64 // one per DefBuckets bound
	overflow atomic.Int64   // observations above the last bound (+Inf bucket)
	sumNanos atomic.Int64
	count    atomic.Int64
}

// Observe records one duration. Nil-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	for i, b := range DefBuckets {
		if s <= b {
			h.cells[i].Add(1)
			h.sumNanos.Add(int64(d))
			h.count.Add(1)
			return
		}
	}
	h.overflow.Add(1)
	h.sumNanos.Add(int64(d))
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramVec is a family of histograms split by one label, such as
// the per-class request-latency families of the serve and fleet tiers.
// With is a single lock-free map read once a class has been observed.
type HistogramVec struct {
	reg      *Registry
	name     string
	help     string
	labelKey string
	cur      atomic.Pointer[map[string]*Histogram]
	mu       sync.Mutex // serialises inserts (copy-on-write)
}

// With returns the labeled histogram, creating (and registering) it on
// first use. Nil-safe: a nil vec returns a nil histogram.
func (v *HistogramVec) With(label string) *Histogram {
	if v == nil {
		return nil
	}
	if m := v.cur.Load(); m != nil {
		if h := (*m)[label]; h != nil {
			return h
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.cur.Load()
	if old != nil {
		if h := (*old)[label]; h != nil {
			return h
		}
	}
	h := v.reg.Histogram(v.name, v.help, v.labelKey, label)
	next := make(map[string]*Histogram, 1)
	if old != nil {
		for k, hv := range *old {
			next[k] = hv
		}
	}
	next[label] = h
	v.cur.Store(&next)
	return h
}

// --- registry ---

// series is one registered time series: a fixed (family, labels) pair
// bound to its cells or value function.
type series struct {
	labels string // rendered `{k="v",...}` or ""

	c  *Counter
	g  *Gauge
	h  *Histogram
	cf func() int64
	gf func() float64
}

// family is one metric family: every series sharing a name, exposed
// under a single # HELP / # TYPE preamble.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series []*series
}

// Registry is an ordered collection of metric families. The zero value
// is not useful — use NewRegistry. A nil *Registry is the disabled
// state: every constructor returns a nil handle whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// lookup finds or creates the family and, within it, the series for the
// rendered label set. Registration is idempotent: asking twice for the
// same (name, labels) returns the same cells.
func (r *Registry) lookup(name, help, typ string, labels []string) (*family, *series, bool) {
	lbl := renderLabels(labels)
	fam := r.index[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ}
		r.index[name] = fam
		r.families = append(r.families, fam)
	}
	for _, s := range fam.series {
		if s.labels == lbl {
			return fam, s, true
		}
	}
	s := &series{labels: lbl}
	fam.series = append(fam.series, s)
	return fam, s, false
}

// renderLabels renders key-value pairs into the exposition label form.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter registers (or returns) a counter series. Labels are key-value
// pairs: Counter("x_total", "…", "class", "GET /v1/world"). Nil-safe.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, "counter", labels)
	if !existed {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns) a gauge series. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, "gauge", labels)
	if !existed {
		s.g = &Gauge{}
	}
	return s.g
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the migration path for counters that already live
// as atomics elsewhere (catalog attaches, fault injections). Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, "counter", labels)
	if !existed {
		s.cf = fn
	}
}

// GaugeFunc registers a gauge read from fn at exposition time. Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, "gauge", labels)
	if !existed {
		s.gf = fn
	}
}

// Histogram registers (or returns) a histogram series over DefBuckets.
// Nil-safe.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, existed := r.lookup(name, help, "histogram", labels)
	if !existed {
		s.h = &Histogram{cells: make([]atomic.Int64, len(DefBuckets))}
	}
	return s.h
}

// HistogramVec registers a one-label histogram family whose members are
// created on first With. Nil-safe: a nil registry returns a nil vec.
func (r *Registry) HistogramVec(name, help, labelKey string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{reg: r, name: name, help: help, labelKey: labelKey}
}

// WritePrometheus writes every registered family in the text exposition
// format, families in registration order, series sorted by label within
// each family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	snap := make([][]*series, len(fams))
	for i, f := range fams {
		snap[i] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		ss := snap[i]
		sort.Slice(ss, func(a, c int) bool { return ss[a].labels < ss[c].labels })
		for _, s := range ss {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.h != nil:
		var cum int64
		for i, bound := range DefBuckets {
			cum += s.h.cells[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(s.labels, formatFloat(bound)), cum)
		}
		cum += s.h.overflow.Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(float64(s.h.sumNanos.Load())/1e9))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.labels, s.h.count.Load())
	case s.cf != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.cf())
	case s.gf != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gf()))
	case s.c != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.c.Value())
	case s.g != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.g.Value())
	}
}

// withLE splices the le bucket label into a rendered label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at GET /metrics in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
