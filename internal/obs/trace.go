package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ContextWithTrace installs a Trace on a context. Instrument does this
// for every request; the serve scheduler re-installs the leader's trace
// on the detached computation context so attach/eval spans survive the
// request→computation handoff.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFromContext returns the context's Trace, or nil. All Trace
// methods are nil-safe, so callers use the result unconditionally.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceHeader carries the trace ID router→worker, so one client request
// yields one ID across every forward and failover leg.
const TraceHeader = "X-RP-Trace"

// TraceID derives the deterministic trace ID for a request: the first
// 8 bytes of SHA-256(digest NUL canonical NUL attempt), hex-encoded.
// The same (world, query) always traces under the same ID, which is
// what makes flight-recorder diffs between two runs line up.
func TraceID(digest, canonical string, attempt int) string {
	h := sha256.New()
	h.Write([]byte(digest))
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(attempt)))
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])[:8])
}

// Span is one timed step inside a request: queue wait, attach, eval,
// cache hit, a forward or failover leg.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start"` // offset from request start
	Dur   time.Duration `json:"dur"`
	Note  string        `json:"note,omitempty"`
}

// Trace accumulates spans for one in-flight request. Methods are
// nil-safe and mutex-guarded — a worker's computation appends from its
// own goroutine while the request that founded it may still be live.
type Trace struct {
	mu    sync.Mutex
	id    string
	start time.Time
	spans []Span
}

// NewTrace starts a trace with the given ID (empty is allowed; a
// handler that derives the real deterministic ID later calls EnsureID).
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// EnsureID sets the trace ID if none was propagated in. It returns the
// effective ID, so callers forward whichever of (inherited, derived)
// won. Nil-safe.
func (t *Trace) EnsureID(id string) string {
	if t == nil {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.id == "" {
		t.id = id
	}
	return t.id
}

// Begin opens a span; call the returned func to close it. Nil-safe:
// on a nil trace the returned closure is a no-op.
func (t *Trace) Begin(name string) func() {
	if t == nil {
		return func() {}
	}
	s0 := time.Now()
	return func() {
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Start: s0.Sub(t.start), Dur: time.Since(s0)})
		t.mu.Unlock()
	}
}

// Add records an already-measured span. Nil-safe.
func (t *Trace) Add(name, note string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.start), Dur: dur, Note: note})
	t.mu.Unlock()
}

// Event records an instantaneous marker span. Nil-safe.
func (t *Trace) Event(name, note string) {
	t.Add(name, note, time.Now(), 0)
}

func (t *Trace) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Record is one completed request as the flight recorder keeps it.
type Record struct {
	Trace  string        `json:"trace"`
	Method string        `json:"method"`
	Path   string        `json:"path"`
	Status int           `json:"status"`
	Dur    time.Duration `json:"dur"`
	Start  time.Time     `json:"start"`
	Spans  []Span        `json:"spans,omitempty"`
}

// FlightRecorder is a bounded ring of recently completed requests,
// queryable at GET /debug/requests. It is the "what just happened"
// plane: when a 5xx flies, its record is also dumped through the
// structured logger so the evidence survives the ring.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []Record
	next int
	full bool
	log  *slog.Logger
}

// NewFlightRecorder returns a recorder keeping the last n requests
// (n <= 0 defaults to 256).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 256
	}
	return &FlightRecorder{ring: make([]Record, n)}
}

// SetLogger installs the logger used for 5xx dumps. Nil-safe.
func (fr *FlightRecorder) SetLogger(l *slog.Logger) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.log = l
	fr.mu.Unlock()
}

// Record appends one completed request. Nil-safe.
func (fr *FlightRecorder) Record(rec Record) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.ring[fr.next] = rec
	fr.next++
	if fr.next == len(fr.ring) {
		fr.next = 0
		fr.full = true
	}
	logger := fr.log
	fr.mu.Unlock()
	if rec.Status >= 500 && logger != nil {
		spans, _ := json.Marshal(rec.Spans)
		logger.Error("request failed",
			"trace", rec.Trace, "method", rec.Method, "path", rec.Path,
			"status", rec.Status, "dur", rec.Dur, "spans", string(spans))
	}
}

// Records returns the retained records, oldest first, optionally
// filtered to one trace ID. Nil-safe (returns nil).
func (fr *FlightRecorder) Records(trace string) []Record {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	var out []Record
	emit := func(r Record) {
		if r.Trace == "" && r.Method == "" {
			return // unwritten slot
		}
		if trace == "" || r.Trace == trace {
			out = append(out, r)
		}
	}
	if fr.full {
		for _, r := range fr.ring[fr.next:] {
			emit(r)
		}
	}
	for _, r := range fr.ring[:fr.next] {
		emit(r)
	}
	return out
}

// Handler serves GET /debug/requests?trace=<id>&limit=<n>: the retained
// records as JSON, newest last.
func (fr *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs := fr.Records(r.URL.Query().Get("trace"))
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(recs) {
				recs = recs[len(recs)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Requests []Record `json:"requests"`
		}{recs})
	})
}

// --- request middleware ---

type traceKey struct{}

type traceCarrier struct {
	http.ResponseWriter
	status int
	trace  *Trace
}

func (tc *traceCarrier) WriteHeader(code int) {
	if tc.status == 0 {
		tc.status = code
	}
	tc.ResponseWriter.WriteHeader(code)
}

func (tc *traceCarrier) Write(b []byte) (int, error) {
	if tc.status == 0 {
		tc.status = http.StatusOK
	}
	return tc.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports streaming —
// the live-view SSE path needs this through the middleware.
func (tc *traceCarrier) Flush() {
	if f, ok := tc.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TraceFrom returns the request's Trace installed by Instrument, or nil
// when the handler runs uninstrumented — every caller is nil-safe.
func TraceFrom(r *http.Request) *Trace {
	t, _ := r.Context().Value(traceKey{}).(*Trace)
	return t
}

// Instrument wraps an HTTP handler with tracing and recording: it opens
// a Trace per request (inheriting the ID from the X-RP-Trace header if
// the router upstream set one), exposes it via TraceFrom, and on
// completion hands the finished record to the flight recorder and the
// observe callback (which feeds the latency histograms). Either of
// rec/observe may be nil.
func Instrument(h http.Handler, rec *FlightRecorder, observe func(r *http.Request, status int, d time.Duration)) http.Handler {
	if rec == nil && observe == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := NewTrace(r.Header.Get(TraceHeader))
		tc := &traceCarrier{ResponseWriter: w, trace: tr}
		r = r.WithContext(ContextWithTrace(r.Context(), tr))
		h.ServeHTTP(tc, r)
		if tc.status == 0 {
			tc.status = http.StatusOK
		}
		d := time.Since(tr.start)
		if observe != nil {
			observe(r, tc.status, d)
		}
		if rec != nil {
			id := tr.ID()
			if id == "" {
				// Handlers that never derived a deterministic ID (healthz,
				// worlds listings) still trace under a stable request-shaped
				// ID; plain method+path is deterministic and costs no hash.
				id = r.Method + " " + r.URL.Path
			}
			rec.Record(Record{
				Trace: id, Method: r.Method, Path: r.URL.Path,
				Status: tc.status, Dur: d, Start: tr.start, Spans: tr.snapshot(),
			})
		}
	})
}
