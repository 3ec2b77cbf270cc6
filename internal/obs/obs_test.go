package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsInert pins the disabled-observability contract: every
// handle obtained from a nil registry is nil, and every method on a nil
// handle is a no-op — the instrumented code paths run unchanged.
func TestNilRegistryIsInert(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "help")
	g := reg.Gauge("x", "help")
	h := reg.Histogram("x_seconds", "help")
	v := reg.HistogramVec("y_seconds", "help", "class")
	reg.CounterFunc("f_total", "help", func() int64 { return 1 })
	reg.GaugeFunc("f", "help", func() float64 { return 1 })
	if c != nil || g != nil || h != nil || v != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Add(1)
	c.Inc()
	g.Set(5)
	g.Add(-2)
	h.Observe(time.Millisecond)
	v.With("a").Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v len=%d", err, buf.Len())
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("hits_total", "hits", "class", "x")
	b := reg.Counter("hits_total", "hits", "class", "x")
	if a != b {
		t.Fatalf("same (name,labels) must return the same cell")
	}
	other := reg.Counter("hits_total", "hits", "class", "y")
	if other == a {
		t.Fatalf("distinct labels must get distinct cells")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("aliased cells out of sync")
	}
}

// TestPrometheusExposition checks the text format line shapes: HELP/TYPE
// preamble per family, cumulative buckets ending in +Inf, le label
// spliced into existing label sets, func-backed series evaluated live.
func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("req_total", "requests", "code", "200").Add(7)
	reg.Gauge("depth", "queue depth").Set(3)
	var live int64 = 41
	reg.CounterFunc("attaches_total", "attaches", func() int64 { return live })
	reg.GaugeFunc("resident_bytes", "bytes", func() float64 { return 1.5e6 })
	h := reg.Histogram("lat_seconds", "latency", "class", "whatif")
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Second)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"# HELP req_total requests\n# TYPE req_total counter\n",
		`req_total{code="200"} 7`,
		"# TYPE depth gauge",
		"depth 3",
		"attaches_total 41",
		"resident_bytes 1.5e+06",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{class="whatif",le="0.001"} 1`,
		`lat_seconds_bucket{class="whatif",le="0.01"} 2`,
		`lat_seconds_bucket{class="whatif",le="+Inf"} 3`,
		`lat_seconds_count{class="whatif"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Every non-comment line is `name[{labels}] value`.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestHistogramVecConcurrent(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("lat_seconds", "latency", "class")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.With(fmt.Sprintf("c%d", i%4)).Observe(time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for i := 0; i < 4; i++ {
		total += v.With(fmt.Sprintf("c%d", i)).Count()
	}
	if total != 800 {
		t.Fatalf("lost observations: %d/800", total)
	}
}

func TestTraceIDDeterministic(t *testing.T) {
	a := TraceID("sha256:abc", "k=3&greedy=8", 0)
	b := TraceID("sha256:abc", "k=3&greedy=8", 0)
	if a != b {
		t.Fatalf("trace ID not deterministic: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("trace ID %q: want 16 hex chars", a)
	}
	if TraceID("sha256:abc", "k=3&greedy=8", 1) == a {
		t.Fatalf("attempt must change the ID")
	}
	if TraceID("sha256:abd", "k=3&greedy=8", 0) == a {
		t.Fatalf("digest must change the ID")
	}
}

func TestFlightRecorderRingAndFilter(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		fr.Record(Record{Trace: fmt.Sprintf("t%d", i), Method: "GET", Path: "/x", Status: 200})
	}
	recs := fr.Records("")
	if len(recs) != 4 {
		t.Fatalf("ring kept %d, want 4", len(recs))
	}
	if recs[0].Trace != "t2" || recs[3].Trace != "t5" {
		t.Fatalf("ring order wrong: %v", recs)
	}
	if got := fr.Records("t4"); len(got) != 1 || got[0].Trace != "t4" {
		t.Fatalf("trace filter broken: %v", got)
	}
}

// TestInstrumentMiddleware drives a traced handler end to end: header
// inheritance, span capture, recorder write, histogram observation, and
// the 5xx slog dump.
func TestInstrumentMiddleware(t *testing.T) {
	reg := NewRegistry()
	vec := reg.HistogramVec("req_seconds", "latency", "class")
	fr := NewFlightRecorder(8)
	var logBuf bytes.Buffer
	fr.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := TraceFrom(r)
		tr.EnsureID(TraceID("sha256:w", "q=1", 0))
		done := tr.Begin("eval")
		time.Sleep(time.Millisecond)
		done()
		if r.URL.Query().Get("boom") != "" {
			http.Error(w, "kaboom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	})
	h := Instrument(inner, fr, func(r *http.Request, status int, d time.Duration) {
		vec.With(r.Method + " " + r.URL.Path).Observe(d)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Propagated ID wins over the derived one.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/world", nil)
	req.Header.Set(TraceHeader, "feedfacecafebeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	recs := fr.Records("feedfacecafebeef")
	if len(recs) != 1 {
		t.Fatalf("recorder has %d records for inherited trace, want 1", len(recs))
	}
	if len(recs[0].Spans) != 1 || recs[0].Spans[0].Name != "eval" {
		t.Fatalf("spans = %+v, want one eval span", recs[0].Spans)
	}
	if recs[0].Spans[0].Dur < time.Millisecond {
		t.Fatalf("eval span did not time the work: %v", recs[0].Spans[0].Dur)
	}

	// No header → handler-derived deterministic ID.
	resp, err = http.Get(srv.URL + "/v1/world")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := TraceID("sha256:w", "q=1", 0)
	if got := fr.Records(want); len(got) != 1 {
		t.Fatalf("derived trace %s has %d records, want 1", want, len(got))
	}

	// 5xx is dumped through slog with the trace attached.
	resp, err = http.Get(srv.URL + "/v1/world?boom=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(logBuf.String(), "status=500") || !strings.Contains(logBuf.String(), want) {
		t.Fatalf("5xx not dumped to log: %q", logBuf.String())
	}

	if vec.With("GET /v1/world").Count() != 3 {
		t.Fatalf("histogram saw %d requests, want 3", vec.With("GET /v1/world").Count())
	}
}

// TestDebugRequestsHandler checks the /debug/requests query surface.
func TestDebugRequestsHandler(t *testing.T) {
	fr := NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		fr.Record(Record{Trace: fmt.Sprintf("t%d", i), Method: "GET", Path: "/x", Status: 200})
	}
	srv := httptest.NewServer(fr.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/requests?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Requests []Record `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Requests) != 2 || out.Requests[1].Trace != "t4" {
		t.Fatalf("limit=2 gave %+v", out.Requests)
	}
}

// TestAdminHandler mounts the pprof plane and scrapes it.
func TestAdminHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "liveness").Inc()
	fr := NewFlightRecorder(4)
	srv := httptest.NewServer(AdminHandler(reg, fr))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":             "up_total 1",
		"/debug/requests":      `"requests"`,
		"/debug/pprof/":        "profile",
		"/debug/pprof/cmdline": "", // any 200 body
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s → %d", path, resp.StatusCode)
		}
		if want != "" && !strings.Contains(buf.String(), want) {
			t.Fatalf("%s missing %q in %q", path, want, buf.String())
		}
	}
}

// BenchmarkHotPath pins the zero-alloc claim on the cells the request
// path touches.
func BenchmarkHotPath(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("x_total", "x")
	h := reg.Histogram("x_seconds", "x")
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(3 * time.Millisecond)
		}
	})
	b.Run("vec-with", func(b *testing.B) {
		v := reg.HistogramVec("y_seconds", "y", "class")
		v.With("hot")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.With("hot").Observe(3 * time.Millisecond)
		}
	})
}
