package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/spread"
	"remotepeering/internal/worldgen"
)

// testServer builds a server over a reduced-scale snapshot shared by the
// package tests: world + dataset + a short persisted campaign.
var (
	testSrvOnce sync.Once
	testSrvVal  *Server
	testSrvErr  error
	testSnapVal *snapshot.Snapshot
)

func testServer(t testing.TB) *Server {
	t.Helper()
	testSrvOnce.Do(func() {
		w, err := worldgen.Generate(worldgen.Config{Seed: 3, LeafNetworks: 1500})
		if err != nil {
			testSrvErr = err
			return
		}
		ds, err := netflow.Collect(w, netflow.Config{Seed: 5, Intervals: 288})
		if err != nil {
			testSrvErr = err
			return
		}
		// The campaign /v1/spread?seed=7&days=8 asks for: the paper's
		// probing regime and detector over every studied IXP.
		sp, err := spread.Run(w, spread.Options{
			Seed:     7,
			Campaign: lg.Config{Duration: 8 * 24 * time.Hour},
		})
		if err != nil {
			testSrvErr = err
			return
		}
		// Round-trip through the flat container so the tests exercise
		// exactly what a production server sees: rehydrated artifacts, a
		// real digest.
		var buf bytes.Buffer
		if _, err := snapshot.WriteFlat(&buf, &snapshot.Snapshot{World: w, Dataset: ds, Spread: sp}); err != nil {
			testSrvErr = err
			return
		}
		a, err := snapshot.AttachBytes(buf.Bytes())
		if err != nil {
			testSrvErr = err
			return
		}
		snap, err := a.Snapshot()
		if err != nil {
			testSrvErr = err
			return
		}
		testSnapVal = snap
		testSrvVal, testSrvErr = New(Config{Snapshot: snap, MaxInflight: 2, CacheMB: 8})
	})
	if testSrvErr != nil {
		t.Fatal(testSrvErr)
	}
	return testSrvVal
}

func get(t testing.TB, h http.Handler, url string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, body
}

func TestWorldEndpoint(t *testing.T) {
	s := testServer(t)
	status, _, body := get(t, s.Handler(), "/v1/world")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp worldResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Digest == "" || resp.Networks == 0 || resp.IXPs != 65 {
		t.Errorf("implausible world summary: %+v", resp)
	}
	if !resp.HasDataset || !resp.HasSpread {
		t.Errorf("snapshot layers missing from summary: %+v", resp)
	}
}

func TestSpreadServedFromSnapshot(t *testing.T) {
	s := testServer(t)
	before := s.Evaluations()
	status, _, body := get(t, s.Handler(), "/v1/spread")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp spreadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seed != 7 {
		t.Errorf("default seed should be the persisted campaign's (7), got %d", resp.Seed)
	}
	if resp.Observations == 0 || resp.AnalyzedIfaces == 0 {
		t.Errorf("empty spread summary: %+v", resp)
	}
	// The evaluation consumed a scheduler slot, but no discrete-event
	// simulation ran (the summary came from the persisted campaign) —
	// repeated queries now come from cache without evaluating at all.
	mid := s.Evaluations()
	if mid != before+1 {
		t.Errorf("first query ran %d evaluations, want 1", mid-before)
	}
	status2, hdr2, body2 := get(t, s.Handler(), "/v1/spread")
	if status2 != http.StatusOK || hdr2.Get("X-Cache") != "hit" {
		t.Errorf("repeat query: status %d, X-Cache %q", status2, hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached spread response differs from the computed one")
	}
	if got := s.Evaluations(); got != mid {
		t.Errorf("cache hit still evaluated (%d → %d)", mid, got)
	}
}

func TestOffloadEndpoint(t *testing.T) {
	s := testServer(t)
	status, _, body := get(t, s.Handler(), "/v1/offload?group=4&k=3&greedy=10")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp offloadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PotentialPeers == 0 || len(resp.Steps) != 10 || resp.OffloadedFrac <= 0 {
		t.Errorf("implausible offload response: peers=%d steps=%d frac=%v",
			resp.PotentialPeers, len(resp.Steps), resp.OffloadedFrac)
	}
	if resp.TrafficSeed != 5 {
		t.Errorf("default traffic seed should be the dataset's (5), got %d", resp.TrafficSeed)
	}

	if st, _, b := get(t, s.Handler(), "/v1/offload?group=9"); st != http.StatusBadRequest {
		t.Errorf("bad group: status %d, body %s", st, b)
	}
}

// TestOffloadDecayFitNeedsTwoSteps pins that /v1/offload never answers a
// decay parameter it could not fit: a one-step curve (k=1&greedy=1) is a
// 400 before any evaluation, where it used to answer 200 with a
// plausible-looking "fitted_b": 0. greedy=1 with the default k=5 still
// fits over five steps.
func TestOffloadDecayFitNeedsTwoSteps(t *testing.T) {
	s := testServer(t)
	before := s.Evaluations()
	if st, _, b := get(t, s.Handler(), "/v1/offload?k=1&greedy=1&intervals=96"); st != http.StatusBadRequest {
		t.Errorf("k=1&greedy=1: status %d, want 400; body %s", st, b)
	}
	if s.Evaluations() != before {
		t.Error("k=1&greedy=1 evaluated a curve it cannot fit")
	}
	st, _, body := get(t, s.Handler(), "/v1/offload?greedy=1&intervals=96")
	if st != http.StatusOK {
		t.Fatalf("greedy=1: status %d, body %s", st, body)
	}
	var resp offloadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Steps) != 5 || resp.FittedB == 0 {
		t.Errorf("greedy=1: %d steps, fitted_b %v; want 5 steps and a fitted b", len(resp.Steps), resp.FittedB)
	}
}

// TestOffloadHugeKClamped pins that a k past the IXP count answers what
// k=65 answers (the body equal except its id) instead of sizing a slice
// by the raw k. Only these two values: a k between about 1e8 and 2^45
// would ask an unclamped server for gigabytes to terabytes at once.
func TestOffloadHugeKClamped(t *testing.T) {
	s := testServer(t)
	decode := func(k string) map[string]any {
		t.Helper()
		st, _, body := get(t, s.Handler(), "/v1/offload?intervals=96&greedy=8&k="+k)
		if st != http.StatusOK {
			t.Fatalf("k=%s: status %d, body %s", k, st, body)
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "id")
		return m
	}
	want := decode("65")
	panics := s.Panics()
	for _, k := range []string{"4611686018427387904", "9223372036854775807"} {
		if got := decode(k); !reflect.DeepEqual(got, want) {
			t.Errorf("k=%s: body differs from k=65's", k)
		}
	}
	if s.Panics() != panics {
		t.Errorf("a huge k panicked %d evaluations", s.Panics()-panics)
	}
}

const testGrid = "cheap-remote=remoteprice:0.5;surge=traffic:1.4"

func whatifURL() string {
	return "/v1/whatif?scenarios=" + "cheap-remote%3Dremoteprice%3A0.5%3Bsurge%3Dtraffic%3A1.4" + "&k=3&greedy=8&intervals=96&days=5"
}

func TestWhatifCacheAndReport(t *testing.T) {
	s := testServer(t)
	status, hdr, body := get(t, s.Handler(), whatifURL())
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Errorf("first query X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	var resp WhatifResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" || len(resp.Report.Cells) != 3 { // baseline + 2 scenarios
		t.Fatalf("implausible whatif response: id=%q cells=%d", resp.ID, len(resp.Report.Cells))
	}

	// Identical repeat → cache hit with identical bytes.
	status2, hdr2, body2 := get(t, s.Handler(), whatifURL())
	if status2 != http.StatusOK || hdr2.Get("X-Cache") != "hit" {
		t.Errorf("repeat: status %d, X-Cache %q", status2, hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached response differs from computed response")
	}

	// The response is retrievable by id.
	status3, _, body3 := get(t, s.Handler(), "/v1/report/"+resp.ID)
	if status3 != http.StatusOK {
		t.Fatalf("report by id: status %d", status3)
	}
	if !bytes.Equal(body, body3) {
		t.Error("/v1/report returned different bytes")
	}
	if st, _, _ := get(t, s.Handler(), "/v1/report/doesnotexist"); st != http.StatusNotFound {
		t.Errorf("unknown report id: status %d, want 404", st)
	}

	// The embedded report must match a direct batch run over the same
	// (rehydrated) world with the same knobs — the serve layer adds
	// caching, never different numbers.
	grid, err := scenario.ParseGrid(testGrid)
	if err != nil {
		t.Fatal(err)
	}
	opts := scenario.Options{
		MeasureSeed: 2, TrafficSeed: 3,
		CoverageIXPs: 3, GreedyIXPs: 8, Intervals: 96,
	}
	opts.Campaign.Duration = 5 * 24 * time.Hour
	batch, err := scenario.Run(s.single.world, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	batchJSON, err := json.MarshalIndent(batch.JSONReport(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	serveJSON, err := json.MarshalIndent(resp.Report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batchJSON, serveJSON) {
		t.Errorf("served report differs from batch run:\n--- serve ---\n%s\n--- batch ---\n%s", serveJSON, batchJSON)
	}
}

// TestWhatifDedup pins request coalescing: N concurrent identical cold
// queries must produce one evaluation and N identical responses.
func TestWhatifDedup(t *testing.T) {
	s := testServer(t)
	url := "/v1/whatif?scenarios=dedup%3Dremoteprice%3A0.7&k=2&greedy=6&intervals=96&days=4"
	const n = 8
	before := s.Evaluations()
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := get(t, s.Handler(), url)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if got := s.Evaluations() - before; got != 1 {
		t.Errorf("%d concurrent identical queries ran %d evaluations, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d got different bytes", i)
		}
	}
}

func TestWhatifBadRequests(t *testing.T) {
	s := testServer(t)
	for _, url := range []string{
		"/v1/whatif",                      // no scenarios
		"/v1/whatif?scenarios=bogus%3Aop", // unknown op
		"/v1/whatif?scenarios=x%3Dtraffic%3A1.5&seeds=abc", // bad seeds
	} {
		if st, _, body := get(t, s.Handler(), url); st != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", url, st, body)
		}
	}
}

// TestUnrunnableWhatifsRejected pins that a what-if which could only
// fail, or would silently evaluate something else, is a 400 before any
// evaluation runs: a NaN latency delta, latency or diurnal magnitudes
// whose nanoseconds overflow a time.Duration (the conversion is
// undefined), latency shifts past scenario.MaxLatencyShift alone or
// added up (9e12 ms crashed the simulator; two of them wrapped the int64
// sum), diurnal shifts whose sum overflows a time.Duration, traffic
// factors that take the totals to infinity alone or multiplied, a NaN
// traffic factor, a negative churn count, and a greedy depth of 1, which
// leaves the decay fit a single point.
func TestUnrunnableWhatifsRejected(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		method, url, body string
	}{
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dlatency%3Acity%3ANaN", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dlatency%3Acity%3A1e13", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dlatency%3Acity%3A9e12", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dlatency%3Acity%3A9e12%2Clatency%3Acity%3A9e12", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dtraffic%3A1e300", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dtraffic%3A1e200%2Ctraffic%3A1e200", ""},
		{http.MethodPost, "/v1/whatif", `{"scenarios":"x=latency:city:5e7,latency:all:5e7"}`},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Ddiurnal%3A1e300", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Ddiurnal%3A2.5e6%2Cdiurnal%3A2.5e6", ""},
		{http.MethodPost, "/v1/whatif", `{"scenarios":"x=diurnal:2.5e6,diurnal:2.5e6"}`},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dtraffic%3ANaN", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dchurn%3ADE-CIX%3A-1%3A0", ""},
		{http.MethodGet, "/v1/whatif?scenarios=x%3Dtraffic%3A1.5&greedy=1", ""},
		{http.MethodPost, "/v1/whatif", `{"scenarios":"x=traffic:1.5","greedy":1}`},
	} {
		before := s.Evaluations()
		req := httptest.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d, want 400; body %s", tc.method, tc.url, tc.body, rec.Code, rec.Body)
		}
		if s.Evaluations() != before {
			t.Errorf("%s %s %s: evaluated an unrunnable what-if", tc.method, tc.url, tc.body)
		}
	}
}

// TestNegativeKnobsRejected pins that a knob below zero is a 400, not a
// computation under its own cache key that silently ran the default.
func TestNegativeKnobsRejected(t *testing.T) {
	s := testServer(t)
	const whatif = "/v1/whatif?scenarios=x%3Dtraffic%3A1.5"
	for _, tc := range []struct {
		method, url, body string
	}{
		{http.MethodGet, "/v1/offload?intervals=-1", ""},
		{http.MethodGet, "/v1/offload?k=-2", ""},
		{http.MethodGet, "/v1/offload?greedy=-1", ""},
		{http.MethodGet, "/v1/spread?days=-3", ""},
		{http.MethodGet, whatif + "&intervals=-1", ""},
		{http.MethodGet, whatif + "&k=-2", ""},
		{http.MethodGet, whatif + "&greedy=-1", ""},
		{http.MethodGet, whatif + "&days=-1", ""},
		{http.MethodPost, "/v1/whatif", `{"scenarios":"x=traffic:1.5","k":-2}`},
		{http.MethodPost, "/v1/whatif", `{"scenarios":"x=traffic:1.5","intervals":-1}`},
		{http.MethodPost, "/v1/whatif", `{"scenarios":"x=traffic:1.5","days":-1}`},
	} {
		before := s.Evaluations()
		req := httptest.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d, want 400; body %s", tc.method, tc.url, tc.body, rec.Code, rec.Body)
		}
		if s.Evaluations() != before {
			t.Errorf("%s %s %s: evaluated a negative knob", tc.method, tc.url, tc.body)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil snapshot should fail")
	}
	s := testServer(t)
	if _, err := New(Config{Snapshot: &snapshot.Snapshot{World: s.single.world}, MaxInflight: -1}); err == nil {
		t.Error("negative MaxInflight should fail")
	}
	if _, err := New(Config{Snapshot: &snapshot.Snapshot{World: s.single.world}, Workers: -1}); err == nil {
		t.Error("negative Workers should fail")
	}
}

// TestPostWhatifBodyTooLarge pins the body cap: a POST body past
// maxWhatifBody gets 413 with a JSON error body, not an unbounded read
// into the heap.
func TestPostWhatifBodyTooLarge(t *testing.T) {
	s := testServer(t)
	payload := `{"scenarios":"` + strings.Repeat("x", maxWhatifBody+1) + `"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/whatif", strings.NewReader(payload))
	rec := httptest.NewRecorder()
	before := s.Evaluations()
	s.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	body, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %.120s)", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var errBody map[string]string
	if err := json.Unmarshal(body, &errBody); err != nil || errBody["error"] == "" {
		t.Errorf("413 body is not a JSON error: %.120s (%v)", body, err)
	}
	if s.Evaluations() != before {
		t.Error("oversized body still triggered an evaluation")
	}

	// A body exactly at the cap still parses (and fails later, on the
	// bogus scenario grid — proving the decoder read it).
	pad := strings.Repeat("x", maxWhatifBody-len(`{"scenarios":""}`))
	req = httptest.NewRequest(http.MethodPost, "/v1/whatif", strings.NewReader(`{"scenarios":"`+pad+`"}`))
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusBadRequest {
		t.Errorf("at-cap body: status %d, want 400 (bad grid)", rec.Result().StatusCode)
	}
}

// TestHTTPServerTimeoutsAndDrain pins the listener hygiene: NewHTTPServer
// sets the header-read and idle timeouts (one stalled client cannot pin a
// connection forever), deliberately leaves WriteTimeout unset (cold
// evaluations stream late), and Shutdown drains an in-flight request to
// completion instead of cutting it off.
func TestHTTPServerTimeoutsAndDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "drained")
	})
	hs := NewHTTPServer("127.0.0.1:0", h)
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.ReadTimeout <= 0 {
		t.Fatalf("timeouts unset: header=%v read=%v idle=%v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v; long evaluations need an unbounded write side", hs.WriteTimeout)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	type result struct {
		status int
		body   string
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: string(body)}
	}()

	<-started
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(ctx)
	}()
	// Shutdown is now waiting on the in-flight request; let it finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK || res.body != "drained" {
		t.Errorf("drained request: status %d body %q, want 200 %q", res.status, res.body, "drained")
	}
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestPostWhatifEquivalentToGet pins that the POST body form shares cache
// slots with the GET form (one canonicalization).
func TestPostWhatifEquivalentToGet(t *testing.T) {
	s := testServer(t)
	url := "/v1/whatif?scenarios=pp%3Dportprice%3A0.8&k=2&greedy=6&intervals=96&days=4"
	_, _, getBody := get(t, s.Handler(), url)

	payload := `{"scenarios":"pp=portprice:0.8","k":2,"greedy":6,"intervals":96,"days":4}`
	req := httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewBufferString(payload))
	rec := httptest.NewRecorder()
	before := s.Evaluations()
	s.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	postBody, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", res.StatusCode, postBody)
	}
	if res.Header.Get("X-Cache") != "hit" {
		t.Errorf("equivalent POST missed the cache (X-Cache %q)", res.Header.Get("X-Cache"))
	}
	if s.Evaluations() != before {
		t.Error("equivalent POST re-evaluated")
	}
	if !bytes.Equal(getBody, postBody) {
		t.Error("POST and GET responses differ for the same canonical query")
	}
}

// TestOverflowingDaysRejected pins that a campaign length whose duration
// overflows is a 400 on both endpoints, on a server whose campaign runs
// on pool goroutines: 106,752 days wraps to a negative duration and
// 213,504 to a ~25-minute one.
func TestOverflowingDaysRejected(t *testing.T) {
	testServer(t)
	s, err := New(Config{Snapshot: testSnapVal, MaxInflight: 2, CacheMB: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, days := range []string{"106752", "213504"} {
		for _, url := range []string{
			"/v1/spread?seed=7&days=" + days,
			"/v1/whatif?scenarios=x%3Dtraffic%3A1.5&days=" + days,
		} {
			if st, _, body := get(t, s.Handler(), url); st != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400; body %s", url, st, body)
			}
		}
		body := `{"scenarios":"x=traffic:1.5","days":` + days + `}`
		req := httptest.NewRequest(http.MethodPost, "/v1/whatif", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400; body %s", body, rec.Code, rec.Body)
		}
	}
	if n := s.Evaluations(); n != 0 {
		t.Errorf("%d evaluations ran for overflowing days", n)
	}
}
