package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"remotepeering/internal/obs"
)

// frozenConfig is a Config whose heartbeat loop effectively never fires
// again after Start()'s synchronous discovery round: membership is
// exactly what the test sets, so counter assertions can be exact
// instead of ">= 1".
func frozenConfig(peers ...string) Config {
	return Config{
		Peers:            peers,
		HeartbeatEvery:   time.Hour,
		HeartbeatTimeout: 500 * time.Millisecond,
		SuspectAfter:     1,
		DownAfter:        3,
		MaxAttempts:      3,
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
	}
}

func setState(t *testing.T, r *Router, url string, st State) {
	t.Helper()
	m := r.memberByURL(url)
	if m == nil {
		t.Fatalf("no member %s", url)
	}
	m.mu.Lock()
	m.state = st
	m.mu.Unlock()
}

// TestCounterExactness drives a deterministic request script and asserts
// the fleet counters land on exact values — not just "moved". In
// particular it pins that an orphaned world (no candidate ever tried)
// counts as unroutable, never as failovers, and that a client hang-up
// counts as neither.
func TestCounterExactness(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	w2 := newStubWorker(t, "w2", digA)
	w3 := newStubWorker(t, "w3", digB)
	r := newTestRouter(t, frozenConfig(w1.url(), w2.url(), w3.url()))

	check := func(step string, forwards, failovers, unroutable int64) {
		t.Helper()
		got := [3]int64{r.forwards.Value(), r.failovers.Value(), r.unroutable.Value()}
		want := [3]int64{forwards, failovers, unroutable}
		if got != want {
			t.Fatalf("%s: [forwards failovers unroutable] = %v, want %v", step, got, want)
		}
	}

	// Step 1: three clean forwards move forwards by exactly 3.
	for i := 0; i < 3; i++ {
		if status, _, body := routerGet(t, r, "/v1/world?world="+digA); status != http.StatusOK {
			t.Fatalf("step 1 status = %d, body %s", status, body)
		}
	}
	check("after 3 clean forwards", 3, 0, 0)

	// Step 2: the client gives up before either owner answers. Its
	// request ends on its own side — a 499, as on a worker — so nothing
	// failed over and the world is not unroutable: no counter moves.
	w1.delay.Store(int64(300 * time.Millisecond))
	w2.delay.Store(int64(300 * time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/world?world="+digA, nil).WithContext(ctx))
	cancel()
	w1.delay.Store(0)
	w2.delay.Store(0)
	if rec.Code != 499 {
		t.Fatalf("step 2 status = %d, body %s, want 499", rec.Code, rec.Body)
	}
	check("after client hang-up", 3, 0, 0)

	// Step 3: orphaned world — the only owner is Down. 503, unroutable
	// moves by exactly 1, and failovers must NOT move: no candidate was
	// ever tried, so nothing "failed over".
	w3.srv.CloseClientConnections()
	w3.srv.Close()
	setState(t, r, w3.url(), Down)
	if status, _, body := routerGet(t, r, "/v1/world?world="+digB); status != http.StatusServiceUnavailable {
		t.Fatalf("step 3 status = %d, body %s", status, body)
	}
	check("after orphaned world", 3, 0, 1)

	// Step 4: unknown world is a 404 and moves nothing — not unroutable,
	// which is reserved for worlds the fleet knows.
	if status, _, body := routerGet(t, r, "/v1/world?world=ffff"); status != http.StatusNotFound {
		t.Fatalf("step 4 status = %d, body %s", status, body)
	}
	check("after unknown world", 3, 0, 1)

	// Step 5: kill digA's primary without letting membership notice
	// (frozen heartbeats): attempt 0 fails against the corpse, attempt 1
	// succeeds on the survivor — exactly one failover.
	cands, _ := r.candidates(digA)
	owner := w1
	if cands[0].url == w2.url() {
		owner = w2
	}
	owner.srv.CloseClientConnections()
	owner.srv.Close()
	if status, _, body := routerGet(t, r, "/v1/world?world="+digA); status != http.StatusOK {
		t.Fatalf("step 5 status = %d, body %s", status, body)
	}
	check("after failover", 4, 1, 1)
}

// newTracedWorker is a stub worker wrapped in obs.Instrument with its
// own flight recorder — the shape of a real instrumented rpserve
// worker. POST /v1/tick opens a "tick-apply" span, so tests can count
// worker-side tick applications per trace.
func newTracedWorker(t *testing.T, name string, digests ...string) (*stubWorker, *obs.FlightRecorder) {
	t.Helper()
	w := &stubWorker{name: name, digests: digests}
	w.healthy.Store(true)
	rec := obs.NewFlightRecorder(0)
	inner := w.handler()
	wrapped := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/tick" {
			done := obs.TraceFrom(r).Begin("tick-apply")
			defer done()
		}
		inner.ServeHTTP(rw, r)
	})
	w.srv = httptest.NewServer(obs.Instrument(wrapped, rec, nil))
	t.Cleanup(w.srv.Close)
	return w, rec
}

func lastRecord(t *testing.T, rec *obs.FlightRecorder, method, path string) obs.Record {
	t.Helper()
	recs := rec.Records("")
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Method == method && recs[i].Path == path {
			return recs[i]
		}
	}
	t.Fatalf("no %s %s in flight recorder (%d records)", method, path, len(recs))
	return obs.Record{}
}

func hasSpan(rec obs.Record, name string) bool {
	for _, s := range rec.Spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestTracePropagation pins the one-ID-per-client-request contract: the
// trace ID the router derives shows up, via X-RP-Trace, in the flight
// recorder of every worker that served a leg — across plain forwards
// and failovers — and a routed tick applies on exactly one worker.
func TestTracePropagation(t *testing.T) {
	w1, rec1 := newTracedWorker(t, "w1", digA)
	w2, rec2 := newTracedWorker(t, "w2", digA)
	cfg := frozenConfig(w1.url(), w2.url())
	routerRec := obs.NewFlightRecorder(0)
	cfg.Recorder = routerRec
	r := newTestRouter(t, cfg)

	workerRecords := func(trace string) []obs.Record {
		return append(rec1.Records(trace), rec2.Records(trace)...)
	}
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)

	// Forwarded: the router derives the deterministic ID and exactly one
	// worker sees it.
	if status, _, body := routerGet(t, r, "/v1/world?world="+digA); status != http.StatusOK {
		t.Fatalf("forward status = %d, body %s", status, body)
	}
	fwd := lastRecord(t, routerRec, http.MethodGet, "/v1/world")
	if want := obs.TraceID(digA, "GET /v1/world?world="+digA, 0); fwd.Trace != want {
		t.Errorf("router trace = %q, want the deterministic %q", fwd.Trace, want)
	}
	if !hexID.MatchString(fwd.Trace) {
		t.Errorf("trace ID %q is not 16 hex chars", fwd.Trace)
	}
	if !hasSpan(fwd, "forward") {
		t.Errorf("router record has no forward span: %+v", fwd.Spans)
	}
	if got := workerRecords(fwd.Trace); len(got) != 1 {
		t.Errorf("trace %s seen by %d worker requests, want exactly 1", fwd.Trace, len(got))
	}

	// Routed tick: same ID router- and worker-side, and exactly one
	// worker-side application fleet-wide.
	if status, _, body := routerGet(t, r, "/v1/tick?world="+digA); status != http.StatusOK {
		t.Fatalf("tick probe status = %d, body %s", status, body)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/tick?world="+digA+"&n=1", nil)
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("tick status = %d", rw.Code)
	}
	tick := lastRecord(t, routerRec, http.MethodPost, "/v1/tick")
	applied := 0
	for _, wr := range workerRecords(tick.Trace) {
		if hasSpan(wr, "tick-apply") {
			applied++
		}
	}
	if applied != 1 {
		t.Fatalf("tick trace %s applied on %d workers, want exactly 1", tick.Trace, applied)
	}

	// Failed-over: the corpse never records the trace; the survivor does,
	// under the router's ID, and the router narrates the failover.
	cands, _ := r.candidates(digA)
	owner, survivor := w1, w2
	if cands[0].url == w2.url() {
		owner, survivor = w2, w1
	}
	owner.srv.CloseClientConnections()
	owner.srv.Close()
	if status, _, body := routerGet(t, r, "/v1/offload?world="+digA); status != http.StatusOK {
		t.Fatalf("failover status = %d, body %s", status, body)
	}
	failed := lastRecord(t, routerRec, http.MethodGet, "/v1/offload")
	if !hasSpan(failed, "failover") || !hasSpan(failed, "forward-error") {
		t.Errorf("failover record missing failover/forward-error spans: %+v", failed.Spans)
	}
	survivorRec := rec1
	if survivor == w2 {
		survivorRec = rec2
	}
	if got := survivorRec.Records(failed.Trace); len(got) != 1 {
		t.Errorf("failover trace %s seen by survivor %d times, want exactly 1", failed.Trace, len(got))
	}
	if got := workerRecords(failed.Trace); len(got) != 1 {
		t.Errorf("failover trace %s seen fleet-wide %d times, want exactly 1 (the corpse cannot record)", failed.Trace, len(got))
	}
}
