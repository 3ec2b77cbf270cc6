package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/fault"
)

// stubWorker is a fake rpserve: real HTTP, canned bodies. It lets the
// routing machinery be tested without paying for world evaluation.
type stubWorker struct {
	name    string
	digests []string

	healthy atomic.Bool
	delay   atomic.Int64 // per-request sleep, nanoseconds
	hang    atomic.Bool  // accept world-scoped requests, never answer them

	ticks    atomic.Int64 // POST /v1/tick requests observed
	requests atomic.Int64 // world-scoped requests observed

	srv *httptest.Server
}

func newStubWorker(t *testing.T, name string, digests ...string) *stubWorker {
	t.Helper()
	w := &stubWorker{name: name, digests: digests}
	w.healthy.Store(true)
	w.srv = httptest.NewServer(w.handler())
	t.Cleanup(w.srv.Close)
	return w
}

func (sw *stubWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !sw.healthy.Load() {
			http.Error(w, "unhealthy", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /v1/worlds", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			Digest string `json:"digest"`
			State  string `json:"state"`
		}
		var body struct {
			Worlds []entry `json:"worlds"`
		}
		for _, d := range sw.digests {
			body.Worlds = append(body.Worlds, entry{Digest: d, State: "cold"})
		}
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if d := sw.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		sw.requests.Add(1)
		if r.Method == http.MethodPost && r.URL.Path == "/v1/tick" {
			sw.ticks.Add(1)
		}
		if sw.hang.Load() {
			// A hung process: the request is held until the caller gives
			// up on it.
			<-r.Context().Done()
			return
		}
		// The canned body names the worker so tests can tell who answered.
		fmt.Fprintf(w, `{"worker":%q,"path":%q,"world":%q}`, sw.name, r.URL.Path, r.URL.Query().Get("world"))
	})
	return mux
}

func (sw *stubWorker) url() string { return sw.srv.URL }

// fastConfig is a test Config with millisecond-scale heartbeats.
func fastConfig(peers ...string) Config {
	return Config{
		Peers:            peers,
		HeartbeatEvery:   20 * time.Millisecond,
		HeartbeatTimeout: 500 * time.Millisecond,
		SuspectAfter:     1,
		DownAfter:        3,
		MaxAttempts:      3,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
	}
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Close)
	return r
}

func routerGet(t *testing.T, r *Router, url string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, body
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const (
	digA = "aaaa000011112222333344445555666677778888999900001111222233334444"
	digB = "bbbb000011112222333344445555666677778888999900001111222233334444"
)

func TestResolvePrecedence(t *testing.T) {
	// Two synthetic members, no HTTP: resolution is pure membership math.
	shortA := "aaaa0000" // unique prefix of digA
	exact := shortA      // and also an exact digest on m2
	m1 := &member{url: "http://a", state: Up, worlds: map[string]bool{digA: true, digB: true}}
	m2 := &member{url: "http://b", state: Up, worlds: map[string]bool{exact: true}}
	r := &Router{members: []*member{m1, m2}}

	cases := []struct {
		key  string
		want string
		err  error
	}{
		{digA, digA, nil},          // full digest
		{exact, exact, nil},        // exact match beats treating it as a prefix of digA
		{"aaaa0000111", digA, nil}, // longer than the exact world: unique prefix of digA
		{"bbbb", digB, nil},        // unique prefix
		{"bbbb@7", digB, nil},      // live view suffix stripped for ownership
		{"ffff", "", catalog.ErrUnknownWorld},
		{"", "", catalog.ErrAmbiguous}, // three worlds known
	}
	for _, c := range cases {
		got, err := r.resolve(c.key)
		if c.err != nil {
			if !errors.Is(err, c.err) {
				t.Errorf("resolve(%q) err = %v, want %v", c.key, err, c.err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("resolve(%q) = %q, %v; want %q", c.key, got, err, c.want)
		}
	}

	// Ambiguity: "aaaa" prefixes both digA and the exact short world.
	if _, err := r.resolve("aaaa"); !errors.Is(err, catalog.ErrAmbiguous) {
		t.Errorf("resolve(aaaa) err = %v, want ErrAmbiguous", err)
	}
	// Single-world fleet: the empty key resolves.
	solo := &Router{members: []*member{{url: "http://a", state: Up, worlds: map[string]bool{digA: true}}}}
	if got, err := solo.resolve(""); err != nil || got != digA {
		t.Errorf("solo resolve(\"\") = %q, %v; want %s", got, err, digA)
	}
}

func TestCandidateRanking(t *testing.T) {
	mUp1 := &member{url: "http://up1", state: Up, worlds: map[string]bool{digA: true}}
	mUp2 := &member{url: "http://up2", state: Up, worlds: map[string]bool{digA: true}}
	mSus := &member{url: "http://sus", state: Suspect, worlds: map[string]bool{digA: true}}
	mDown := &member{url: "http://down", state: Down, worlds: map[string]bool{digA: true}}
	mOther := &member{url: "http://other", state: Up, worlds: map[string]bool{digB: true}}
	r := &Router{members: []*member{mSus, mDown, mUp1, mUp2, mOther}}

	cands, known := r.candidates(digA)
	if !known {
		t.Fatal("digA should be known")
	}
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3 (Down excluded, other-world excluded)", len(cands))
	}
	// Up members must outrank the Suspect one regardless of hash order.
	if cands[len(cands)-1] != mSus {
		t.Errorf("suspect member should rank last, got order %v", []string{cands[0].url, cands[1].url, cands[2].url})
	}
	// Rendezvous order of the Up pair is deterministic.
	again, _ := r.candidates(digA)
	for i := range cands {
		if cands[i] != again[i] {
			t.Fatal("candidate ranking is not stable")
		}
	}

	// All advertisers Down: known, no candidates — the orphaned world.
	mUp1.state, mUp2.state, mSus.state = Down, Down, Down
	cands, known = r.candidates(digA)
	if !known || len(cands) != 0 {
		t.Errorf("orphaned world: candidates=%d known=%v, want 0/true", len(cands), known)
	}
	if _, known := r.candidates("cccc"); known {
		t.Error("never-advertised digest should be unknown")
	}
}

func TestHeartbeatTransitions(t *testing.T) {
	w := newStubWorker(t, "w1", digA)
	r := newTestRouter(t, fastConfig(w.url()))

	// The synchronous first round already promoted it.
	if got := r.members[0].getState(); got != Up {
		t.Fatalf("after Start: state = %v, want up", got)
	}
	if !r.members[0].advertises(digA) {
		t.Fatal("worlds not learned from heartbeat")
	}

	w.healthy.Store(false)
	waitFor(t, "suspect", func() bool { return r.members[0].getState() == Suspect })
	waitFor(t, "down", func() bool { return r.members[0].getState() == Down })

	// Advertisements must survive Down — they are what keeps the world
	// answering 503 instead of 404.
	if !r.members[0].advertises(digA) {
		t.Fatal("advertisements dropped on Down")
	}

	w.healthy.Store(true)
	waitFor(t, "recovery", func() bool { return r.members[0].getState() == Up })

	// /v1/fleet reflects it all.
	status, _, body := routerGet(t, r, "/v1/fleet")
	if status != http.StatusOK {
		t.Fatalf("/v1/fleet status = %d", status)
	}
	var fr fleetResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Members) != 1 || fr.Members[0].State != "up" || len(fr.Members[0].Worlds) != 1 {
		t.Errorf("fleet view: %+v", fr)
	}
}

func TestFailoverToSurvivor(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	w2 := newStubWorker(t, "w2", digA)
	cfg := fastConfig(w1.url(), w2.url())
	cfg.HeartbeatEvery = time.Hour // freeze membership after the first round
	r := newTestRouter(t, cfg)

	// Both Up. Kill whichever the rendezvous ranks first; the router must
	// fail over to the survivor within the same request.
	cands, _ := r.candidates(digA)
	var owner, survivor *stubWorker
	if cands[0].url == w1.url() {
		owner, survivor = w1, w2
	} else {
		owner, survivor = w2, w1
	}
	owner.srv.CloseClientConnections()
	owner.srv.Close()

	status, hdr, body := routerGet(t, r, "/v1/world?world="+digA)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if got := hdr.Get("X-Fleet-Member"); got != survivor.url() {
		t.Errorf("answered by %s, want survivor %s", got, survivor.url())
	}
	if !strings.Contains(string(body), survivor.name) {
		t.Errorf("body %s does not name the survivor", body)
	}
	if r.failovers.Value() == 0 {
		t.Error("failover counter did not move")
	}
	// The world key was rewritten to the authoritative digest.
	if !strings.Contains(string(body), digA) {
		t.Errorf("worker saw an unresolved world key: %s", body)
	}
}

// TestHungOwnerFailsOverAtDown pins what the router does about an owner
// that accepts a request and never answers: once the heartbeat moves it
// to Down, the forward in flight to it is cancelled and fails over to
// the survivor like a dropped connection — while a tick, which never
// retries, answers the orphan 503 instead. Bringing the owner back Up
// must give it a fresh context, or its next forward would abort at once.
func TestHungOwnerFailsOverAtDown(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	w2 := newStubWorker(t, "w2", digA)
	r := newTestRouter(t, fastConfig(w1.url(), w2.url()))

	cands, _ := r.candidates(digA)
	owner, survivor := w1, w2
	if cands[0].url == w2.url() {
		owner, survivor = w2, w1
	}
	owner.hang.Store(true)

	// hangThenDown sends one request, waits until the owner holds it,
	// then fails the owner's heartbeats.
	hangThenDown := func(method, target string, held func() bool) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		}()
		waitFor(t, "the owner to hold the request", held)
		owner.healthy.Store(false)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			// Drop the held connection so the stub's Close can return.
			owner.srv.CloseClientConnections()
			t.Fatal("the request to the hung owner never returned")
		}
		return rec
	}

	rec := hangThenDown(http.MethodGet, "/v1/world?world="+digA,
		func() bool { return owner.requests.Load() == 1 })
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"worker":"`+survivor.name+`"`) {
		t.Fatalf("routed GET: status %d body %s, want the survivor %s's answer", rec.Code, rec.Body, survivor.name)
	}
	if got := r.memberByURL(owner.url()).getState(); got != Down {
		t.Errorf("owner state = %v, want down", got)
	}
	if got := r.failovers.Value(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if got := owner.requests.Load(); got != 1 {
		t.Errorf("owner saw %d requests, want exactly 1", got)
	}

	owner.healthy.Store(true)
	waitFor(t, "the owner back up", func() bool { return r.memberByURL(owner.url()).getState() == Up })
	rec = hangThenDown(http.MethodPost, "/v1/tick?world="+digA+"&n=1",
		func() bool { return owner.ticks.Load() == 1 })
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("tick to a hung owner: status %d body %s, want the orphan 503", rec.Code, rec.Body)
	}
	if total := w1.ticks.Load() + w2.ticks.Load(); total != 1 {
		t.Errorf("tick reached workers %d times, want exactly 1", total)
	}
	if got := r.failovers.Value(); got != 1 {
		t.Errorf("failovers = %d after the tick, want still 1", got)
	}
}

func TestTickIsNeverRetried(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	w2 := newStubWorker(t, "w2", digA)
	r := newTestRouter(t, fastConfig(w1.url(), w2.url()))

	cands, _ := r.candidates(digA)
	var owner *stubWorker
	if cands[0].url == w1.url() {
		owner = w1
	} else {
		owner = w2
	}
	owner.delay.Store(int64(100 * time.Millisecond))

	req := httptest.NewRequest(http.MethodPost, "/v1/tick?world="+digA+"&n=3", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("tick status = %d", rec.Code)
	}
	if total := w1.ticks.Load() + w2.ticks.Load(); total != 1 {
		t.Fatalf("tick request reached workers %d times, want exactly 1", total)
	}
	if !strings.Contains(rec.Body.String(), `"worker":"`+owner.name+`"`) {
		t.Errorf("tick answered by %s, want the owner %s", rec.Body, owner.name)
	}
}

// TestLiveWorldReadsStayOnOwner pins that reads of a ticked world go to
// its journal owner: the "@tick" views, /v1/since, and /v1/newspaper
// exist only there, so any other worker's answer would be a 404 or
// frozen genesis data.
func TestLiveWorldReadsStayOnOwner(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	w2 := newStubWorker(t, "w2", digA)
	r := newTestRouter(t, fastConfig(w1.url(), w2.url()))

	cands, _ := r.candidates(digA)
	owner := w1
	if cands[0].url == w2.url() {
		owner = w2
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/tick?world="+digA+"&n=1", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("tick status = %d", rec.Code)
	}

	owner.delay.Store(int64(100 * time.Millisecond))
	status, _, body := routerGet(t, r, "/v1/newspaper?world="+digA)
	if status != http.StatusOK || !strings.Contains(string(body), `"worker":"`+owner.name+`"`) {
		t.Errorf("live world's newspaper: status %d body %s, want the owner %s's answer", status, body, owner.name)
	}
	if total := w1.requests.Load() + w2.requests.Load(); total != 2 {
		t.Errorf("workers saw %d world-scoped requests, want 2 (the tick and the read)", total)
	}
}

func TestOrphanedWorldDegradesGracefully(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	w2 := newStubWorker(t, "w2", digB)
	r := newTestRouter(t, fastConfig(w1.url(), w2.url()))

	// SIGKILL-style death of w1: connections reset, no goodbye.
	w1.srv.CloseClientConnections()
	w1.srv.Close()
	waitFor(t, "w1 down", func() bool { return r.memberByURL(w1.url()).getState() == Down })

	// The dead node's world: stable 503 with Retry-After.
	status, hdr, body := routerGet(t, r, "/v1/world?world="+digA)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("orphaned world status = %d, body %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	_, _, body2 := routerGet(t, r, "/v1/world?world="+digA)
	if string(body) != string(body2) {
		t.Errorf("degradation body is not stable:\n%s\n%s", body, body2)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &msg); err != nil || msg.Error == "" {
		t.Errorf("503 body is not the documented JSON shape: %s", body)
	}

	// The survivor's world keeps serving...
	status, _, body = routerGet(t, r, "/v1/world?world="+digB)
	if status != http.StatusOK || !strings.Contains(string(body), "w2") {
		t.Errorf("healthy world collateral damage: status %d body %s", status, body)
	}
	// ...and a never-advertised world stays a 404, distinct from 503.
	status, _, _ = routerGet(t, r, "/v1/world?world=cccc")
	if status != http.StatusNotFound {
		t.Errorf("unknown world status = %d, want 404", status)
	}
	// Readiness: one member up → ready.
	if status, _, _ := routerGet(t, r, "/v1/readyz"); status != http.StatusOK {
		t.Errorf("readyz = %d with a live member", status)
	}

	// Resurrection: a new process binds the dead worker's address; the
	// heartbeat gate lets it back in and its world serves again.
	addr := strings.TrimPrefix(w1.url(), "http://")
	var l net.Listener
	waitFor(t, "rebind", func() bool {
		var err error
		l, err = net.Listen("tcp", addr)
		return err == nil
	})
	reborn := &stubWorker{name: "w1b", digests: []string{digA}}
	reborn.healthy.Store(true)
	hs := &http.Server{Handler: reborn.handler()}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })

	waitFor(t, "w1 back up", func() bool { return r.memberByURL(w1.url()).getState() == Up })
	status, _, body = routerGet(t, r, "/v1/world?world="+digA)
	if status != http.StatusOK || !strings.Contains(string(body), "w1b") {
		t.Errorf("revived world: status %d body %s", status, body)
	}
}

func TestChaosPartitionAllNodes(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	cfg := fastConfig(w1.url())
	cfg.Faults = fault.New(fault.Config{
		Seed:  1,
		Rates: fault.RatesOf(1.0, fault.Partition),
	})
	r := newTestRouter(t, cfg)

	// Every link severed: the member can never pass the heartbeat gate.
	if got := r.members[0].getState(); got != Down {
		t.Fatalf("partitioned member state = %v, want down", got)
	}
	// No advertisements ever arrived, so the world is unknown, and the
	// fleet as a whole is not ready.
	if status, _, _ := routerGet(t, r, "/v1/world?world="+digA); status != http.StatusNotFound {
		t.Errorf("status = %d, want 404 (world never advertised through the partition)", status)
	}
	if status, _, _ := routerGet(t, r, "/v1/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d, want 503", status)
	}
}

func TestWorldsAggregation(t *testing.T) {
	w1 := newStubWorker(t, "w1", digA)
	w2 := newStubWorker(t, "w2", digA, digB) // digA advertised twice → deduplicated
	r := newTestRouter(t, fastConfig(w1.url(), w2.url()))

	status, _, body := routerGet(t, r, "/v1/worlds")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var resp struct {
		Worlds []struct {
			Digest string `json:"digest"`
		} `json:"worlds"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Worlds) != 2 {
		t.Fatalf("aggregated %d worlds, want 2 (deduplicated): %s", len(resp.Worlds), body)
	}
	seen := map[string]bool{}
	for _, w := range resp.Worlds {
		seen[w.Digest] = true
	}
	if !seen[digA] || !seen[digB] {
		t.Errorf("missing worlds in aggregate: %s", body)
	}
}
