package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

// liveServer builds a fresh single-snapshot server with a fast tick
// regime. Fresh per test: ticking mutates server state, and the shared
// package fixture must stay frozen.
func liveServer(t testing.TB) (*Server, string) {
	t.Helper()
	w, err := worldgen.Generate(worldgen.Config{Seed: 9, LeafNetworks: 800})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snapshot.WriteFlat(&buf, &snapshot.Snapshot{World: w}); err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.AttachBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tcfg := tick.Config{
		Seed: 5, ChurnIXPs: 1, ChurnJoins: 3, ChurnLeaves: 2, TrafficDrift: 0.05,
		Pipeline: scenario.Options{
			MeasureSeed: 2, TrafficSeed: 3, CoverageIXPs: 2, GreedyIXPs: 4, Intervals: 48,
		},
	}
	s, err := New(Config{Snapshot: snap, MaxInflight: 2, CacheMB: 8, Tick: &tcfg})
	if err != nil {
		t.Fatal(err)
	}
	return s, snap.Digest
}

func post(t testing.TB, h http.Handler, url string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, body
}

// TestLiveWorldEndpoints walks the living-world API end to end: start a
// clock, advance it, read the digest views, and verify queries key on the
// per-tick content address.
func TestLiveWorldEndpoints(t *testing.T) {
	s, base := liveServer(t)
	h := s.Handler()

	// Frozen: the clock reads zero and the digest views 404 with a hint.
	code, _, body := get(t, h, "/v1/tick")
	var tr tickResponse
	if code != http.StatusOK || json.Unmarshal(body, &tr) != nil || tr.Live || tr.Digest != base {
		t.Fatalf("frozen GET /v1/tick: code=%d body=%s", code, body)
	}
	if code, _, body = get(t, h, "/v1/since?t=0"); code != http.StatusNotFound || !bytes.Contains(body, []byte("not live")) {
		t.Fatalf("frozen /v1/since: code=%d body=%s", code, body)
	}
	if code, _, _ = get(t, h, "/v1/newspaper"); code != http.StatusNotFound {
		t.Fatalf("frozen /v1/newspaper: code=%d", code)
	}

	// Bad batch sizes are rejected before any engine is built.
	if code, _ := post(t, h, "/v1/tick?n=0"); code != http.StatusBadRequest {
		t.Fatalf("n=0 should 400, got %d", code)
	}
	if code, _ := post(t, h, fmt.Sprintf("/v1/tick?n=%d", maxTickBatch+1)); code != http.StatusBadRequest {
		t.Fatalf("oversized n should 400, got %d", code)
	}
	if s.LiveWorlds() != 0 {
		t.Fatal("rejected requests must not awaken a world")
	}

	// Advance 3 ticks: the engine awakens and the view moves to base@3.
	code, body = post(t, h, "/v1/tick?n=3")
	if code != http.StatusOK {
		t.Fatalf("POST /v1/tick: code=%d body=%s", code, body)
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	want3 := base + "@3"
	if !tr.Live || tr.Tick != 3 || tr.Digest != want3 || len(tr.Advanced) != 3 {
		t.Fatalf("after 3 ticks: %+v", tr)
	}
	if s.LiveWorlds() != 1 {
		t.Fatalf("LiveWorlds = %d, want 1", s.LiveWorlds())
	}

	// The world summary reports the evolved view under the tick digest.
	code, _, body = get(t, h, "/v1/world")
	var wr worldResponse
	if code != http.StatusOK || json.Unmarshal(body, &wr) != nil {
		t.Fatalf("GET /v1/world: code=%d body=%s", code, body)
	}
	if !wr.Live || wr.Tick != 3 || wr.Digest != want3 {
		t.Fatalf("world summary not live@3: %+v", wr)
	}

	// /v1/since reports the committed events and the metric movement.
	code, _, body = get(t, h, "/v1/since?t=1")
	var sr sinceResponse
	if code != http.StatusOK || json.Unmarshal(body, &sr) != nil {
		t.Fatalf("GET /v1/since: code=%d body=%s", code, body)
	}
	if sr.From != 1 || sr.To != 3 || len(sr.Ticks) != 2 || sr.Digest != want3 {
		t.Fatalf("since view wrong: %+v", sr)
	}

	// t=0 (the default) finds the tick-0 baseline: the delta is the
	// genesis→now movement, not a silently-zero "no baseline" value.
	code, _, body = get(t, h, "/v1/since?t=0")
	if code != http.StatusOK || json.Unmarshal(body, &sr) != nil {
		t.Fatalf("GET /v1/since?t=0: code=%d body=%s", code, body)
	}
	view := s.liveView(base)
	if len(view.hist) == 0 || view.hist[0].Tick != 0 {
		t.Fatalf("published history must start at the tick-0 baseline, got %+v", view.hist)
	}
	wantDelta := scenario.CellResult{Metrics: view.metrics}.Diff(view.hist[0].Metrics)
	if sr.From != 0 || len(sr.Ticks) != 3 || !reflect.DeepEqual(sr.Delta, wantDelta) {
		t.Fatalf("since?t=0 wrong: %+v (want delta %+v)", sr, wantDelta)
	}

	// The newspaper digests the window.
	code, _, body = get(t, h, "/v1/newspaper")
	var nr newspaperResponse
	if code != http.StatusOK || json.Unmarshal(body, &nr) != nil {
		t.Fatalf("GET /v1/newspaper: code=%d body=%s", code, body)
	}
	if nr.Digest != want3 || !strings.Contains(nr.Text, "THE LIVING WORLD — tick 3") {
		t.Fatalf("newspaper wrong: digest=%s text=%q", nr.Digest, nr.Text)
	}

	// Queries over the live world key on the tick digest: same query,
	// same tick → one evaluation plus a cache hit.
	const wq = "/v1/whatif?scenarios=surge=traffic:1.3"
	code, hdr, body := get(t, h, wq)
	if code != http.StatusOK {
		t.Fatalf("whatif over live world: code=%d body=%s", code, body)
	}
	var wfr WhatifResponse
	if json.Unmarshal(body, &wfr) != nil || wfr.Digest != want3 {
		t.Fatalf("whatif digest = %q, want %q", wfr.Digest, want3)
	}
	if _, hdr, _ = get(t, h, wq); hdr.Get("X-Cache") != "hit" {
		t.Error("repeated live-world whatif should hit the cache")
	}
	_ = hdr

	// One more tick: the view moves, the same query misses and recomputes
	// under the new digest — and the old tick's address is gone.
	if code, body = post(t, h, "/v1/tick?n=1"); code != http.StatusOK {
		t.Fatalf("POST /v1/tick: code=%d body=%s", code, body)
	}
	code, hdr, body = get(t, h, wq)
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("post-tick whatif: code=%d cache=%s", code, hdr.Get("X-Cache"))
	}
	if json.Unmarshal(body, &wfr) != nil || wfr.Digest != base+"@4" {
		t.Fatalf("post-tick whatif digest = %q, want %s@4", wfr.Digest, base)
	}
	if code, _, _ = get(t, h, "/v1/world?world="+base+"@3"); code != http.StatusNotFound {
		t.Errorf("stale tick address should 404, got %d", code)
	}
	if code, _, _ = get(t, h, "/v1/world?world="+base+"@4"); code != http.StatusOK {
		t.Errorf("current tick address should 200, got %d", code)
	}
	if code, _, _ = get(t, h, "/v1/world?world="+base+"@x"); code != http.StatusBadRequest {
		t.Errorf("malformed tick address should 400, got %d", code)
	}
}

// TestLiveViewBeforeFirstAdvance pins the freshly-awakened window: a view
// published at tick 0 — the engine exists but no advance has committed
// yet, exactly the state a GET racing the first POST (or following a
// failed one) observes — must serve every digest view, never index an
// empty history.
func TestLiveViewBeforeFirstAdvance(t *testing.T) {
	s, base := liveServer(t)
	h := s.Handler()
	if _, err := s.awaken(context.Background(), base); err != nil {
		t.Fatal(err)
	}

	code, _, body := get(t, h, "/v1/tick")
	var tr tickResponse
	if code != http.StatusOK || json.Unmarshal(body, &tr) != nil {
		t.Fatalf("GET /v1/tick at tick 0: code=%d body=%s", code, body)
	}
	if !tr.Live || tr.Tick != 0 || tr.Digest != base+"@0" {
		t.Fatalf("tick-0 clock wrong: %+v", tr)
	}

	code, _, body = get(t, h, "/v1/since?t=0")
	var sr sinceResponse
	if code != http.StatusOK || json.Unmarshal(body, &sr) != nil {
		t.Fatalf("GET /v1/since at tick 0: code=%d body=%s", code, body)
	}
	if sr.To != 0 || len(sr.Ticks) != 0 {
		t.Fatalf("since view at tick 0 wrong: %+v", sr)
	}

	if code, _, body = get(t, h, "/v1/newspaper"); code != http.StatusOK {
		t.Fatalf("GET /v1/newspaper at tick 0: code=%d body=%s", code, body)
	}
}

// TestLiveTickVsQueryRace advances a world while query load runs against
// it — the satellite pin that ticking never tears a read. Every response
// must be internally consistent (its digest names the exact view it was
// computed over), and responses sharing a digest must share bytes. Run
// with -race, this also proves the view handoff is race-free.
func TestLiveTickVsQueryRace(t *testing.T) {
	s, base := liveServer(t)
	h := s.Handler()

	// Start the clock so queries contend with a moving world from the
	// first request.
	if code, body := post(t, h, "/v1/tick?n=1"); code != http.StatusOK {
		t.Fatalf("initial tick: code=%d body=%s", code, body)
	}

	const (
		ticks   = 4
		readers = 3
		queries = 6
	)
	var (
		mu     sync.Mutex
		bodies = map[string][]byte{} // whatif digest -> response bytes
		oks    int
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			if code, body := post(t, h, "/v1/tick?n=1"); code != http.StatusOK {
				t.Errorf("tick %d: code=%d body=%s", i, code, body)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				code, _, body := get(t, h, "/v1/whatif?scenarios=surge=traffic:1.3")
				switch code {
				case http.StatusOK:
					var wfr WhatifResponse
					if err := json.Unmarshal(body, &wfr); err != nil {
						t.Errorf("reader %d: bad body: %v", r, err)
						return
					}
					if !strings.HasPrefix(wfr.Digest, base+"@") {
						t.Errorf("reader %d: digest %q not a tick view of %.12s", r, wfr.Digest, base)
						return
					}
					mu.Lock()
					if prev, ok := bodies[wfr.Digest]; ok && !bytes.Equal(prev, body) {
						t.Errorf("reader %d: two different bodies under digest %s", r, wfr.Digest)
					}
					bodies[wfr.Digest] = body
					oks++
					mu.Unlock()
				case http.StatusTooManyRequests:
					// Admission control under load is fine; keep going.
				default:
					t.Errorf("reader %d: unexpected status %d: %s", r, code, body)
					return
				}

				// Interleave cheap consistent reads of the digest views.
				if code, _, body := get(t, h, "/v1/since?t=0"); code == http.StatusOK {
					var sr sinceResponse
					if err := json.Unmarshal(body, &sr); err != nil || int(sr.To) != len(sr.Ticks) {
						t.Errorf("reader %d: torn since view: err=%v to=%d ticks=%d", r, err, sr.To, len(sr.Ticks))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if oks == 0 {
		t.Fatal("no query completed — the race test proved nothing")
	}
	// The final view is servable and at least 1+ticks deep.
	code, _, body := get(t, h, "/v1/tick")
	var tr tickResponse
	if code != http.StatusOK || json.Unmarshal(body, &tr) != nil || tr.Tick != 1+ticks {
		t.Fatalf("final clock: code=%d body=%s", code, body)
	}
}
