package fleet

// The acceptance suite for the fleet's headline invariant: distribution
// and chaos change latency and availability, never bytes. Real serve
// workers over a real (reduced-scale) snapshot, fronted by a real
// Router; every completed response must be byte-identical to a
// single-process answer.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/fault"
	"remotepeering/internal/journal"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/serve"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/spread"
	"remotepeering/internal/worldgen"
)

// testSnap builds the shared reduced-scale snapshot once: the same
// recipe as the serve package's fixture, so evaluation costs stay
// test-sized.
var (
	snapOnce sync.Once
	snapVal  *snapshot.Snapshot
	snapErr  error
)

func testSnap(t testing.TB) *snapshot.Snapshot {
	t.Helper()
	snapOnce.Do(func() {
		w, err := worldgen.Generate(worldgen.Config{Seed: 3, LeafNetworks: 1500})
		if err != nil {
			snapErr = err
			return
		}
		ds, err := netflow.Collect(w, netflow.Config{Seed: 5, Intervals: 288})
		if err != nil {
			snapErr = err
			return
		}
		sp, err := spread.Run(w, spread.Options{
			Seed: 7,
			IXPs: []int{0, 1},
			Campaign: lg.Config{
				Duration:  8 * 24 * time.Hour,
				PCHRounds: 3, RIPERounds: 3,
			},
		})
		if err != nil {
			snapErr = err
			return
		}
		var buf bytes.Buffer
		if _, err := snapshot.WriteFlat(&buf, &snapshot.Snapshot{World: w, Dataset: ds, Spread: sp}); err != nil {
			snapErr = err
			return
		}
		a, err := snapshot.AttachBytes(buf.Bytes())
		if err != nil {
			snapErr = err
			return
		}
		snapVal, snapErr = a.Snapshot()
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return snapVal
}

// newWorker spins up one real serve worker over the shared snapshot.
func newWorker(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Snapshot == nil {
		cfg.Snapshot = testSnap(t)
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 2
	}
	if cfg.CacheMB == 0 {
		cfg.CacheMB = 8
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func do(t *testing.T, h http.Handler, method, target string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, out
}

// gridQuery is the divisible what-if the fan-out tests share: two
// scenarios × three seed offsets, reduced campaign and traffic month.
func gridQuery(world string) string {
	v := url.Values{}
	v.Set("world", world)
	v.Set("scenarios", "cheap-remote=remoteprice:0.5;surge=traffic:1.4")
	v.Set("seeds", "1,2,3")
	v.Set("k", "3")
	v.Set("greedy", "8")
	v.Set("intervals", "96")
	v.Set("days", "5")
	return "/v1/whatif?" + v.Encode()
}

// TestFanoutByteIdentity is the tentpole acceptance test: the same grid
// answered by a 1-, 2-, and 3-worker fleet produces exactly the bytes a
// single process produces, and the multi-worker runs actually fan out.
func TestFanoutByteIdentity(t *testing.T) {
	snap := testSnap(t)
	digest := snap.Digest

	var handlers []*httptest.Server
	for i := 0; i < 3; i++ {
		_, hs := newWorker(t, serve.Config{})
		handlers = append(handlers, hs)
	}

	// Single-process reference: worker 0 computes the full grid.
	refStatus, _, ref := do(t, handlers[0].Config.Handler, http.MethodGet, gridQuery(digest[:12]), nil)
	if refStatus != http.StatusOK {
		t.Fatalf("reference grid failed: %d %s", refStatus, ref)
	}

	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			peers := make([]string, n)
			for i := 0; i < n; i++ {
				peers[i] = handlers[i].URL
			}
			r := newTestRouter(t, fastConfig(peers...))
			before := r.fanouts.Value()

			status, hdr, body := routerGet(t, r, gridQuery(digest[:12]))
			if status != http.StatusOK {
				t.Fatalf("fleet grid failed: %d %s", status, body)
			}
			if !bytes.Equal(body, ref) {
				t.Fatalf("fleet(%d) bytes differ from single-process reference:\n fleet: %.200s\n ref:   %.200s", n, body, ref)
			}
			fanned := r.fanouts.Value() > before
			if n >= 2 && !fanned {
				t.Errorf("fleet(%d) did not fan out (header %q)", n, hdr.Get("X-Fleet-Fanout"))
			}
			if n == 1 && fanned {
				t.Error("fleet(1) claims to have fanned out with one worker")
			}
		})
	}

	// POST and GET meet in the same canonical query, fanned out or not.
	payload := []byte(`{"scenarios":"cheap-remote=remoteprice:0.5;surge=traffic:1.4","seeds":[1,2,3],"k":3,"greedy":8,"intervals":96,"days":5}`)
	r := newTestRouter(t, fastConfig(handlers[0].URL, handlers[1].URL, handlers[2].URL))
	req := httptest.NewRequest(http.MethodPost, "/v1/whatif?world="+digest[:12], bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ref) {
		t.Errorf("POST via fleet: status %d, identical=%v", rec.Code, bytes.Equal(rec.Body.Bytes(), ref))
	}

	// Kill one worker: the remaining fleet still answers the same bytes.
	handlers[2].CloseClientConnections()
	handlers[2].Close()
	status, _, body := routerGet(t, r, gridQuery(digest[:12]))
	if status != http.StatusOK {
		t.Fatalf("grid after worker death: %d %s", status, body)
	}
	if !bytes.Equal(body, ref) {
		t.Error("bytes changed after losing a worker")
	}
}

// TestChaosByteIdentity drives requests through a router whose transport
// drops connections and injects delays: completed responses must be
// byte-identical to the fault-free single-process answers.
func TestChaosByteIdentity(t *testing.T) {
	snap := testSnap(t)
	digest := snap.Digest

	_, hs1 := newWorker(t, serve.Config{})
	_, hs2 := newWorker(t, serve.Config{})

	cfg := fastConfig(hs1.URL, hs2.URL)
	cfg.MaxAttempts = 4
	cfg.Faults = fault.New(fault.Config{
		Seed:  42,
		Rates: fault.RatesOf(0.25, fault.ConnDrop, fault.NetDelay),
		Delay: 2 * time.Millisecond,
	})
	r := newTestRouter(t, cfg)
	// A member can come up on a heartbeat whose /v1/worlds read was
	// dropped; wait until its advertisement lands, or the first query
	// is a 404 for a world the router has not heard of yet.
	waitFor(t, "the world advertised", func() bool { _, err := r.resolve(digest); return err == nil })

	// Both endpoints are pure functions of the snapshot — /v1/world is
	// deliberately absent: its body reports mutable server state
	// (has_cones, eval counters), which interleaved queries flip.
	refs := map[string][]byte{}
	for _, q := range []string{
		"/v1/spread?world=" + digest[:12],
		"/v1/offload?world=" + digest[:12] + "&group=4&k=3&greedy=10",
	} {
		status, _, body := do(t, hs1.Config.Handler, http.MethodGet, q, nil)
		if status != http.StatusOK {
			t.Fatalf("reference %s failed: %d %s", q, status, body)
		}
		refs[q] = body
	}

	completed, shed := 0, 0
	for q, ref := range refs {
		for i := 0; i < 6; i++ {
			status, _, body := routerGet(t, r, q)
			switch status {
			case http.StatusOK:
				completed++
				if !bytes.Equal(body, ref) {
					t.Fatalf("chaos changed bytes for %s:\n got %s\nwant %s", q, body, ref)
				}
			case http.StatusServiceUnavailable:
				shed++
			default:
				t.Fatalf("unexpected status %d for %s: %s", status, q, body)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no request completed under chaos; rates too hot for the test to mean anything")
	}
	t.Logf("chaos run: %d completed byte-identical, %d shed, %d faults injected",
		completed, shed, cfg.Faults.InjectedTotal())
}

// TestExactlyOnceTickJournal pins the side-effect contract: a tick
// routed through the fleet lands on exactly one worker's journal, once —
// even with a hair-trigger hedge delay armed for every other endpoint.
func TestExactlyOnceTickJournal(t *testing.T) {
	snap := testSnap(t)
	digest := snap.Digest

	live1, live2 := t.TempDir(), t.TempDir()
	_, hs1 := newWorker(t, serve.Config{LiveDir: live1})
	_, hs2 := newWorker(t, serve.Config{LiveDir: live2})

	cfg := fastConfig(hs1.URL, hs2.URL)
	cfg.HedgeDelay = time.Millisecond
	r := newTestRouter(t, cfg)

	tick := func(n int) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/tick?world=%s&n=%d", digest[:12], n), nil)
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("tick status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	tick(3)
	tick(2)

	if r.hedges.Value() != 0 {
		t.Errorf("ticks were hedged %d times; the duplicate would double-advance a timeline", r.hedges.Value())
	}

	// Exactly one journal exists across the fleet, and it acked exactly
	// tick 5 — no duplicated, no lost advances.
	var lastTicks []uint64
	for _, dir := range []string{live1, live2} {
		c, err := journal.Read(filepath.Join(dir, digest[:16], tickJournalFile))
		if err != nil {
			continue // this worker never owned the timeline
		}
		lastTicks = append(lastTicks, c.LastTick())
	}
	if len(lastTicks) != 1 {
		t.Fatalf("found %d journals across the fleet, want exactly 1", len(lastTicks))
	}
	if lastTicks[0] != 5 {
		t.Errorf("journal LastTick = %d, want 5 (3 + 2, each committed once)", lastTicks[0])
	}

	// The live world keeps answering through the router.
	status, _, body := routerGet(t, r, "/v1/tick?world="+digest[:12])
	if status != http.StatusOK {
		t.Errorf("live tick status: %d %s", status, body)
	}
	if !r.isLive(digest) {
		t.Error("router lost track of the live world")
	}
}

// tickJournalFile mirrors tick.JournalFile without importing the tick
// package into this test file's dependency graph for one constant.
const tickJournalFile = "journal.rpj"
