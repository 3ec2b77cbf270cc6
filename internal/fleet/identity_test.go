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
	"strings"
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

// gridQuery is the what-if grid the routed-grid tests share: two
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

// gridBody is gridQuery as a POST body; GET and POST meet in the same
// canonical query.
const gridBody = `{"scenarios":"cheap-remote=remoteprice:0.5;surge=traffic:1.4","seeds":[1,2,3],"k":3,"greedy":8,"intervals":96,"days":5}`

// TestRoutedGridByteIdentity pins that the router delivers a what-if
// grid whole to its owner and hands back the owner's bytes untouched:
// the same grid, sent by GET and by POST through a 1-, 2-, and 3-worker
// fleet and again after the owner dies, is byte-equal to one worker's
// answer.
func TestRoutedGridByteIdentity(t *testing.T) {
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

	requireRef := func(t *testing.T, r *Router, what string) {
		t.Helper()
		for _, req := range []struct {
			method, target string
			body           []byte
		}{
			{http.MethodGet, gridQuery(digest[:12]), nil},
			{http.MethodPost, "/v1/whatif?world=" + digest[:12], []byte(gridBody)},
		} {
			status, _, body := do(t, r.Handler(), req.method, req.target, req.body)
			if status != http.StatusOK {
				t.Fatalf("%s %s: %d %s", what, req.method, status, body)
			}
			if !bytes.Equal(body, ref) {
				t.Fatalf("%s %s bytes differ from single-process reference:\n fleet: %.200s\n ref:   %.200s", what, req.method, body, ref)
			}
		}
	}

	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			peers := make([]string, n)
			for i := 0; i < n; i++ {
				peers[i] = handlers[i].URL
			}
			requireRef(t, newTestRouter(t, fastConfig(peers...)), fmt.Sprintf("fleet(%d)", n))
		})
	}

	// Kill the 3-worker fleet's owner of the world: the grid moves to the
	// next-ranked worker, and the bytes do not change.
	r := newTestRouter(t, fastConfig(handlers[0].URL, handlers[1].URL, handlers[2].URL))
	cands, _ := r.candidates(digest)
	for _, hs := range handlers {
		if hs.URL == cands[0].url {
			hs.CloseClientConnections()
			hs.Close()
		}
	}
	requireRef(t, r, "fleet after the owner's death")
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
// routed through the fleet lands on exactly one worker's journal, once.
func TestExactlyOnceTickJournal(t *testing.T) {
	snap := testSnap(t)
	digest := snap.Digest

	live1, live2 := t.TempDir(), t.TempDir()
	_, hs1 := newWorker(t, serve.Config{LiveDir: live1})
	_, hs2 := newWorker(t, serve.Config{LiveDir: live2})

	r := newTestRouter(t, fastConfig(hs1.URL, hs2.URL))

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
}

// TestOversizedWhatifBody pins that a what-if body over the worker's
// 1 MiB cap gets the worker's own 413 from the router, rather than a
// truncated body forwarded for the worker to misread as bad JSON.
func TestOversizedWhatifBody(t *testing.T) {
	digest := testSnap(t).Digest
	_, hs := newWorker(t, serve.Config{})
	r := newTestRouter(t, fastConfig(hs.URL))

	head, tail := `{"scenarios":"`, `"}`
	payload := []byte(head + strings.Repeat("x", 1<<20+1-len(head)-len(tail)) + tail)
	target := "/v1/whatif?world=" + digest
	wantStatus, _, want := do(t, hs.Config.Handler, http.MethodPost, target, payload)
	if wantStatus != http.StatusRequestEntityTooLarge {
		t.Fatalf("worker answered %d %s, want 413", wantStatus, want)
	}
	status, _, body := do(t, r.Handler(), http.MethodPost, target, payload)
	if status != http.StatusRequestEntityTooLarge || !bytes.Equal(body, want) {
		t.Errorf("router answered %d %s, want the worker's 413 %s", status, body, want)
	}
	if got := r.forwards.Value(); got != 0 {
		t.Errorf("forwards = %d, want 0: the router must not forward an oversized body", got)
	}
}

// tickJournalFile mirrors tick.JournalFile without importing the tick
// package into this test file's dependency graph for one constant.
const tickJournalFile = "journal.rpj"
