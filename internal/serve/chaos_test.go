package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/fault"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/worldgen"
)

// The catalog fixture: three small world-only snapshots (flat format, so
// attach/evict churn is cheap) plus a deliberately corrupted copy, saved
// once into a shared directory. Tests build their own Catalog over the
// directory, so catalog state never leaks between tests.
var (
	catDir     string
	catDigests []string // w1, w2, w3
	catBad     string   // digest of the corrupted file
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "serve-chaos-")
	if err != nil {
		panic(err)
	}
	catDir = dir
	for i, seed := range []int64{21, 22, 23} {
		w, err := worldgen.Generate(worldgen.Config{Seed: seed, LeafNetworks: 800 + 100*i})
		if err != nil {
			panic(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("w%d.flat", i+1))
		if _, err := snapshot.SaveFlatFile(path, &snapshot.Snapshot{World: w}); err != nil {
			panic(err)
		}
		digest, err := snapshot.DigestFile(path)
		if err != nil {
			panic(err)
		}
		catDigests = append(catDigests, digest)
	}
	// A corrupted world: one flipped byte inside the section directory of
	// a copy of w1, so its attach fails the directory CRC deterministically.
	buf, err := os.ReadFile(filepath.Join(dir, "w1.flat"))
	if err != nil {
		panic(err)
	}
	bad := append([]byte(nil), buf...)
	bad[40] ^= 0xff
	badPath := filepath.Join(dir, "bad.flat")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		panic(err)
	}
	if catBad, err = snapshot.DigestFile(badPath); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// catServer builds a catalog-mode server over the fixture directory. A
// zero Options/Config gets sensible test defaults.
func catServer(t *testing.T, copts catalog.Options, cfg Config) (*Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.Open(catDir, copts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Catalog = cat
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 2
	}
	if cfg.CacheMB == 0 {
		cfg.CacheMB = 8
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, cat
}

// oneWorldBudget is a resident budget that fits exactly one fixture
// world, forcing eviction churn between worlds.
func oneWorldBudget(t *testing.T) int64 {
	t.Helper()
	var max int64
	for i := 1; i <= 3; i++ {
		fi, err := os.Stat(filepath.Join(catDir, fmt.Sprintf("w%d.flat", i)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > max {
			max = fi.Size()
		}
	}
	return max
}

func worldWhatifURL(digest, scenarios string) string {
	return "/v1/whatif?world=" + digest[:10] + "&scenarios=" + scenarios +
		"&k=2&greedy=6&intervals=96&days=4"
}

func TestCatalogWorldsAndSelection(t *testing.T) {
	s, cat := catServer(t, catalog.Options{}, Config{})
	h := s.Handler()

	st, _, body := get(t, h, "/v1/worlds")
	if st != http.StatusOK {
		t.Fatalf("/v1/worlds: status %d: %s", st, body)
	}
	var wl worldsResponse
	if err := json.Unmarshal(body, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Worlds) != 4 { // w1, w2, w3, bad
		t.Fatalf("listed %d worlds, want 4", len(wl.Worlds))
	}
	for _, wi := range wl.Worlds {
		if wi.State != "cold" {
			t.Errorf("world %.12s starts %q, want cold", wi.Digest, wi.State)
		}
	}

	// Ambiguous and unknown world keys.
	if st, _, _ := get(t, h, "/v1/world"); st != http.StatusBadRequest {
		t.Errorf("/v1/world without world= in a multi-world catalog: status %d, want 400", st)
	}
	if st, _, _ := get(t, h, "/v1/world?world=zz"); st != http.StatusNotFound {
		t.Errorf("unknown world: status %d, want 404", st)
	}

	// Selecting by prefix attaches on demand.
	st, _, body = get(t, h, "/v1/world?world="+catDigests[1][:10])
	if st != http.StatusOK {
		t.Fatalf("/v1/world?world=…: status %d: %s", st, body)
	}
	var wr worldResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Digest != catDigests[1] {
		t.Errorf("resolved digest %.12s, want %.12s", wr.Digest, catDigests[1])
	}
	if got := cat.Attaches(); got != 1 {
		t.Errorf("%d attaches after one world summary, want 1", got)
	}

	// Health and readiness.
	if st, _, _ := get(t, h, "/v1/healthz"); st != http.StatusOK {
		t.Errorf("healthz: status %d", st)
	}
	if st, _, _ := get(t, h, "/v1/readyz"); st != http.StatusOK {
		t.Errorf("readyz: status %d", st)
	}
	if refs := cat.PinnedRefs(); refs != 0 {
		t.Errorf("%d refs pinned after requests drained, want 0", refs)
	}
}

// TestCacheHitNeedsNoAttach pins the core catalog-mode economy: a warm
// result-cache hit is served without touching the (possibly evicted)
// world — leases are taken inside the computation, never on the request
// path.
func TestCacheHitNeedsNoAttach(t *testing.T) {
	s, cat := catServer(t, catalog.Options{ResidentBytes: oneWorldBudget(t)}, Config{})
	h := s.Handler()

	q1 := worldWhatifURL(catDigests[0], "cheap%3Dremoteprice%3A0.8")
	q2 := worldWhatifURL(catDigests[1], "surge%3Dtraffic%3A1.3")

	if st, _, body := get(t, h, q1); st != http.StatusOK {
		t.Fatalf("q1: status %d: %s", st, body)
	}
	// q2 needs w2 resident; the one-world budget evicts the idle w1.
	if st, _, body := get(t, h, q2); st != http.StatusOK {
		t.Fatalf("q2: status %d: %s", st, body)
	}
	if got := cat.Evictions(); got == 0 {
		t.Error("no evictions under a one-world budget")
	}
	attaches := cat.Attaches()

	// w1 is cold again, but its result is warm: the repeat must be a
	// cache hit and must not re-attach anything.
	st, hdr, _ := get(t, h, q1)
	if st != http.StatusOK {
		t.Fatalf("repeat q1: status %d", st)
	}
	if hdr.Get("X-Cache") != "hit" {
		t.Errorf("repeat q1: X-Cache %q, want hit", hdr.Get("X-Cache"))
	}
	if got := cat.Attaches(); got != attaches {
		t.Errorf("cache hit attached a world: %d attaches, want %d", got, attaches)
	}
}

// TestQuarantineServes503 pins the damaged-world path end to end: the
// corrupt file quarantines on first use, queries against it answer 503,
// and the rest of the catalog keeps serving (readyz stays 200).
func TestQuarantineServes503(t *testing.T) {
	s, cat := catServer(t, catalog.Options{}, Config{})
	h := s.Handler()

	q := worldWhatifURL(catBad, "cheap%3Dremoteprice%3A0.8")
	for i := 0; i < 2; i++ { // second hit takes the already-quarantined path
		if st, _, body := get(t, h, q); st != http.StatusServiceUnavailable {
			t.Fatalf("query %d against corrupt world: status %d: %s", i, st, body)
		}
	}
	if got := cat.StateCounts()["quarantined"]; got != 1 {
		t.Errorf("%d quarantined worlds, want 1", got)
	}
	if st, _, _ := get(t, h, "/v1/readyz"); st != http.StatusOK {
		t.Errorf("readyz with healthy worlds remaining: status %d, want 200", st)
	}
}

// TestQueryTimeout504 pins the per-query deadline: a computation that
// cannot finish inside QueryTimeout answers 504, and the server keeps
// serving afterwards.
func TestQueryTimeout504(t *testing.T) {
	s, _ := catServer(t, catalog.Options{}, Config{QueryTimeout: 20 * time.Millisecond})
	h := s.Handler()

	st, _, body := get(t, h, worldWhatifURL(catDigests[0], "slow%3Dtraffic%3A1.1"))
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", st, body)
	}
	if st, _, _ := get(t, h, "/v1/healthz"); st != http.StatusOK {
		t.Errorf("healthz after a timeout: status %d", st)
	}
}

// TestPanicStable500 pins the scheduler's panic barrier: an evaluation
// panic becomes exactly {"error":"internal server error"} — no stack, no
// internals — and the process keeps serving.
func TestPanicStable500(t *testing.T) {
	var rates fault.Rates
	rates[fault.EvalPanic] = 1
	s, _ := catServer(t, catalog.Options{}, Config{
		Faults: fault.New(fault.Config{Seed: 4, Rates: rates}),
	})
	h := s.Handler()

	st, _, body := get(t, h, worldWhatifURL(catDigests[0], "cheap%3Dremoteprice%3A0.8"))
	if st != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", st, body)
	}
	var resp map[string]string
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("500 body is not JSON: %s", body)
	}
	if resp["error"] != "internal server error" {
		t.Errorf("500 body %q, want the stable message and nothing else", body)
	}
	if s.Panics() == 0 {
		t.Error("panic counter did not move")
	}
	// The process survived; an unaffected endpoint still works.
	if st, _, _ := get(t, h, "/v1/healthz"); st != http.StatusOK {
		t.Errorf("healthz after a recovered panic: status %d", st)
	}
}

// TestEvalPanicBoundary pins eval's boundary directly: a panic in the
// evaluation itself becomes errInternal and moves the panic counter, while
// an error that merely carries an inner boundary's contained panic — a
// cell or tick that exhausted its retries — answers as itself.
func TestEvalPanicBoundary(t *testing.T) {
	s := testServer(t)
	ctx := context.Background()
	before := s.Panics()
	val, err := s.eval(ctx, "boom", func(context.Context) ([]byte, error) { panic("boom") })
	if err != errInternal || val != nil {
		t.Fatalf("a panicking evaluation: (%q, %v), want errInternal", val, err)
	}
	if got := s.Panics() - before; got != 1 {
		t.Fatalf("a panicking evaluation moved the panic counter by %d, want 1", got)
	}

	inner := fmt.Errorf("failed 3 attempts: %w", &fault.PanicError{Key: "q|cell|x|0", Value: "cell boom"})
	if _, err := s.eval(ctx, "cell", func(context.Context) ([]byte, error) { return nil, inner }); err != inner {
		t.Fatalf("an evaluation failing with a contained cell panic: %v, want its error unchanged", err)
	}
	if got := s.Panics() - before; got != 1 {
		t.Fatalf("a contained cell panic moved the panic counter to +%d, want +1", got)
	}
}

// TestAdmissionShedsColdKeepsWarm pins admission control: with the
// pending set full, a new cold query is shed with 429 + Retry-After
// while cache hits keep being served.
func TestAdmissionShedsColdKeepsWarm(t *testing.T) {
	s, _ := catServer(t, catalog.Options{}, Config{MaxInflight: 1, MaxPending: 1})
	h := s.Handler()

	warm := worldWhatifURL(catDigests[0], "cheap%3Dremoteprice%3A0.8")
	if st, _, body := get(t, h, warm); st != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", st, body)
	}

	// Occupy the only pending slot with a long computation.
	slow := worldWhatifURL(catDigests[1], "surge%3Dtraffic%3A1.3%3Bdip%3Dtraffic%3A0.7") + "&seeds=0,1,2"
	done := make(chan int, 1)
	go func() {
		st, _, _ := get(t, h, slow)
		done <- st
	}()
	for i := 0; s.Pending() == 0 && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Pending() == 0 {
		t.Fatal("slow query never became pending")
	}

	st, hdr, body := get(t, h, worldWhatifURL(catDigests[2], "cold%3Dremoteprice%3A0.5"))
	if st != http.StatusTooManyRequests {
		t.Fatalf("cold query under load: status %d, want 429: %s", st, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if s.Shed() == 0 {
		t.Error("shed counter did not move")
	}

	// The warm query is a cache hit and must dodge admission entirely.
	st, hdr, _ = get(t, h, warm)
	if st != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("warm query under load: status %d, X-Cache %q; want 200 hit", st, hdr.Get("X-Cache"))
	}

	if st := <-done; st != http.StatusOK {
		t.Errorf("slow query finished with status %d", st)
	}
}

// TestServeChaosByteIdentity is the tier's headline invariant under a
// randomized failure schedule: slow attaches, failed attaches, dropped
// cache operations, and evaluation panics may delay or fail individual
// requests, but every request that completes returns bytes identical to
// a fault-free server's — across eviction churn, under -race, with no
// goroutine leaks and no leaked leases.
func TestServeChaosByteIdentity(t *testing.T) {
	queries := []string{
		worldWhatifURL(catDigests[0], "cheap%3Dremoteprice%3A0.8"),
		worldWhatifURL(catDigests[1], "surge%3Dtraffic%3A1.3"),
		worldWhatifURL(catDigests[2], "combo%3Dtraffic%3A1.2%2Cremoteprice%3A0.9"),
		"/v1/offload?world=" + catDigests[0][:10] + "&group=4&k=3&greedy=6&intervals=96",
	}

	// The reference bytes, from a fault-free server.
	clean, _ := catServer(t, catalog.Options{}, Config{})
	want := make(map[string][]byte, len(queries))
	for _, q := range queries {
		st, _, body := get(t, clean.Handler(), q)
		if st != http.StatusOK {
			t.Fatalf("fault-free %s: status %d: %s", q, st, body)
		}
		want[q] = body
	}

	goroutines := runtime.NumGoroutine()

	var rates fault.Rates
	rates[fault.AttachSlow] = 0.4
	rates[fault.AttachFail] = 0.2
	rates[fault.EvalPanic] = 0.15
	rates[fault.CacheFail] = 0.3
	plane := fault.New(fault.Config{Seed: 42, Rates: rates, Delay: 4 * time.Millisecond})
	s, cat := catServer(t,
		catalog.Options{ResidentBytes: oneWorldBudget(t), Faults: plane, AttachAttempts: 4},
		Config{Faults: plane})
	h := s.Handler()

	completed := 0
	for round := 0; round < 3; round++ { // repeats exercise warm, evicted, and refilled cache states
		for _, q := range queries {
			var st int
			var body []byte
			for attempt := 0; attempt < 25; attempt++ {
				st, _, body = get(t, h, q)
				if st == http.StatusOK {
					break
				}
				// 429/500/503: injected faults; back off and retry like a
				// well-behaved client.
				time.Sleep(2 * time.Millisecond)
			}
			if st != http.StatusOK {
				t.Fatalf("round %d %s: never completed (last status %d: %s)", round, q, st, body)
			}
			completed++
			if !bytes.Equal(body, want[q]) {
				t.Errorf("round %d %s: completed bytes differ from fault-free run", round, q)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no query completed")
	}
	if plane.InjectedTotal() == 0 {
		t.Error("fault plane injected nothing — the test proved nothing")
	}

	// Drain hygiene: no leaked leases, no leaked goroutines.
	if refs := cat.PinnedRefs(); refs != 0 {
		t.Errorf("%d lease refs pinned after drain, want 0", refs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines+3 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines+3 {
		t.Errorf("goroutines grew from %d to %d after drain", goroutines, got)
	}
	if err := cat.Close(); err != nil {
		t.Errorf("catalog close after drain: %v", err)
	}
}

// TestCloseStopsComputations pins the shutdown contract: Close cancels a
// grid that is still evaluating, waits for it to return, and leaves no
// world lease pinned, so the catalog closes cleanly. A query arriving
// after Close is refused with a 503 instead of starting work.
func TestCloseStopsComputations(t *testing.T) {
	s, cat := catServer(t, catalog.Options{}, Config{})
	h := s.Handler()
	grid := worldWhatifURL(catDigests[0], "cheap%3Dremoteprice%3A0.5%3Bsurge%3Dtraffic%3A1.4") + "&seeds=1,2,3"
	status := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, grid, nil))
		status <- rec.Code
	}()
	for deadline := time.Now().Add(10 * time.Second); cat.PinnedRefs() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the grid never attached its world")
		}
	}

	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if p := s.Pending(); p != 0 {
		t.Errorf("Pending() = %d after Close, want 0", p)
	}
	if err := cat.Close(); err != nil {
		t.Errorf("catalog close after server close: %v", err)
	}
	if st := <-status; st != http.StatusServiceUnavailable {
		t.Errorf("grid cut off by Close answered %d, want 503", st)
	}

	evals := s.Evaluations()
	if st, _, body := get(t, h, worldWhatifURL(catDigests[1], "surge%3Dtraffic%3A1.3")); st != http.StatusServiceUnavailable {
		t.Errorf("query after Close: status %d body %s, want 503", st, body)
	}
	if got := s.Evaluations(); got != evals {
		t.Errorf("a query after Close started %d evaluations", got-evals)
	}
}
