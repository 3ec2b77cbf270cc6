// Package serve is the long-lived query side of the reproduction: an HTTP
// JSON service that answers "given this world and this dataset, what does
// scenario X change?" in milliseconds where the batch CLIs pay seconds of
// regeneration per invocation. It serves either one loaded snapshot
// (Config.Snapshot) or a whole catalog of them (Config.Catalog): worlds
// attach on demand, stay resident under an LRU byte budget, and are
// selected per request with the world= parameter.
//
// The request path is built for a shared, concurrent, partially-hostile
// workload:
//
//   - every expensive evaluation runs through a bounded scheduler (at most
//     MaxInflight computations at once; excess requests queue),
//   - identical in-flight queries coalesce onto one computation (the
//     leader runs, followers wait for its bytes),
//   - finished responses land in a byte-budgeted LRU keyed by (snapshot
//     digest, canonicalized query), so a repeated what-if costs a map
//     lookup — and, in catalog mode, never touches a cold world,
//   - admission control sheds new cold evaluations with 429 + Retry-After
//     once MaxPending distinct computations are queued or running; cache
//     hits keep serving throughout,
//   - a per-query deadline (QueryTimeout) bounds each computation; hitting
//     it is 504, a client hanging up is 499,
//   - an evaluation panic is recovered in the scheduler, logged with its
//     stack exactly once, and surfaced as a stable JSON 500 that leaks
//     nothing,
//   - abandoned requests cancel their computation — through
//     scenario.RunCtx down to the grid cells — once no waiter remains.
//
// Determinism makes the cache semantics trivial: a query's result is a
// pure function of (snapshot digest, canonical query), so cached bytes
// never go stale while the process lives. The same property underwrites
// the chaos suite: under an injected fault plane (Config.Faults), every
// query that completes is byte-identical to a fault-free run.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/core"
	"remotepeering/internal/fault"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/obs"
	"remotepeering/internal/offload"
	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/spread"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

// maxWhatifBody caps the JSON body of POST /v1/whatif. A legitimate
// request — a scenario grid, a seed list, a handful of knobs — is a few
// hundred bytes; 1 MiB leaves three orders of magnitude of headroom.
const maxWhatifBody = 1 << 20

// NewHTTPServer wraps a handler in an http.Server with the connection
// hygiene a long-lived public listener needs: header-read and idle
// timeouts so one stalled or silent client cannot hold a connection (and
// its goroutine) forever. There is deliberately no WriteTimeout — a cold
// what-if evaluation legitimately computes for tens of seconds before the
// first response byte, and per-request deadlines belong to the request
// context, not the connection.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// Config parameterises a Server.
type Config struct {
	// Snapshot is the loaded world (and optional dataset and campaign)
	// the server answers queries over. The server only reads it, so
	// several servers may share one. Exactly one of Snapshot and Catalog
	// is required.
	Snapshot *snapshot.Snapshot
	// Catalog serves a directory of snapshots instead of one loaded
	// world: requests select a world with the world= parameter (digest
	// or unambiguous prefix), and worlds attach on demand under the
	// catalog's resident budget.
	Catalog *catalog.Catalog
	// MaxInflight bounds how many expensive evaluations run at once;
	// further requests queue (respecting their contexts). Default 4.
	MaxInflight int
	// MaxPending bounds distinct computations queued or running before
	// new cold queries are shed with 429 + Retry-After (cache hits and
	// joins of an already-running computation are never shed). Default
	// 4×MaxInflight; negative disables shedding.
	MaxPending int
	// CacheMB is the LRU result-cache budget in mebibytes. Default 64;
	// negative disables caching.
	CacheMB int
	// Workers bounds the worker pool of each evaluation (0 = one per
	// CPU). Results are byte-identical for every value.
	Workers int
	// QueryTimeout bounds each computation (not each request: a follower
	// joining a computation inherits its remaining budget). 0 = none.
	// An expired computation answers 504.
	QueryTimeout time.Duration
	// Faults is the injectable fault plane (nil in production): it can
	// slow or fail world attaches, panic evaluations, and drop result-
	// cache operations. Completed responses are byte-identical to a
	// fault-free server's.
	Faults *fault.Plane
	// Tick parameterises the living-world endpoints (/v1/tick, /v1/since,
	// /v1/newspaper): the event regime worlds evolve under when their
	// clock is started. nil uses tick.DefaultConfig. Workers, Faults, and
	// the per-world cone cache are always taken from the server, not from
	// this config.
	Tick *tick.Config
	// LiveDir, when set, makes live worlds durable: awakening a world
	// attaches its tick engine to <LiveDir>/<digest prefix>/ (journal +
	// checkpoints, synced per Tick.Fsync), so acked ticks survive a
	// crash and a restarted server resumes each timeline exactly where
	// it stopped. Empty keeps timelines in memory only.
	LiveDir string
	// Metrics, when set, exposes the server's observability surface —
	// scheduler, cache, catalog, tick engine, journal, fault plane — on
	// the registry and mounts it at GET /metrics. Observability never
	// perturbs results: every response is byte-identical with or without
	// a registry. nil disables metrics at near-zero cost.
	Metrics *obs.Registry
	// Recorder, when set, captures per-request span records (queue wait,
	// attach, eval, cache, tick application) into a bounded flight
	// recorder mounted at GET /debug/requests; 5xx records are also
	// dumped through slog. nil disables tracing.
	Recorder *obs.FlightRecorder
}

// worldState is the per-world view a computation runs against, valid
// until the accompanying release: a snapshot's layers (a live world's
// current tick artifacts), and what the view holds beside them — the
// baseline its what-ifs compute and the cone cache its offload studies
// fill. A static world's view is built once per residency and dropped
// with it; a live world's is replaced with every tick.
type worldState struct {
	digest string
	world  *worldgen.World
	ds     *netflow.Dataset
	spread *spread.Result
	cones  *offload.ConeCache
	base   *scenario.Baseline
}

// Server answers the /v1 API over one immutable snapshot or a catalog
// of them.
type Server struct {
	single *worldState      // single-snapshot mode (nil in catalog mode)
	cat    *catalog.Catalog // catalog mode (nil in single mode)

	workers      int
	maxPending   int
	queryTimeout time.Duration
	faults       *fault.Plane
	sem          chan struct{}
	cache        *lruCache
	mu           sync.Mutex
	inflight     map[string]*call
	closed       bool           // set by Close under mu: no new computations
	leads        sync.WaitGroup // running lead goroutines, awaited by Close

	// The living-world registry: evolving worlds keyed by genesis digest.
	tickCfg tick.Config
	liveDir string
	liveMu  sync.Mutex
	live    map[string]*liveWorld

	// evals counts leader computations — the observability hook the
	// dedup and cache tests (and /v1/world) read. panics and shed count
	// recovered evaluation panics and admission-control rejections.
	evals  atomic.Int64
	panics atomic.Int64
	shed   atomic.Int64

	// The observability plane (all nil when Config.Metrics/Recorder are
	// unset): the registry serving /metrics, the request-path handles,
	// and the flight recorder serving /debug/requests.
	reg      *obs.Registry
	om       *serveMetrics
	recorder *obs.FlightRecorder
}

// call is one in-flight computation: the leader evaluates, followers wait
// on done. waiters tracks interested requests; when the last one leaves
// before completion, the computation's context is cancelled.
type call struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	val     []byte
	err     error

	// Span timestamps for the flight recorder: queued at creation, runAt
	// once a scheduler slot is held, doneAt when the evaluation returns.
	// Written by the leader before done closes; read by waiters after.
	queuedAt time.Time
	runAt    time.Time
	doneAt   time.Time
}

// New builds a Server over a loaded snapshot or a catalog. In single-
// snapshot mode the world's view is prepared here, once, so concurrent
// requests only ever read; in catalog mode the same preparation runs on
// every attach, before the world goes Ready.
func New(cfg Config) (*Server, error) {
	switch {
	case cfg.Snapshot == nil && cfg.Catalog == nil:
		return nil, fmt.Errorf("serve: need a Snapshot or a Catalog")
	case cfg.Snapshot != nil && cfg.Catalog != nil:
		return nil, fmt.Errorf("serve: Snapshot and Catalog are mutually exclusive")
	case cfg.Snapshot != nil && cfg.Snapshot.World == nil:
		return nil, fmt.Errorf("serve: snapshot has no world")
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 4
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("serve: negative MaxInflight %d", cfg.MaxInflight)
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 4 * cfg.MaxInflight
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("serve: negative Workers %d (use 0 for one per CPU)", cfg.Workers)
	}
	if cfg.QueryTimeout < 0 {
		return nil, fmt.Errorf("serve: negative QueryTimeout %s", cfg.QueryTimeout)
	}
	cacheMB := cfg.CacheMB
	if cacheMB == 0 {
		cacheMB = 64
	}
	s := &Server{
		cat:          cfg.Catalog,
		workers:      cfg.Workers,
		maxPending:   cfg.MaxPending,
		queryTimeout: cfg.QueryTimeout,
		faults:       cfg.Faults,
		sem:          make(chan struct{}, cfg.MaxInflight),
		cache:        newLRUCache(int64(cacheMB) << 20),
		inflight:     make(map[string]*call),
		tickCfg:      tick.DefaultConfig(),
		liveDir:      cfg.LiveDir,
		live:         make(map[string]*liveWorld),
	}
	if cfg.Tick != nil {
		s.tickCfg = *cfg.Tick
	}
	if cfg.Metrics != nil {
		s.reg = cfg.Metrics
		s.om = s.instrument(cfg.Metrics)
		// One shared tick.Metrics per server: every live world's engine
		// (and its journal) reports into the same aggregated series.
		s.tickCfg.Metrics = tick.NewMetrics(cfg.Metrics)
		cfg.Faults.Instrument(cfg.Metrics)
		if cfg.Catalog != nil {
			cfg.Catalog.Instrument(cfg.Metrics)
		}
	}
	s.recorder = cfg.Recorder
	if cfg.Snapshot != nil {
		// The server owns its single world's view: the snapshot may be
		// shared with other servers, the view is not.
		var err error
		if s.single, err = prepare(cfg.Snapshot); err != nil {
			return nil, err
		}
	} else {
		// Each residency holds its own view, which the catalog drops with
		// the snapshot at eviction and at Close.
		s.cat.OnAttach(func(snap *snapshot.Snapshot) (any, error) { return prepare(snap) })
	}
	return s, nil
}

// prepare returns the world's view: the snapshot's layers, a baseline
// holder seeded with its campaign and dataset, and an empty cone cache
// the first evaluation fills for every later one. It runs once per
// residency — at New in single mode, on each attach in catalog mode —
// and only reads the snapshot. Every lazy table of the snapshot's layers
// is built behind a sync.Once, so concurrent readers need no prewarm.
func prepare(snap *snapshot.Snapshot) (*worldState, error) {
	if snap.World == nil {
		return nil, fmt.Errorf("serve: snapshot %.12s has no world", snap.Digest)
	}
	return &worldState{
		digest: snap.Digest,
		world:  snap.World,
		ds:     snap.Dataset,
		spread: snap.Spread,
		cones:  offload.NewConeCache(),
		base:   scenario.NewBaseline(snap.Spread, snap.Dataset),
	}, nil
}

// resolve maps the world= request parameter to a digest without
// attaching anything — the step that lets warm cache hits skip cold
// worlds entirely.
func (s *Server) resolve(key string) (string, error) {
	if s.single != nil {
		if key == "" || (len(key) <= len(s.single.digest) && strings.HasPrefix(s.single.digest, key)) {
			return s.single.digest, nil
		}
		return "", fmt.Errorf("%w: %q (serving single world %.12s)", catalog.ErrUnknownWorld, key, s.single.digest)
	}
	wi, err := s.cat.Lookup(key)
	if err != nil {
		return "", err
	}
	return wi.Digest, nil
}

// acquire pins the named world for the duration of a computation. The
// release func must be called exactly once, after the last read of the
// returned state.
func (s *Server) acquire(ctx context.Context, digest string) (*worldState, func(), error) {
	if s.single != nil {
		return s.single, func() {}, nil
	}
	done := obs.TraceFromContext(ctx).Begin("attach")
	lease, err := s.cat.Acquire(ctx, digest)
	done()
	if err != nil {
		return nil, nil, err
	}
	ws, _ := lease.Held().(*worldState)
	return ws, lease.Release, nil
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/world", s.handleWorld)
	mux.HandleFunc("GET /v1/worlds", s.handleWorlds)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/spread", s.handleSpread)
	mux.HandleFunc("GET /v1/offload", s.handleOffload)
	mux.HandleFunc("GET /v1/whatif", s.handleWhatif)
	mux.HandleFunc("POST /v1/whatif", s.handleWhatif)
	mux.HandleFunc("GET /v1/report/{id}", s.handleReport)
	mux.HandleFunc("GET /v1/tick", s.handleTick)
	mux.HandleFunc("POST /v1/tick", s.handleTick)
	mux.HandleFunc("GET /v1/since", s.handleSince)
	mux.HandleFunc("GET /v1/newspaper", s.handleNewspaper)
	if s.reg != nil {
		mux.Handle("GET /metrics", s.reg.Handler())
	}
	if s.recorder != nil {
		mux.Handle("GET /debug/requests", s.recorder.Handler())
	}
	if s.reg == nil && s.recorder == nil {
		return mux
	}
	var observe func(r *http.Request, status int, d time.Duration)
	if s.om != nil {
		observe = func(r *http.Request, status int, d time.Duration) {
			observeRequest(s.om.requests, r, d)
		}
	}
	return obs.Instrument(mux, s.recorder, observe)
}

// Evaluations returns the number of leader computations performed — the
// dedup/caching observability counter.
func (s *Server) Evaluations() int64 { return s.evals.Load() }

// Panics returns the number of evaluation panics recovered.
func (s *Server) Panics() int64 { return s.panics.Load() }

// Shed returns the number of requests rejected by admission control.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Pending returns the number of distinct computations queued or running.
func (s *Server) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// --- scheduling: cache → admission → dedup → bounded evaluation ---

// Sentinel failures of the request path, each owning a status mapping in
// finish. errInternal is deliberately the entire client-visible story of
// a recovered panic: the stack goes to the server log, never the wire.
var (
	errOverloaded   = errors.New("serve: overloaded")
	errQueryTimeout = errors.New("serve: query deadline exceeded")
	errInternal     = errors.New("internal server error")
	errClosed       = errors.New("serve: server closed")
)

// overloadError is an admission-control shed carrying the backoff hint
// finish writes as Retry-After. It matches errors.Is(err, errOverloaded)
// so the status mapping is unchanged; the hint rides along.
type overloadError struct {
	pending    int
	retryAfter int
}

func (e *overloadError) Error() string {
	return fmt.Sprintf("%v: %d computations pending", errOverloaded, e.pending)
}

func (e *overloadError) Is(target error) bool { return target == errOverloaded }

func (e *overloadError) RetryAfter() int { return e.retryAfter }

// retryAfterSeconds derives a shed query's Retry-After from the
// pending-queue depth: roughly the queue in units of service capacity,
// with ±25% deterministic jitter keyed by (query, depth) so a burst of
// shed clients comes back staggered instead of thundering in lockstep.
func retryAfterSeconds(key string, pending, capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	base := 1 + pending/capacity
	secs := int(float64(base) * (0.75 + 0.5*fault.Jitter("retry-after|"+key, pending)))
	if secs < 1 {
		secs = 1
	} else if secs > 30 {
		secs = 30
	}
	return secs
}

// cacheGet and cachePut are the fault-injectable faces of the result
// cache: an injected CacheFail degrades a lookup to a miss and drops an
// insert — either way the query recomputes the same bytes, it just
// costs more.
func (s *Server) cacheGet(id string) ([]byte, bool) {
	if s.faults.Should(fault.CacheFail, "get|"+id) {
		return nil, false
	}
	return s.cache.Get(id)
}

func (s *Server) cachePut(id string, val []byte) {
	if s.faults.Should(fault.CacheFail, "put|"+id) {
		return
	}
	s.cache.Put(id, val)
}

// do returns the response bytes for the canonical query key, going
// through the cache, admission control, the in-flight dedup table, and
// the bounded scheduler in that order. fn computes the response under the
// computation context, which carries the per-query deadline and is
// cancelled once every requester has gone away.
func (s *Server) do(ctx context.Context, id string, fn func(context.Context) ([]byte, error)) (val []byte, hit bool, err error) {
	tr := obs.TraceFromContext(ctx)
	for attempt := 0; ; attempt++ {
		if v, ok := s.cacheGet(id); ok {
			tr.Event("cache", "hit")
			s.om.hit(len(v))
			return v, true, nil
		}

		s.mu.Lock()
		c, joined := s.inflight[id]
		if !joined {
			if s.closed {
				s.mu.Unlock()
				return nil, false, errClosed
			}
			// Admission: a new computation is only admitted while the
			// pending set has room. Joining an existing computation adds
			// no work and is never shed; cache hits never reach here.
			if s.maxPending > 0 && len(s.inflight) >= s.maxPending {
				pending := len(s.inflight)
				s.mu.Unlock()
				s.shed.Add(1)
				return nil, false, &overloadError{
					pending:    pending,
					retryAfter: retryAfterSeconds(id, pending, cap(s.sem)),
				}
			}
			compCtx, cancel := s.computationContext()
			// The computation context is detached from any one request, but
			// it carries the founding request's trace so attach and eval
			// spans land somewhere. Followers get the scheduler spans from
			// the call's timestamps instead.
			compCtx = obs.ContextWithTrace(compCtx, tr)
			c = &call{done: make(chan struct{}), cancel: cancel, queuedAt: time.Now()}
			s.inflight[id] = c
			s.leads.Add(1)
			go s.lead(compCtx, id, c, fn)
		}
		c.waiters++
		s.mu.Unlock()

		var cVal []byte
		var cErr error
		select {
		case <-c.done:
			cVal, cErr = c.val, c.err
		case <-ctx.Done():
			s.leave(c)
			return nil, false, ctx.Err()
		}
		s.leave(c)
		// The call's timestamps were written before done closed; replay
		// them as this request's queue/eval spans (followers inherit the
		// shared computation's timing — that is what they waited on).
		if tr != nil && !c.runAt.IsZero() {
			tr.Add("queue", "", c.queuedAt, c.runAt.Sub(c.queuedAt))
			if !c.doneAt.IsZero() {
				tr.Add("eval", "", c.runAt, c.doneAt.Sub(c.runAt))
			}
		}
		if cErr != nil && ctx.Err() == nil {
			if errors.Is(cErr, context.DeadlineExceeded) {
				// The computation ran out of its own budget, not the
				// client's: that is the server saying "too slow", 504.
				return nil, false, fmt.Errorf("%w (limit %s)", errQueryTimeout, s.queryTimeout)
			}
			if errors.Is(cErr, context.Canceled) && attempt < 3 {
				// The computation this request joined was cancelled by its
				// *other* waiters leaving (a dying leader it latched onto).
				// This request is still alive, so start over as its own
				// leader rather than surfacing someone else's cancellation.
				continue
			}
		}
		_ = joined // joins are reported as misses; dedup shows in Evaluations
		if cErr == nil {
			s.om.miss(len(cVal))
		}
		return cVal, false, cErr
	}
}

// computationContext derives the context one leader computes under:
// detached from any single request (followers share it), bounded by the
// per-query deadline when one is configured.
func (s *Server) computationContext() (context.Context, context.CancelFunc) {
	if s.queryTimeout > 0 {
		return context.WithTimeout(context.Background(), s.queryTimeout)
	}
	return context.WithCancel(context.Background())
}

// lead runs the computation for a call: it takes a scheduler slot
// (respecting the computation context, so a fully-abandoned queued query
// never starts), evaluates — absorbing any panic — publishes, and caches.
func (s *Server) lead(ctx context.Context, id string, c *call, fn func(context.Context) ([]byte, error)) {
	defer s.leads.Done()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, id)
		s.mu.Unlock()
		close(c.done)
	}()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		c.err = ctx.Err()
		return
	}
	defer func() { <-s.sem }()
	s.evals.Add(1)
	c.runAt = time.Now()
	c.val, c.err = s.eval(ctx, id, fn)
	c.doneAt = time.Now()
	if c.err == nil {
		s.cachePut(id, c.val)
	}
}

// eval runs one evaluation behind the fault plane's panic boundary. The
// handlers run fn in this goroutine — not an http one — so without it a
// single crashing evaluation would kill the whole process. A panic at
// this boundary is logged exactly once, server-side, with its stack; the
// waiters see only errInternal. Every other error, a cell's contained
// panic that exhausted its retries included, answers as itself.
func (s *Server) eval(ctx context.Context, id string, fn func(context.Context) ([]byte, error)) (val []byte, err error) {
	key := "serve|" + id
	err = s.faults.Contain(key, func() (err error) {
		val, err = fn(ctx)
		return err
	})
	if pe, ok := err.(*fault.PanicError); ok && pe.Key == key {
		s.panics.Add(1)
		slog.Error("evaluation panic recovered",
			"query", id, "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		return nil, errInternal
	}
	return val, err
}

// leave drops one waiter; the last one out cancels the computation's
// context — stopping it mid-grid if it is still running (abandoned
// requests must not keep burning cells), or merely releasing the
// context's resources if it already finished.
func (s *Server) leave(c *call) {
	s.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	s.mu.Unlock()
	if last {
		c.cancel()
	}
}

// Close shuts the server down: it refuses new computations, cancels the
// ones in flight and waits for them to return — so every world lease a
// computation held is released and the catalog can close — drops the
// single world's computed baseline parts (a catalog's go with its
// residencies), and then closes the living-world registry. Callers stop
// the HTTP server first.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for _, c := range s.inflight {
		c.cancel()
	}
	s.mu.Unlock()
	s.leads.Wait()
	if s.single != nil {
		s.single.base.Reset()
	}
	return s.closeLive()
}

// queryID derives the content address of a canonical query against a
// world: the cache key, the dedup key, and the public report id are all
// this value.
func queryID(digest, canonical string) string {
	sum := sha256.Sum256([]byte(digest + "\n" + canonical))
	return hex.EncodeToString(sum[:16])
}

// --- handlers ---

type worldResponse struct {
	Digest       string `json:"digest"`
	Live         bool   `json:"live,omitempty"`
	Tick         uint64 `json:"tick,omitempty"`
	Networks     int    `json:"networks"`
	IXPs         int    `json:"ixps"`
	StudiedIXPs  int    `json:"studied_ixps"`
	ProbeTargets int    `json:"probe_targets"`
	HasDataset   bool   `json:"has_dataset"`
	HasSpread    bool   `json:"has_spread"`
	HasCones     bool   `json:"has_cones"`
	Evaluations  int64  `json:"evaluations"`
	CachedBodies int    `json:"cached_bodies"`
}

func (s *Server) handleWorld(w http.ResponseWriter, r *http.Request) {
	digest, view, ok := s.resolveLive(w, r)
	if !ok {
		return
	}
	// A world summary is a detail view: attaching to answer it is the
	// point (unlike the query path, where cache hits must not attach).
	ws, release, err := s.acquireView(r.Context(), digest, view)
	if err != nil {
		finish(w, r, nil, false, err)
		return
	}
	defer release()
	var tickNo uint64
	if view != nil {
		tickNo = view.tick
	}
	writeJSON(w, http.StatusOK, worldResponse{
		Digest:       ws.digest,
		Live:         view != nil,
		Tick:         tickNo,
		Networks:     ws.world.Graph.Len(),
		IXPs:         len(ws.world.IXPs),
		StudiedIXPs:  ws.world.NumStudied(),
		ProbeTargets: len(ws.world.Ifaces),
		HasDataset:   ws.ds != nil,
		HasSpread:    ws.spread != nil,
		HasCones:     ws.cones.Len() > 0,
		Evaluations:  s.evals.Load(),
		CachedBodies: s.cache.Len(),
	})
}

// worldsResponse is the catalog overview: every world's health, plus the
// residency counters the fleet operator watches.
type worldsResponse struct {
	Worlds        []catalog.WorldInfo `json:"worlds"`
	ResidentBytes int64               `json:"resident_bytes"`
	BudgetBytes   int64               `json:"budget_bytes"`
	Attaches      int64               `json:"attaches"`
	Evictions     int64               `json:"evictions"`
}

func (s *Server) handleWorlds(w http.ResponseWriter, r *http.Request) {
	if s.single != nil {
		writeJSON(w, http.StatusOK, worldsResponse{
			Worlds: []catalog.WorldInfo{{
				Digest: s.single.digest, State: "ready", Refs: 0,
			}},
		})
		return
	}
	writeJSON(w, http.StatusOK, worldsResponse{
		Worlds:        s.cat.Worlds(),
		ResidentBytes: s.cat.ResidentBytes(),
		BudgetBytes:   s.cat.Budget(),
		Attaches:      s.cat.Attaches(),
		Evictions:     s.cat.Evictions(),
	})
}

type healthResponse struct {
	Status      string         `json:"status"`
	Worlds      map[string]int `json:"worlds,omitempty"`
	Pending     int            `json:"pending"`
	Evaluations int64          `json:"evaluations"`
	Panics      int64          `json:"panics"`
	Shed        int64          `json:"shed"`
	Faults      int64          `json:"faults_injected,omitempty"`
	LiveWorlds  int            `json:"live_worlds,omitempty"`
}

func (s *Server) health() healthResponse {
	h := healthResponse{
		Status:      "ok",
		Pending:     s.Pending(),
		Evaluations: s.evals.Load(),
		Panics:      s.panics.Load(),
		Shed:        s.shed.Load(),
		Faults:      s.faults.InjectedTotal(),
		LiveWorlds:  s.LiveWorlds(),
	}
	if s.cat != nil {
		h.Worlds = s.cat.StateCounts()
	}
	return h
}

// handleHealthz is liveness: the process is up and serving HTTP. It never
// fails while the listener lives.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReadyz is readiness: at least one world is servable (not
// quarantined). A single-snapshot server is ready by construction; a
// catalog whose every world is quarantined answers 503 so a fleet
// balancer stops routing to it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if s.cat != nil {
		servable := 0
		for state, n := range h.Worlds {
			if state != catalog.Quarantined.String() {
				servable += n
			}
		}
		if servable == 0 {
			h.Status = "unready"
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, h)
}

type spreadResponse struct {
	ID             string  `json:"id"`
	Digest         string  `json:"digest"`
	Seed           int64   `json:"seed"`
	Observations   int     `json:"observations"`
	AnalyzedIfaces int     `json:"analyzed_ifaces"`
	DetectedRemote int     `json:"detected_remote"`
	TruePositives  int     `json:"true_positives"`
	FalsePositives int     `json:"false_positives"`
	TrueNegatives  int     `json:"true_negatives"`
	FalseNegatives int     `json:"false_negatives"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
}

func (s *Server) handleSpread(w http.ResponseWriter, r *http.Request) {
	digest, view, ok := s.resolveLive(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	seed, err := intParam(q.Get("seed"), s.spreadSeed())
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad seed: %v", err)
		return
	}
	days, err := intParam(q.Get("days"), 0)
	switch {
	case err != nil:
	case days < 0:
		err = fmt.Errorf("negative %d (use 0 for the snapshot's campaign)", days)
	case days > int64(lg.MaxDays):
		err = fmt.Errorf("%d overflows the campaign duration (at most %d)", days, lg.MaxDays)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad days: %v", err)
		return
	}
	canonical := fmt.Sprintf("spread|seed=%d|days=%d", seed, days)
	id := queryID(digest, canonical)
	obs.TraceFrom(r).EnsureID(obs.TraceID(digest, canonical, 0))
	body, hit, err := s.do(r.Context(), id, func(ctx context.Context) ([]byte, error) {
		ws, release, err := s.acquireView(ctx, digest, view)
		if err != nil {
			return nil, err
		}
		defer release()
		// The query wants the paper's detector over every studied IXP
		// that still has probe targets (the key skips dark ones);
		// days=0 asks for the view's own campaign length when the view
		// carries a campaign of this seed, the world's otherwise.
		campaign := lg.Config{Duration: time.Duration(days) * 24 * time.Hour}
		if days == 0 && ws.spread != nil && ws.spread.Seed == seed {
			campaign.Duration = ws.spread.Campaign.Duration
		}
		key, err := spread.NewCampaignKey(ws.world, seed, campaign, core.Config{}, nil)
		if err != nil {
			return nil, err
		}
		res, held, err := ws.base.Campaign(ctx, ws.world, key, s.workers, nil)
		if err != nil {
			return nil, err
		}
		s.noteBaseline(ctx, partOutcome{partCampaign, held})
		detected, analyzed := 0, 0
		for _, row := range res.Report.Table1() {
			detected += row.Remote
			analyzed += row.Analyzed
		}
		v := res.Validation
		return marshalBody(spreadResponse{
			ID: id, Digest: digest, Seed: seed,
			Observations:   res.Observations,
			AnalyzedIfaces: analyzed,
			DetectedRemote: detected,
			TruePositives:  v.TruePositives,
			FalsePositives: v.FalsePositives,
			TrueNegatives:  v.TrueNegatives,
			FalseNegatives: v.FalseNegatives,
			Precision:      v.Precision(),
			Recall:         v.Recall(),
		})
	})
	finish(w, r, body, hit, err)
}

type offloadStep struct {
	IXP       string  `json:"ixp"`
	Offloaded float64 `json:"offloaded_bps"`
	Remaining float64 `json:"remaining_bps"`
}

type offloadResponse struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	Group  int    `json:"group"`
	// TrafficSeed and Intervals echo the dataset actually analyzed —
	// with no intervals parameter the server uses the snapshot's dataset
	// as-is, so the echoed length is how a caller tells a short-run
	// snapshot from the full paper month.
	TrafficSeed    int64         `json:"traffic_seed"`
	Intervals      int           `json:"intervals"`
	PotentialPeers int           `json:"potential_peers"`
	TransitInBps   float64       `json:"transit_in_bps"`
	TransitOutBps  float64       `json:"transit_out_bps"`
	Steps          []offloadStep `json:"steps"`
	CoveredNets    int           `json:"covered_nets"`
	OffloadedFrac  float64       `json:"offloaded_frac"`
	FittedB        float64       `json:"fitted_b"`
}

func (s *Server) handleOffload(w http.ResponseWriter, r *http.Request) {
	digest, view, ok := s.resolveLive(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	group, err := intParam(q.Get("group"), int64(offload.GroupAll))
	if err != nil || group < 1 || group > 4 {
		httpError(w, http.StatusBadRequest, "bad group (want 1-4)")
		return
	}
	k, err := intParam(q.Get("k"), 5)
	if err != nil || k < 1 {
		httpError(w, http.StatusBadRequest, "bad k")
		return
	}
	depth, err := intParam(q.Get("greedy"), 30)
	if err != nil || depth < 1 {
		httpError(w, http.StatusBadRequest, "bad greedy")
		return
	}
	if max(depth, k) < 2 {
		// The curve has max(greedy, k) steps, and the decay fit needs two.
		httpError(w, http.StatusBadRequest, "bad greedy: the decay fit needs a curve of at least 2 steps (greedy or k of 2 or more)")
		return
	}
	trafficSeed, err := intParam(q.Get("traffic-seed"), s.datasetSeed())
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad traffic-seed: %v", err)
		return
	}
	intervals, err := intParam(q.Get("intervals"), 0)
	if err == nil && intervals < 0 {
		err = fmt.Errorf("negative %d (use 0 for the snapshot's dataset)", intervals)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad intervals: %v", err)
		return
	}
	canonical := fmt.Sprintf("offload|group=%d|k=%d|greedy=%d|tseed=%d|intervals=%d",
		group, k, depth, trafficSeed, intervals)
	id := queryID(digest, canonical)
	obs.TraceFrom(r).EnsureID(obs.TraceID(digest, canonical, 0))
	body, hit, err := s.do(r.Context(), id, func(ctx context.Context) ([]byte, error) {
		ws, release, err := s.acquireView(ctx, digest, view)
		if err != nil {
			return nil, err
		}
		defer release()
		// The view's own dataset answers when its seed matches and the
		// query asks for its length (intervals=0: whatever length it
		// has); anything else is a collection in the paper's traffic
		// regime (intervals=0: the full month). The key is the config the
		// answer comes from, so a held dataset can stand in only for that.
		key := netflow.Config{Seed: trafficSeed, Intervals: int(intervals), Workers: s.workers}
		if ws.ds != nil && ws.ds.Cfg.Seed == trafficSeed && (intervals == 0 || int(intervals) == ws.ds.Cfg.Intervals) {
			key = ws.ds.Cfg
			key.Workers = s.workers
		}
		// Another length of the view's own traffic seed prices the view
		// dataset's ranking; another seed ranks afresh.
		ds, held, err := ws.base.Traffic(ws.world, key, ws.ds)
		if err != nil {
			return nil, err
		}
		s.noteBaseline(ctx, partOutcome{partTraffic, held})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		study, err := offload.NewStudyOptions(ws.world, ds, offload.Options{Workers: s.workers, Cones: ws.cones})
		if err != nil {
			return nil, err
		}
		// The curve has at most one step per IXP. Clamp in int64 before
		// converting: a raw k sized a slice, and int(k) wraps on 32-bit.
		// The decay is fitted over all max(greedy, k) steps.
		n := int64(len(ws.world.IXPs))
		x, err := study.Expand(offload.PeerGroup(group), int(min(k, n)), int(min(max(depth, k), n)))
		if err != nil {
			return nil, err
		}
		in, out := ds.TransitTotals()
		resp := offloadResponse{
			ID: id, Digest: digest, Group: int(group),
			TrafficSeed: trafficSeed, Intervals: ds.Cfg.Intervals,
			PotentialPeers: study.PotentialPeerCount(),
			TransitInBps:   in,
			TransitOutBps:  out,
			CoveredNets:    x.CoveredNets,
			OffloadedFrac:  x.OffloadedFrac,
			FittedB:        x.FittedB,
		}
		for _, st := range x.Steps {
			resp.Steps = append(resp.Steps, offloadStep{
				IXP:       st.Acronym,
				Offloaded: st.OffloadedInBps + st.OffloadedOutBps,
				Remaining: st.Remaining(),
			})
		}
		return marshalBody(resp)
	})
	finish(w, r, body, hit, err)
}

// WhatifRequest is the /v1/whatif query: the same knobs cmd/rpwhatif
// exposes, accepted as GET query parameters or a POST JSON body.
type WhatifRequest struct {
	Scenarios   string  `json:"scenarios"`
	Seeds       []int64 `json:"seeds,omitempty"`
	MeasureSeed int64   `json:"measure_seed,omitempty"`
	TrafficSeed int64   `json:"traffic_seed,omitempty"`
	K           int     `json:"k,omitempty"`
	Greedy      int     `json:"greedy,omitempty"`
	Intervals   int     `json:"intervals,omitempty"`
	Days        int     `json:"days,omitempty"`
}

// Canonical renders the request in a normalized, field-ordered form so
// equivalent queries (GET vs POST, defaulted vs explicit) share one cache
// slot and one computation.
func (wr WhatifRequest) Canonical() string {
	seeds := wr.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return fmt.Sprintf("whatif|scenarios=%s|seeds=%s|mseed=%d|tseed=%d|k=%d|greedy=%d|intervals=%d|days=%d",
		wr.Scenarios, strings.Join(parts, ","), wr.MeasureSeed, wr.TrafficSeed,
		wr.K, wr.Greedy, wr.Intervals, wr.Days)
}

// validate rejects knobs below zero, where zero already means the
// default, a greedy depth too shallow to fit a decay to, and a campaign
// too long for its duration to be represented.
func (wr WhatifRequest) validate() error {
	for _, p := range []struct {
		name string
		v    int
	}{{"k", wr.K}, {"greedy", wr.Greedy}, {"intervals", wr.Intervals}, {"days", wr.Days}} {
		if p.v < 0 {
			return fmt.Errorf("bad %s: negative %d (use 0 for the default)", p.name, p.v)
		}
	}
	if wr.Greedy == 1 {
		return fmt.Errorf("bad greedy: the decay fit needs a depth of at least 2 (use 0 for the default)")
	}
	if wr.Days > lg.MaxDays {
		return fmt.Errorf("bad days: %d overflows the campaign duration (at most %d)", wr.Days, lg.MaxDays)
	}
	return nil
}

// ApplyDefaults fills the zero-valued knobs with the server defaults, so
// a defaulted and an explicit request share one Canonical form.
func (wr *WhatifRequest) ApplyDefaults() {
	if wr.MeasureSeed == 0 {
		wr.MeasureSeed = 2
	}
	if wr.TrafficSeed == 0 {
		wr.TrafficSeed = 3
	}
	if wr.K == 0 {
		wr.K = 5
	}
	if wr.Greedy == 0 {
		wr.Greedy = 30
	}
}

// parseWhatifRequest decodes a /v1/whatif request — GET query parameters
// or a capped POST JSON body — without applying defaults.
func parseWhatifRequest(w http.ResponseWriter, r *http.Request) (WhatifRequest, error) {
	var req WhatifRequest
	switch r.Method {
	case http.MethodPost:
		// A what-if request is a few hundred bytes of JSON; anything near
		// the cap is hostile or broken, and an uncapped decoder would let
		// one client stream gigabytes into the heap.
		r.Body = http.MaxBytesReader(w, r.Body, maxWhatifBody)
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return req, err
		}
	default:
		q := r.URL.Query()
		req.Scenarios = q.Get("scenarios")
		if v := q.Get("seeds"); v != "" {
			for _, part := range strings.Split(v, ",") {
				n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return req, fmt.Errorf("bad seeds: %v", err)
				}
				req.Seeds = append(req.Seeds, n)
			}
		}
		var err error
		for _, p := range []struct {
			name string
			dst  *int
		}{{"k", &req.K}, {"greedy", &req.Greedy}, {"intervals", &req.Intervals}, {"days", &req.Days}} {
			var v int64
			if v, err = intParam(q.Get(p.name), int64(*p.dst)); err != nil {
				return req, fmt.Errorf("bad %s: %v", p.name, err)
			}
			*p.dst = int(v)
		}
		if req.MeasureSeed, err = intParam(q.Get("measure-seed"), 0); err != nil {
			return req, fmt.Errorf("bad measure-seed: %v", err)
		}
		if req.TrafficSeed, err = intParam(q.Get("traffic-seed"), 0); err != nil {
			return req, fmt.Errorf("bad traffic-seed: %v", err)
		}
	}
	return req, nil
}

// WhatifResponse is the /v1/whatif response envelope.
type WhatifResponse struct {
	ID     string              `json:"id"`
	Digest string              `json:"digest"`
	Report scenario.ReportJSON `json:"report"`
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	digest, view, ok := s.resolveLive(w, r)
	if !ok {
		return
	}
	req, err := parseWhatifRequest(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		if r.Method == http.MethodPost {
			httpError(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Scenarios == "" {
		httpError(w, http.StatusBadRequest, "missing scenarios (e.g. ?scenarios=ams-outage=outage:AMS-IX)")
		return
	}
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.ApplyDefaults()

	grid, err := scenario.ParseGrid(req.Scenarios)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	grid.Seeds = req.Seeds

	id := queryID(digest, req.Canonical())
	obs.TraceFrom(r).EnsureID(obs.TraceID(digest, req.Canonical(), 0))
	body, hit, err := s.do(r.Context(), id, func(ctx context.Context) ([]byte, error) {
		ws, release, err := s.acquireView(ctx, digest, view)
		if err != nil {
			return nil, err
		}
		defer release()
		opts := scenario.Options{
			MeasureSeed:  req.MeasureSeed,
			TrafficSeed:  req.TrafficSeed,
			Workers:      s.workers,
			CoverageIXPs: req.K,
			GreedyIXPs:   req.Greedy,
			Intervals:    req.Intervals,
			Cones:        ws.cones,
			Baseline:     ws.base,
			Faults:       s.faults,
			FaultKey:     id,
		}
		if req.Days > 0 {
			opts.Campaign.Duration = time.Duration(req.Days) * 24 * time.Hour
		}
		rep, err := scenario.RunCtx(ctx, ws.world, grid, opts)
		if err != nil {
			return nil, err
		}
		s.noteBaseline(ctx, partOutcome{partCampaign, rep.Held.Campaign}, partOutcome{partTraffic, rep.Held.Traffic},
			partOutcome{partOffload, rep.Held.Offload})
		return marshalBody(WhatifResponse{ID: id, Digest: digest, Report: rep.JSONReport()})
	})
	finish(w, r, body, hit, err)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := s.cache.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached report %q (evicted, or never computed)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "hit")
	w.Write(body)
}

// --- helpers ---

// datasetSeed is the default traffic seed: the persisted dataset's in
// single-snapshot mode, the CLI default otherwise. Catalog mode cannot
// consult a cold world's dataset without attaching it — which the warm
// cache path must never do — so its defaults are static; pass an
// explicit traffic-seed to target a snapshot's recorded dataset.
func (s *Server) datasetSeed() int64 {
	if s.single != nil && s.single.ds != nil {
		return s.single.ds.Cfg.Seed
	}
	return 2
}

// spreadSeed is the default measurement seed, with the same single-mode/
// catalog-mode split as datasetSeed.
func (s *Server) spreadSeed() int64 {
	if s.single != nil && s.single.spread != nil {
		return s.single.spread.Seed
	}
	return 2
}

func intParam(v string, def int64) (int64, error) {
	if v == "" {
		return def, nil
	}
	return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
}

func marshalBody(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// MarshalBody renders a response body exactly as the server does —
// indented JSON plus a trailing newline. The fleet router uses it for
// its own JSON answers, so they match a worker's shape.
func MarshalBody(v any) ([]byte, error) { return marshalBody(v) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshalBody(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// finish writes a computed (or cached) body, mapping each failure mode
// of the request path to its own status: client hang-up → 499, query
// deadline → 504, admission shed or no resident slot → 429 with a
// Retry-After, quarantined world or closed server → 503, recovered
// panic → a stable 500 that carries no internals.
func finish(w http.ResponseWriter, r *http.Request, body []byte, hit bool, err error) {
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		if hit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		w.Write(body)
	case errors.Is(err, errOverloaded) || errors.Is(err, catalog.ErrNoSlot):
		retry := 2
		var oe interface{ RetryAfter() int }
		if errors.As(err, &oe) {
			retry = oe.RetryAfter()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errQueryTimeout):
		httpError(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, catalog.ErrQuarantined) || errors.Is(err, errClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, catalog.ErrUnknownWorld):
		httpError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, catalog.ErrAmbiguous):
		httpError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, errInternal):
		// A recovered panic: the stack is already in the server log, and
		// this fixed body is deliberately all the client learns.
		httpError(w, http.StatusInternalServerError, "internal server error")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client is usually gone; the status is for logs and tests.
		httpError(w, 499, "request cancelled: %v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}
