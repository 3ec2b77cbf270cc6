// The living-world side of the serve tier: any served world can be
// brought to life with POST /v1/tick, which attaches a tick engine to it
// and advances its timeline on demand. The engine mutates nothing a
// reader can see — each committed tick swaps in a whole new world — so
// queries and ticks interleave freely:
//
//   - the current state is published as an immutable tickView behind an
//     atomic pointer; readers load it once and keep a consistent pre- or
//     post-tick snapshot for their whole computation, never a torn one,
//   - the view's digest is "<genesis digest>@<tick>", which keys the
//     result cache and the dedup table: every tick is its own content
//     address, so cached bytes stay correct forever and a query pinned
//     to "…@7" is reproducible after the world moves on,
//   - Advance runs under a per-world mutex (ticks serialise; queries
//     never take it),
//   - in catalog mode the engine pins its genesis world's lease for the
//     engine's lifetime, so eviction cannot drop the residency a
//     timeline grew from.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"remotepeering/internal/catalog"
	"remotepeering/internal/obs"
	"remotepeering/internal/scenario"
	"remotepeering/internal/tick"
)

// maxTickBatch caps how many ticks one POST /v1/tick may advance: enough
// for any interactive use, small enough that a single request cannot
// wedge a shared server for minutes.
const maxTickBatch = 200

// tickView is one committed tick published to readers: immutable, loaded
// atomically, valid forever (the engine never mutates a published world).
type tickView struct {
	tick    uint64
	digest  string // "<genesis digest>@<tick>"
	ws      *worldState
	metrics scenario.Metrics // current tick's headline metrics
	hist    []tick.Result    // private copy incl. tick-0 baseline; grows only by republish
}

// liveWorld is one evolving world: the engine behind it, the mutex that
// serialises advances, and the atomically-published current view.
type liveWorld struct {
	base    string // genesis snapshot digest, the world= key
	mu      sync.Mutex
	eng     *tick.Engine
	release func()
	cur     atomic.Pointer[tickView]
}

// publish builds and installs the view of the engine's current tick.
// Callers hold lw.mu.
func (lw *liveWorld) publish() *tickView {
	art := lw.eng.Artifacts()
	v := &tickView{
		tick:   lw.eng.Tick(),
		digest: fmt.Sprintf("%s@%d", lw.base, lw.eng.Tick()),
		ws: &worldState{
			digest: fmt.Sprintf("%s@%d", lw.base, lw.eng.Tick()),
			world:  lw.eng.World(),
			ds:     art.Dataset,
			spread: art.Spread,
			cones:  lw.eng.Cones(),
			base:   scenario.NewBaseline(art.Spread, art.Dataset),
		},
		metrics: lw.eng.Metrics(),
		hist:    lw.eng.History(),
	}
	lw.cur.Store(v)
	return v
}

// closeLive shuts the living-world registry down: every engine (and its
// journal, when the server journals live worlds) is closed and every
// pinned catalog lease released. No new ticks can commit.
func (s *Server) closeLive() error {
	s.liveMu.Lock()
	live := s.live
	s.live = make(map[string]*liveWorld)
	s.liveMu.Unlock()
	var first error
	for _, lw := range live {
		lw.mu.Lock()
		if err := lw.eng.Close(); err != nil && first == nil {
			first = err
		}
		lw.release()
		lw.mu.Unlock()
	}
	return first
}

// liveFor returns the live world for a genesis digest, if one exists.
func (s *Server) liveFor(base string) *liveWorld {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return s.live[base]
}

// liveView returns the current view of a genesis digest's live world, or
// nil if the world has not been brought to life.
func (s *Server) liveView(base string) *tickView {
	if lw := s.liveFor(base); lw != nil {
		return lw.cur.Load()
	}
	return nil
}

// LiveWorlds returns how many worlds currently have engines attached.
func (s *Server) LiveWorlds() int {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return len(s.live)
}

// awaken returns the live world for a genesis digest, creating the engine
// (tick-0 baseline evaluation included) on first use. Creation pins the
// world's lease for the engine's lifetime.
func (s *Server) awaken(ctx context.Context, base string) (*liveWorld, error) {
	if lw := s.liveFor(base); lw != nil {
		return lw, nil
	}
	ws, release, err := s.acquire(ctx, base)
	if err != nil {
		return nil, err
	}
	cfg := s.tickCfg
	cfg.Pipeline.Workers = s.workers
	cfg.Pipeline.Faults = s.faults
	cfg.Pipeline.FaultKey = "live|" + base
	cfg.Cones = ws.cones
	var eng *tick.Engine
	if s.liveDir != "" {
		// Durable timeline: journal + checkpoints under the server's live
		// directory, keyed by a digest prefix long enough to never collide
		// within one catalog. An existing journal (a restarted server)
		// recovers and resumes exactly where the previous process stopped.
		eng, err = tick.Open(ctx, filepath.Join(s.liveDir, base[:min(16, len(base))]), ws.world, cfg)
	} else {
		eng, err = tick.New(ctx, ws.world, cfg)
	}
	if err != nil {
		release()
		return nil, err
	}
	lw := &liveWorld{base: base, eng: eng, release: release}
	lw.publish()
	s.liveMu.Lock()
	if prev := s.live[base]; prev != nil {
		// Another request won the race; keep its timeline.
		s.liveMu.Unlock()
		release()
		return prev, nil
	}
	s.live[base] = lw
	s.liveMu.Unlock()
	return lw, nil
}

// resolveLive maps the world= parameter to (digest, view): the genesis
// digest and nil for a frozen world, or the live view and its
// "<base>@<tick>" digest for an evolving one. A "<key>@<T>" parameter
// addresses a live world at an exact tick; only the current tick is
// servable (older ticks' bytes survive in the result cache under their
// query ids, but their worlds are gone).
func (s *Server) resolveLive(w http.ResponseWriter, r *http.Request) (string, *tickView, bool) {
	key := r.URL.Query().Get("world")
	wantTick := int64(-1)
	if i := strings.IndexByte(key, '@'); i >= 0 {
		t, err := strconv.ParseInt(key[i+1:], 10, 64)
		if err != nil || t < 0 {
			httpError(w, http.StatusBadRequest, "bad world tick suffix %q", key[i+1:])
			return "", nil, false
		}
		wantTick = t
		key = key[:i]
	}
	digest, err := s.resolve(key)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, catalog.ErrUnknownWorld) {
			status = http.StatusNotFound
		}
		httpError(w, status, "%v", err)
		return "", nil, false
	}
	view := s.liveView(digest)
	if wantTick >= 0 {
		if view == nil {
			httpError(w, http.StatusNotFound, "world %.12s is not live (no ticks yet)", digest)
			return "", nil, false
		}
		if view.tick != uint64(wantTick) {
			httpError(w, http.StatusNotFound, "world %.12s is at tick %d, not %d", digest, view.tick, wantTick)
			return "", nil, false
		}
	}
	if view != nil {
		digest = view.digest
	}
	return digest, view, true
}

// acquireView pins the world a computation reads: the captured live view
// (already immutable and engine-pinned — release is a no-op), or a
// catalog lease for a frozen world.
func (s *Server) acquireView(ctx context.Context, digest string, view *tickView) (*worldState, func(), error) {
	if view != nil {
		return view.ws, func() {}, nil
	}
	return s.acquire(ctx, digest)
}

// --- handlers ---

type tickResponse struct {
	Base    string           `json:"base"`
	Digest  string           `json:"digest"`
	Live    bool             `json:"live"`
	Tick    uint64           `json:"tick"`
	Metrics scenario.Metrics `json:"metrics"`
	// Advanced holds the ticks this request committed (POST only).
	Advanced []tick.Result `json:"advanced,omitempty"`
}

// handleTick is the timeline control surface: GET reports where a world's
// clock stands; POST advances it n ticks (creating the engine on first
// use) and publishes the new view.
func (s *Server) handleTick(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("world")
	base, err := s.resolve(key)
	if err != nil {
		finish(w, r, nil, false, err)
		return
	}

	if r.Method == http.MethodGet {
		resp := tickResponse{Base: base, Digest: base}
		if view := s.liveView(base); view != nil {
			resp.Live = true
			resp.Tick = view.tick
			resp.Digest = view.digest
			resp.Metrics = view.metrics
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	n, err := intParam(r.URL.Query().Get("n"), 1)
	if err != nil || n < 1 || n > maxTickBatch {
		httpError(w, http.StatusBadRequest, "bad n (want 1-%d)", maxTickBatch)
		return
	}
	lw, err := s.awaken(r.Context(), base)
	if err != nil {
		finish(w, r, nil, false, err)
		return
	}
	tr := obs.TraceFrom(r)
	tr.EnsureID(obs.TraceID(base, fmt.Sprintf("tick|n=%d", n), 0))
	lw.mu.Lock()
	target := lw.eng.Tick() + uint64(n)
	applied := tr.Begin("tick-apply")
	advanced, err := lw.eng.AdvanceTo(r.Context(), target)
	applied()
	var view *tickView
	if len(advanced) > 0 {
		view = lw.publish()
	} else {
		view = lw.cur.Load()
	}
	lw.mu.Unlock()
	if err != nil {
		// Partial progress was still committed and published; the error
		// explains where the timeline stopped.
		finish(w, r, nil, false, err)
		return
	}
	writeJSON(w, http.StatusOK, tickResponse{
		Base: base, Digest: view.digest, Live: true, Tick: view.tick,
		Metrics: view.metrics, Advanced: advanced,
	})
}

type sinceResponse struct {
	Base   string         `json:"base"`
	Digest string         `json:"digest"`
	From   uint64         `json:"from"`
	To     uint64         `json:"to"`
	Ticks  []tick.Result  `json:"ticks"`
	Delta  scenario.Delta `json:"delta"`
}

// handleSince answers "what happened since tick t": the committed events
// and per-tick metrics after t, plus the headline movement between t and
// now. It reads one immutable view — a tick landing mid-request changes
// nothing this response sees.
func (s *Server) handleSince(w http.ResponseWriter, r *http.Request) {
	digest, view, ok := s.resolveLive(w, r)
	if !ok {
		return
	}
	if view == nil {
		httpError(w, http.StatusNotFound, "world %.12s is not live (POST /v1/tick to start its clock)", digest)
		return
	}
	t, err := intParam(r.URL.Query().Get("t"), 0)
	if err != nil || t < 0 {
		httpError(w, http.StatusBadRequest, "bad t: %v", err)
		return
	}
	resp := sinceResponse{
		Base: view.ws.digest[:strings.IndexByte(view.ws.digest, '@')], Digest: view.digest,
		From: uint64(t), To: view.tick,
		Ticks: []tick.Result{},
	}
	var baseM scenario.Metrics
	haveBase := false
	for _, res := range view.hist {
		if res.Tick == uint64(t) {
			baseM, haveBase = res.Metrics, true
		}
		if res.Tick > uint64(t) {
			resp.Ticks = append(resp.Ticks, res)
		}
	}
	if haveBase {
		resp.Delta = scenario.CellResult{Metrics: view.metrics}.Diff(baseM)
	}
	writeJSON(w, http.StatusOK, resp)
}

type newspaperResponse struct {
	Base   string         `json:"base"`
	Digest string         `json:"digest"`
	Paper  tick.Newspaper `json:"paper"`
	Text   string         `json:"text"`
}

// handleNewspaper renders the digest view of a live world's recent
// window (?window=N ticks, default the whole in-memory history).
func (s *Server) handleNewspaper(w http.ResponseWriter, r *http.Request) {
	digest, view, ok := s.resolveLive(w, r)
	if !ok {
		return
	}
	if view == nil {
		httpError(w, http.StatusNotFound, "world %.12s is not live (POST /v1/tick to start its clock)", digest)
		return
	}
	window, err := intParam(r.URL.Query().Get("window"), 0)
	if err != nil || window < 0 {
		httpError(w, http.StatusBadRequest, "bad window: %v", err)
		return
	}
	np := tick.BuildNewspaper(view.hist, int(window))
	writeJSON(w, http.StatusOK, newspaperResponse{
		Base:   view.ws.digest[:strings.IndexByte(view.ws.digest, '@')],
		Digest: view.digest,
		Paper:  np,
		Text:   np.String(),
	})
}
