package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/fault"
	"remotepeering/internal/obs"
	"remotepeering/internal/serve"
)

// maxProxyBody caps a buffered request body; it matches the worker-side
// what-if cap, the only sizable body the tier accepts.
const maxProxyBody = 1 << 20

// response is a fully-buffered worker reply: buffering is what lets the
// router replay requests across failover attempts without streaming
// complications.
type response struct {
	status int
	header http.Header
	body   []byte
	member string
}

// passHeaders are the worker headers the router forwards verbatim.
var passHeaders = []string{"Content-Type", "X-Cache", "Retry-After"}

func (rs *response) write(w http.ResponseWriter) {
	for _, h := range passHeaders {
		if v := rs.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Member", rs.member)
	w.WriteHeader(rs.status)
	w.Write(rs.body)
}

// Handler returns the router's HTTP surface: the same /v1 routes a
// single worker exposes (so clients and load generators are
// fleet-oblivious), plus /v1/fleet for membership introspection and
// GET /metrics for the router's own registry. The whole mux runs under
// obs.Instrument, so every routed request carries a trace and lands in
// the inbound latency histogram (and the flight recorder, when one is
// configured).
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet", r.handleFleet)
	mux.HandleFunc("GET /v1/healthz", r.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", r.handleReadyz)
	mux.HandleFunc("GET /v1/worlds", r.handleWorlds)
	mux.HandleFunc("GET /v1/report/{id}", r.handleReport)
	for _, route := range []string{
		"GET /v1/world", "GET /v1/spread", "GET /v1/offload",
		"GET /v1/whatif", "POST /v1/whatif",
		"GET /v1/tick", "POST /v1/tick", "GET /v1/since", "GET /v1/newspaper",
	} {
		mux.HandleFunc(route, r.handleRouted)
	}
	mux.Handle("GET /metrics", r.reg.Handler())
	if r.recorder != nil {
		mux.Handle("GET /debug/requests", r.recorder.Handler())
	}
	observe := func(req *http.Request, _ int, d time.Duration) {
		r.requests.With(obs.EndpointClass(req)).Observe(d)
	}
	return obs.Instrument(mux, r.recorder, observe)
}

func routerJSON(w http.ResponseWriter, status int, v any) {
	body, err := serve.MarshalBody(v)
	if err != nil {
		http.Error(w, `{"error":"encode failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func routerError(w http.ResponseWriter, status int, format string, args ...any) {
	routerJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(r, maxProxyBody)).Decode(v)
}

// resolveStatus maps a resolution failure to the same statuses a single
// node uses: unknown world → 404, ambiguous prefix → 400.
func resolveStatus(err error) int {
	if errors.Is(err, catalog.ErrAmbiguous) {
		return http.StatusBadRequest
	}
	return http.StatusNotFound
}

// orphan503 is the graceful-degradation answer for a world the fleet
// knows but no routable member owns: a stable JSON body plus a
// Retry-After derived from how long a Down member needs to come back
// through the heartbeat gate. Every other world keeps serving.
func (r *Router) orphan503(w http.ResponseWriter, digest string) {
	r.unroutable.Add(1)
	retry := int((time.Duration(r.cfg.DownAfter)*r.cfg.HeartbeatEvery + time.Second - 1) / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, "{\n  \"error\": \"world %.16s has no live owner (fleet degraded)\"\n}\n", digest)
}

// errMemberDown is the cause of a forward aborted because the heartbeat
// moved its member to Down while the request was in flight.
var errMemberDown = errors.New("member went down")

// forward issues one request to one member and buffers the reply. The
// request is tied to the member's life: if the heartbeat moves the
// member to Down first, the forward aborts with a transport error, so a
// hung owner's requests fail over like dropped connections.
func (r *Router) forward(ctx context.Context, m *member, method, path, query string, hdr http.Header, body []byte) (*response, error) {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stop := context.AfterFunc(m.alive(), func() { cancel(errMemberDown) })
	defer stop()

	url := m.url + path
	if query != "" {
		url += "?" + query
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if ct := hdr.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	tr := obs.TraceFromContext(ctx)
	if id := tr.ID(); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	start := time.Now()
	fail := func(err error) (*response, error) {
		if cause := context.Cause(ctx); errors.Is(cause, errMemberDown) {
			err = fmt.Errorf("%s: %w", m.url, cause)
		}
		tr.Add("forward-error", m.url+": "+err.Error(), start, time.Since(start))
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail(err)
	}
	tr.Add("forward", m.url, start, time.Since(start))
	return &response{status: resp.StatusCode, header: resp.Header, body: buf, member: m.url}, nil
}

// send routes one world-scoped request to its rendezvous owner, and on
// a transport failure — a dead or partitioned owner, or one the
// heartbeat moved to Down mid-request — rehashes and retries along the
// ranking with capped, deterministically-jittered backoff. A transport
// error means no response byte arrived, so retrying an idempotent
// request is safe; POST /v1/tick advances a timeline and gets exactly
// one attempt. A request whose own context ended is not retried and not
// counted: the client is gone, nothing failed over.
func (r *Router) send(ctx context.Context, digest string, idempotent bool, method, path, query string, hdr http.Header, body []byte) (*response, error) {
	class := method + " " + path
	attempts := r.cfg.MaxAttempts
	if !idempotent {
		attempts = 1
	}
	var resp *response
	tried := make(map[string]bool)
	retry := func(err error) bool { return ctx.Err() == nil && !errors.Is(err, catalog.ErrUnknownWorld) }
	err := fault.Retry(ctx, attempts, r.cfg.BackoffBase, r.cfg.BackoffMax, "fleet|"+digest+"|"+class, retry, func(attempt int) error {
		// A failover is a retry after a member actually failed us. An
		// orphaned world (no candidate was ever tried) is not one — it is
		// counted once, as unroutable, when the 503 is written.
		if attempt > 0 && len(tried) > 0 {
			r.failovers.Add(1)
			obs.TraceFromContext(ctx).Event("failover", "attempt "+strconv.Itoa(attempt))
		}
		// Rehash on every attempt: membership may have shifted while we
		// backed off, and a candidate that already failed this request is
		// deprioritized.
		cands, known := r.candidates(digest)
		if len(cands) == 0 {
			if !known {
				return fmt.Errorf("%w: %.16s", catalog.ErrUnknownWorld, digest)
			}
			return fmt.Errorf("no routable owner for %.16s", digest)
		}
		owner := cands[0]
		for _, c := range cands {
			if !tried[c.url] {
				owner = c
				break
			}
		}
		tried[owner.url] = true

		start := time.Now()
		rs, err := r.forward(ctx, owner, method, path, query, hdr, body)
		if err != nil {
			return err
		}
		r.lat.With(class).Observe(time.Since(start))
		r.forwards.Add(1)
		resp = rs
		return nil
	})
	return resp, err
}

// handleRouted is the generic world-scoped proxy: resolve the world key
// (digest prefixes and live "@tick" suffixes included), find the owner,
// and forward with the failure handling the request class allows.
func (r *Router) handleRouted(w http.ResponseWriter, req *http.Request) {
	key := req.URL.Query().Get("world")
	digest, err := r.resolve(key)
	if err != nil {
		routerError(w, resolveStatus(err), "%v", err)
		return
	}
	query := rewriteWorld(req.URL.RawQuery, key, digest)
	obs.TraceFrom(req).EnsureID(obs.TraceID(digest, req.Method+" "+req.URL.Path+"?"+query, 0))
	isTick := req.Method == http.MethodPost && req.URL.Path == "/v1/tick"
	var body []byte
	if req.Body != nil && req.Method == http.MethodPost {
		body, err = io.ReadAll(http.MaxBytesReader(w, req.Body, maxProxyBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				routerError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
				return
			}
			routerError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
	}
	ctx := req.Context()
	resp, err := r.send(ctx, digest, !isTick, req.Method, req.URL.Path,
		query, req.Header, body)
	switch {
	case err == nil:
		resp.write(w)
	case errors.Is(err, catalog.ErrUnknownWorld):
		routerError(w, http.StatusNotFound, "%v", err)
	case ctx.Err() != nil:
		// The client hung up or ran out of its own deadline: the status is
		// for logs and tests, as on a worker.
		routerError(w, 499, "request cancelled: %v", ctx.Err())
	default:
		// Dead owners, partitions, exhausted retries: the orphaned-world
		// 503.
		r.log.Warn("route failed", "world", digest[:min(16, len(digest))], "err", err)
		r.orphan503(w, digest)
	}
}

// --- router-local endpoints ---

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	routerJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "router"})
}

func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if len(r.upMembers()) == 0 {
		routerError(w, http.StatusServiceUnavailable, "no members up")
		return
	}
	routerJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// memberJSON is one /v1/fleet row.
type memberJSON struct {
	URL    string   `json:"url"`
	State  string   `json:"state"`
	Worlds []string `json:"worlds"`
}

type fleetResponse struct {
	Members    []memberJSON `json:"members"`
	Forwards   int64        `json:"forwards"`
	Failovers  int64        `json:"failovers"`
	Unroutable int64        `json:"unroutable"`
}

func (r *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	resp := fleetResponse{
		Forwards:   r.forwards.Value(),
		Failovers:  r.failovers.Value(),
		Unroutable: r.unroutable.Value(),
	}
	for _, m := range r.members {
		resp.Members = append(resp.Members, memberJSON{
			URL:    m.url,
			State:  m.getState().String(),
			Worlds: m.snapshotWorlds(),
		})
	}
	routerJSON(w, http.StatusOK, resp)
}

// handleWorlds aggregates the Up members' catalogs into the same shape a
// single worker answers, so fleet-oblivious tools (chaosload's warmup
// digest discovery among them) work unchanged against the router. World
// entries are passed through as raw JSON — worker bytes, deduplicated by
// digest — and the capacity gauges are fleet-wide sums.
func (r *Router) handleWorlds(w http.ResponseWriter, req *http.Request) {
	type worldsBody struct {
		Worlds        []json.RawMessage `json:"worlds"`
		ResidentBytes int64             `json:"resident_bytes"`
		BudgetBytes   int64             `json:"budget_bytes"`
		Attaches      int64             `json:"attaches"`
		Evictions     int64             `json:"evictions"`
	}
	var out worldsBody
	seen := make(map[string]bool)
	for _, m := range r.upMembers() {
		resp, err := r.forward(req.Context(), m, http.MethodGet, "/v1/worlds", "", nil, nil)
		if err != nil || resp.status != http.StatusOK {
			continue
		}
		var body worldsBody
		if err := json.Unmarshal(resp.body, &body); err != nil {
			continue
		}
		for _, raw := range body.Worlds {
			var probe struct {
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal(raw, &probe); err != nil || seen[probe.Digest] {
				continue
			}
			seen[probe.Digest] = true
			out.Worlds = append(out.Worlds, raw)
		}
		out.ResidentBytes += body.ResidentBytes
		out.BudgetBytes += body.BudgetBytes
		out.Attaches += body.Attaches
		out.Evictions += body.Evictions
	}
	sort.Slice(out.Worlds, func(i, j int) bool {
		return string(out.Worlds[i]) < string(out.Worlds[j])
	})
	if out.Worlds == nil {
		out.Worlds = []json.RawMessage{}
	}
	routerJSON(w, http.StatusOK, out)
}

// handleReport fans a report lookup across the routable members in
// rendezvous order of the report id — the member that computed a query
// is the likeliest to still cache it, but any member may answer.
func (r *Router) handleReport(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	members := r.upMembers()
	sort.Slice(members, func(i, j int) bool {
		return score(members[i].url, id) > score(members[j].url, id)
	})
	var last *response
	for _, m := range members {
		resp, err := r.forward(req.Context(), m, http.MethodGet, "/v1/report/"+id, "", nil, nil)
		if err != nil {
			continue
		}
		if resp.status == http.StatusOK {
			resp.write(w)
			return
		}
		last = resp
	}
	if last != nil {
		last.write(w)
		return
	}
	routerError(w, http.StatusNotFound, "no cached report %q in the fleet", id)
}

// rewriteWorld replaces the request's world key with the fully-resolved
// digest (preserving any live "@tick" suffix), so a worker never has to
// re-resolve a prefix against its partial slice of the union catalog —
// the router's resolution is authoritative for the fleet.
func rewriteWorld(raw, key, digest string) string {
	suffix := ""
	if i := strings.IndexByte(key, '@'); i >= 0 {
		suffix = key[i:]
	}
	kept := make([]string, 0, 4)
	for _, p := range strings.Split(raw, "&") {
		if p == "" {
			continue
		}
		if k, _, _ := strings.Cut(p, "="); k == "world" {
			continue
		}
		kept = append(kept, p)
	}
	kept = append(kept, "world="+digest+suffix)
	return strings.Join(kept, "&")
}
