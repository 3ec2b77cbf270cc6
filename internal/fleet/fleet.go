// Package fleet turns one chaos-hardened rpserve process into a
// chaos-hardened tier of them: N worker nodes each serve their snapshot
// catalogs as usual, and a Router in front forwards every /v1 query to
// the worker that owns the requested world — ownership being a
// rendezvous hash over the healthy members advertising the world's
// digest, so each node serves a consistent-hash slice of the union
// catalog and a membership change moves only the slices it must.
//
// Robustness is the headline, not an afterthought:
//
//   - membership is health-gated: a heartbeat loop per peer (persistent
//     HTTP/1.1 keepalive connections) polls /v1/healthz; missed beats
//     move a member Up → Suspect → Down, a success snaps it back to Up
//     and refreshes its world advertisements from /v1/worlds. The typed
//     states are exposed at /v1/fleet.
//   - a dead or partitioned owner triggers rehash-and-retry: the request
//     fails over along the rendezvous ranking inside fault.Retry, the
//     repository's one retry loop, with capped exponential backoff and
//     deterministic jitter, so retries never thunder and never perturb
//     results.
//   - a hung owner is cut loose when the heartbeat moves it to Down:
//     every forward in flight to it is cancelled and fails over like a
//     dropped connection. A slow but healthy owner is waited for — the
//     next-ranked worker has neither the owner's result cache nor,
//     usually, the attached world, so a duplicate would recompute from
//     cold.
//   - POST /v1/tick advances a timeline, so it gets exactly one attempt
//     and is never retried, keeping tick commits exactly-once.
//   - degradation is graceful and stable: a world whose every advertiser
//     is Down answers a fixed 503 JSON body with Retry-After while every
//     other world keeps serving; a world nobody has ever advertised is a
//     404, exactly as a single node distinguishes unknown from unready.
//
// The byte-identity contract survives the tier: a fault plane (network
// classes conndrop/netdelay/partition/slownode) may change whether and
// when a request completes, but every completed response body is
// byte-identical to a fault-free single-node run.
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/fault"
	"remotepeering/internal/obs"
)

// State is a member's health, as decided by the heartbeat loop.
type State int

const (
	// Down is a member that has missed DownAfter beats (or has never
	// answered one). It receives no traffic.
	Down State = iota
	// Suspect has missed at least SuspectAfter beats: still routable as
	// a last resort, but ranked behind every Up member.
	Suspect
	// Up answered its latest heartbeat.
	Up
)

func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	default:
		return "down"
	}
}

// Config parameterises a Router.
type Config struct {
	// Peers are the worker base URLs (e.g. http://127.0.0.1:9081). At
	// least one is required.
	Peers []string
	// HeartbeatEvery is the per-peer heartbeat interval (default 500ms).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout bounds one heartbeat probe (default 2s).
	HeartbeatTimeout time.Duration
	// SuspectAfter and DownAfter are the missed-beat thresholds for the
	// Up→Suspect and →Down transitions (defaults 1 and 3).
	SuspectAfter int
	DownAfter    int
	// MaxAttempts caps rehash-and-retry failover per request: it is the
	// attempt budget of the request's fault.Retry loop, whose default of 3
	// a value ≤ 0 takes. POST /v1/tick always gets one attempt.
	MaxAttempts int
	// BackoffBase and BackoffMax parameterise fault.Backoff between
	// failover attempts (zero values use fault.Backoff's defaults).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Faults injects the network fault classes (conndrop, netdelay,
	// partition, slownode) into every outbound request and heartbeat.
	// nil is production: no faults.
	Faults *fault.Plane
	// Transport overrides the base HTTP transport (tests). nil uses a
	// keepalive transport.
	Transport http.RoundTripper
	// Logger receives router events — membership transitions and route
	// failures — as structured records (nil discards them).
	Logger *slog.Logger
	// Metrics, when set, hosts the router's counters, the per-class
	// latency histograms, and the member-state gauges, and mounts the
	// exposition at GET /metrics. nil keeps the counters on a private
	// registry (so /v1/fleet still reports them) without an exposition
	// endpoint on the /v1 surface.
	Metrics *obs.Registry
	// Recorder, when set, captures per-request span records — forward
	// and failover legs included — into a bounded flight recorder mounted
	// at GET /debug/requests.
	Recorder *obs.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	return c
}

// member is one worker node as the router sees it.
type member struct {
	url string

	mu     sync.Mutex
	state  State
	misses int
	worlds map[string]bool // advertised genesis digests
	// ctx lives while the member is routable: miss cancels it when the
	// member goes Down, which aborts every forward in flight to it, and
	// beat replaces it when the member comes back Up.
	ctx    context.Context
	cancel context.CancelFunc
}

// newMember returns a member in the Down state, its context already
// cancelled until the first heartbeat succeeds.
func newMember(url string) *member {
	m := &member{url: url, worlds: make(map[string]bool)}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.cancel()
	return m
}

// snapshotWorlds returns the advertised digests under the lock.
func (m *member) snapshotWorlds() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.worlds))
	for d := range m.worlds {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func (m *member) getState() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// alive returns the context that ends when the member goes Down.
func (m *member) alive() context.Context {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ctx
}

// advertises reports whether the member has ever advertised the digest.
// Advertisements survive the member going Down — that memory is what
// lets the router answer 503 (known world, no owner) instead of 404.
func (m *member) advertises(digest string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.worlds[digest]
}

// beat records a successful heartbeat carrying a fresh world list.
func (m *member) beat(worlds []string) (changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed = m.state != Up
	if m.state == Down {
		m.ctx, m.cancel = context.WithCancel(context.Background())
	}
	m.state = Up
	m.misses = 0
	if worlds != nil {
		if m.worlds == nil {
			m.worlds = make(map[string]bool, len(worlds))
		}
		for _, d := range worlds {
			m.worlds[d] = true
		}
	}
	return changed
}

// miss records a failed heartbeat and applies the threshold transitions.
func (m *member) miss(cfg Config) (now State, changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	was := m.state
	m.misses++
	switch {
	case m.misses >= cfg.DownAfter:
		m.state = Down
	case m.misses >= cfg.SuspectAfter && m.state == Up:
		m.state = Suspect
	}
	if m.state == Down && was != Down {
		m.cancel()
	}
	return m.state, m.state != was
}

// Router is the fleet's front door: health-gated membership plus
// rendezvous-hash routing with failover.
type Router struct {
	cfg     Config
	client  *http.Client
	members []*member
	log     *slog.Logger

	stop chan struct{}
	wg   sync.WaitGroup

	// The observability plane. reg is the registry the routing counters
	// and histograms live on — Config.Metrics when provided, else a
	// private one so /v1/fleet always reports. lat is the per-class
	// successful-forward latency histogram; requests is the inbound
	// request histogram the middleware feeds.
	reg      *obs.Registry
	lat      *obs.HistogramVec
	requests *obs.HistogramVec
	recorder *obs.FlightRecorder

	forwards   *obs.Counter
	failovers  *obs.Counter
	unroutable *obs.Counter
}

// New builds a Router over the configured peers. Members start Down and
// are promoted by their first successful heartbeat; call Start to begin
// probing (and to run one synchronous round so the router is useful
// immediately).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("fleet: no peers")
	}
	base := cfg.Transport
	if base == nil {
		// Persistent HTTP/1.1 keepalives to every peer: heartbeats and
		// forwards reuse warm connections instead of paying a dial per
		// probe.
		base = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	var rt http.RoundTripper = base
	if cfg.Faults != nil {
		rt = &chaosTransport{base: base, plane: cfg.Faults}
	}
	r := &Router{
		cfg:      cfg,
		client:   &http.Client{Transport: rt},
		stop:     make(chan struct{}),
		log:      cfg.Logger,
		recorder: cfg.Recorder,
	}
	if r.log == nil {
		r.log = slog.New(slog.DiscardHandler)
	}
	seen := make(map[string]bool, len(cfg.Peers))
	for _, p := range cfg.Peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.members = append(r.members, newMember(p))
	}
	if len(r.members) == 0 {
		return nil, fmt.Errorf("fleet: no usable peers in %q", cfg.Peers)
	}
	r.instrument()
	return r, nil
}

// instrument registers the router's counters, histograms, and member-
// state gauges. Without a configured registry they live on a private one
// — the counters still feed /v1/fleet, there is just no /metrics mount.
func (r *Router) instrument() {
	reg := r.cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.reg = reg
	r.forwards = reg.Counter("rp_fleet_forwards_total", "Requests successfully forwarded to a worker.")
	r.failovers = reg.Counter("rp_fleet_failovers_total", "Failover attempts after a tried owner failed.")
	r.unroutable = reg.Counter("rp_fleet_unroutable_total", "Requests answered 503 because no routable member owns the world.")
	r.lat = reg.HistogramVec("rp_fleet_forward_seconds", "Successful-forward latency by request class.", "class")
	r.requests = reg.HistogramVec("rp_fleet_request_seconds", "Router request latency by endpoint class.", "class")
	for _, st := range []State{Up, Suspect, Down} {
		st := st
		reg.GaugeFunc("rp_fleet_members", "Fleet members by health state.",
			func() float64 {
				n := 0
				for _, m := range r.members {
					if m.getState() == st {
						n++
					}
				}
				return float64(n)
			}, "state", st.String())
	}
}

// Start runs one synchronous heartbeat round (so routing works as soon
// as Start returns) and then launches the per-peer heartbeat loops.
func (r *Router) Start() {
	var wg sync.WaitGroup
	for _, m := range r.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			r.probe(m)
		}(m)
	}
	wg.Wait()
	for _, m := range r.members {
		r.wg.Add(1)
		go r.heartbeatLoop(m)
	}
}

// Close stops the heartbeat loops.
func (r *Router) Close() {
	close(r.stop)
	r.wg.Wait()
}

func (r *Router) heartbeatLoop(m *member) {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probe(m)
		}
	}
}

// probe runs one heartbeat: GET /v1/healthz, and on success a refresh of
// the member's world advertisements from /v1/worlds.
func (r *Router) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HeartbeatTimeout)
	defer cancel()
	ok := r.checkHealth(ctx, m)
	if !ok {
		if state, changed := m.miss(r.cfg); changed {
			r.log.Info("member state changed", "member", m.url, "state", state.String())
		}
		return
	}
	worlds := r.fetchWorlds(ctx, m)
	if changed := m.beat(worlds); changed {
		r.log.Info("member state changed", "member", m.url, "state", "up")
	}
}

func (r *Router) checkHealth(ctx context.Context, m *member) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// fetchWorlds reads a member's catalog advertisement. A failed or
// malformed read returns nil, which leaves the member's previous
// advertisements in place.
func (r *Router) fetchWorlds(ctx context.Context, m *member) []string {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/worlds", nil)
	if err != nil {
		return nil
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var body struct {
		Worlds []struct {
			Digest string `json:"digest"`
			State  string `json:"state"`
		} `json:"worlds"`
	}
	if err := decodeJSON(resp.Body, &body); err != nil {
		return nil
	}
	worlds := make([]string, 0, len(body.Worlds))
	for _, w := range body.Worlds {
		if w.State == catalog.Quarantined.String() {
			continue
		}
		worlds = append(worlds, w.Digest)
	}
	return worlds
}

// --- rendezvous routing ---

// score is the rendezvous (highest-random-weight) hash of (member,
// digest): every router ranks the same members the same way for a given
// world, and removing a member only reassigns the worlds it owned.
func score(memberURL, digest string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s", memberURL, digest)
	return fault.Mix64(h.Sum64())
}

// candidates returns the members that advertise the digest, routable
// first (Up ranked before Suspect, rendezvous order within each band;
// Down excluded), plus whether any member — routable or not — has ever
// advertised it. known && len(cands)==0 is the orphaned-world case.
func (r *Router) candidates(digest string) (cands []*member, known bool) {
	type scored struct {
		m  *member
		st State
		sc uint64
	}
	var elig []scored
	for _, m := range r.members {
		if !m.advertises(digest) {
			continue
		}
		known = true
		st := m.getState()
		if st == Down {
			continue
		}
		elig = append(elig, scored{m, st, score(m.url, digest)})
	}
	sort.Slice(elig, func(i, j int) bool {
		if elig[i].st != elig[j].st {
			return elig[i].st > elig[j].st // Up before Suspect
		}
		return elig[i].sc > elig[j].sc
	})
	for _, e := range elig {
		cands = append(cands, e.m)
	}
	return cands, known
}

// memberByURL returns the member with the given base URL, or nil.
func (r *Router) memberByURL(url string) *member {
	for _, m := range r.members {
		if m.url == url {
			return m
		}
	}
	return nil
}

// upMembers returns the Up members in stable order.
func (r *Router) upMembers() []*member {
	var out []*member
	for _, m := range r.members {
		if m.getState() == Up {
			out = append(out, m)
		}
	}
	return out
}

// digests returns the union of advertised digests and, per digest,
// whether at least one routable member advertises it.
func (r *Router) digests() map[string]bool {
	out := make(map[string]bool)
	for _, m := range r.members {
		routable := m.getState() != Down
		for _, d := range m.snapshotWorlds() {
			out[d] = out[d] || routable
		}
	}
	return out
}

// resolve maps a world= key (possibly a digest prefix, possibly with a
// live "@tick" suffix) to a fully-qualified genesis digest, with the
// same precedence as a single node's catalog: exact match first, then
// unique prefix; empty key resolves iff exactly one world is known.
func (r *Router) resolve(key string) (string, error) {
	base := key
	if i := strings.IndexByte(base, '@'); i >= 0 {
		base = base[:i]
	}
	union := r.digests()
	if base == "" {
		if len(union) == 1 {
			for d := range union {
				return d, nil
			}
		}
		if len(union) == 0 {
			return "", fmt.Errorf("%w: the fleet serves no worlds", catalog.ErrUnknownWorld)
		}
		return "", fmt.Errorf("%w: empty key with %d worlds in the fleet (pass world=<digest prefix>)", catalog.ErrAmbiguous, len(union))
	}
	if _, ok := union[base]; ok {
		return base, nil
	}
	var hits []string
	for d := range union {
		if strings.HasPrefix(d, base) {
			hits = append(hits, d)
		}
	}
	sort.Strings(hits)
	switch len(hits) {
	case 0:
		return "", fmt.Errorf("%w: %q", catalog.ErrUnknownWorld, key)
	case 1:
		return hits[0], nil
	default:
		return "", fmt.Errorf("%w: %q matches %d worlds (e.g. %.12s…, %.12s…)",
			catalog.ErrAmbiguous, key, len(hits), hits[0], hits[1])
	}
}

// --- chaos transport ---

// chaosTransport injects the fault plane's network classes into every
// outbound request: partition and slownode draw once per node (sticky),
// conndrop and netdelay per request. Faults change whether and when a
// request completes — never the bytes of one that does.
type chaosTransport struct {
	base  http.RoundTripper
	plane *fault.Plane
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	node := req.URL.Host
	if t.plane.StickyShould(fault.Partition, node) {
		return nil, &fault.Injected{Class: fault.Partition, Key: node}
	}
	if err := t.plane.Err(fault.ConnDrop, node+"|"+req.URL.Path); err != nil {
		return nil, err
	}
	t.plane.SleepIf(fault.NetDelay, node+"|"+req.URL.Path)
	if t.plane.StickyShould(fault.SlowNode, node) {
		select {
		case <-time.After(t.plane.FullDelay()):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return t.base.RoundTrip(req)
}
