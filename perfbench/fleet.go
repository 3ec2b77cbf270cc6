package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/fleet"
	"remotepeering/internal/obs"
	"remotepeering/internal/serve"
	"remotepeering/internal/tick"
)

// fleetOpts are the rpserve flags a workload overrides; everything else
// stays at rpserve's defaults (one evaluation worker per CPU, a 64 MB
// result cache, metrics registry and flight recorder on).
type fleetOpts struct {
	snapDir    string       // -snapshot-dir, shared by both workers
	residentMB int          // -resident-mb (0 = unlimited)
	liveDir    string       // -live-dir root; each worker journals under its own subdirectory
	tick       *tick.Config // -tick (nil = the default regime)
}

// node is one in-process rpserve worker.
type node struct {
	name string // rendezvous member name the router hashes, e.g. "w0.fleet"
	addr string // the loopback address it listens on
	url  string // http://addr, for direct requests
	srv  *serve.Server
	cat  *catalog.Catalog
	rec  *obs.FlightRecorder
	hs   *http.Server
	done chan error
}

// benchFleet is the in-process fleet: a router in front of two workers,
// all over loopback HTTP, built the way cmd/rpserve builds each role.
type benchFleet struct {
	nodes  []*node
	router *fleet.Router
	rrec   *obs.FlightRecorder
	rurl   string
	rhs    *http.Server
	rdone  chan error
	// memberChanges counts the router's "member state changed" log
	// records: its Config.Logger is the only place transitions surface.
	memberChanges atomic.Int64
}

// Rendezvous ownership hashes (member URL, world digest). The router
// addresses the workers by fixed names that a dialer maps to their
// loopback ports, so which worker owns a world depends on the world's
// digest alone and repeats from run to run.
var nodeNames = []string{"w0.fleet", "w1.fleet"}

func startFleet(o fleetOpts) (*benchFleet, error) {
	f := &benchFleet{}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	errLog := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	addrs := make(map[string]string, len(nodeNames))
	var peers []string
	for i, name := range nodeNames {
		cat, err := catalog.Open(o.snapDir, catalog.Options{ResidentBytes: int64(o.residentMB) << 20})
		if err != nil {
			return nil, err
		}
		n := &node{name: name, cat: cat, rec: obs.NewFlightRecorder(0)}
		n.rec.SetLogger(errLog)
		cfg := serve.Config{
			Catalog:  cat,
			Metrics:  obs.NewRegistry(),
			Recorder: n.rec,
			Tick:     o.tick,
		}
		if o.liveDir != "" {
			cfg.LiveDir = fmt.Sprintf("%s/%d", o.liveDir, i)
		}
		if n.srv, err = serve.New(cfg); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n.addr = ln.Addr().String()
		n.url = "http://" + n.addr
		n.hs = serve.NewHTTPServer(n.addr, n.srv.Handler())
		n.done = serveOn(n.hs, ln)
		f.nodes = append(f.nodes, n)
		addrs[name] = n.addr
		peers = append(peers, "http://"+name)
	}

	// The router's transport is rpserve's keepalive transport plus a dialer
	// that resolves the member names.
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, _ := strings.Cut(addr, ":")
			if real, ok := addrs[host]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	}
	f.rrec = obs.NewFlightRecorder(0)
	f.rrec.SetLogger(errLog)
	router, err := fleet.New(fleet.Config{
		Peers:     peers,
		Transport: transport,
		Logger:    slog.New(&changeCounter{n: &f.memberChanges}),
		Metrics:   obs.NewRegistry(),
		Recorder:  f.rrec,
	})
	if err != nil {
		return nil, err
	}
	router.Start()
	f.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.rurl = "http://" + ln.Addr().String()
	f.rhs = serve.NewHTTPServer(ln.Addr().String(), router.Handler())
	f.rdone = serveOn(f.rhs, ln)
	ok = true
	return f, nil
}

// serveOn runs hs on ln; the returned channel yields the listener's exit.
func serveOn(hs *http.Server, ln net.Listener) chan error {
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return done
}

// stop shuts the router and workers down and waits for every listener
// goroutine, the router's heartbeat loops, and the live-world journals.
func (f *benchFleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	shut := func(hs *http.Server, done chan error) {
		if hs == nil {
			return
		}
		errs = append(errs, hs.Shutdown(ctx))
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	shut(f.rhs, f.rdone)
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.nodes {
		shut(n.hs, n.done)
	}
	for _, n := range f.nodes {
		if n.srv != nil {
			errs = append(errs, awaitIdle(n.srv), n.srv.Close())
		}
		errs = append(errs, n.cat.Close())
	}
	return errors.Join(errs...)
}

// awaitIdle waits for a worker's detached computations to finish. The
// losing leg of a hedged request is cancelled with its request, but its
// computation stops only at the next stage boundary and releases its
// world lease then — after the HTTP server has already shut down.
func awaitIdle(srv *serve.Server) error {
	for deadline := time.Now().Add(30 * time.Second); srv.Pending() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d computations still running 30s after shutdown", srv.Pending())
		}
	}
	return nil
}

// nodeByURL maps the X-Fleet-Member header (a member URL) to its worker.
func (f *benchFleet) nodeByURL(member string) *node {
	for _, n := range f.nodes {
		if "http://"+n.name == member {
			return n
		}
	}
	return nil
}

// changeCounter is the router's slog handler: it counts membership
// transitions and drops every other record.
type changeCounter struct{ n *atomic.Int64 }

func (h *changeCounter) Enabled(context.Context, slog.Level) bool { return true }
func (h *changeCounter) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *changeCounter) WithGroup(string) slog.Handler            { return h }
func (h *changeCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "member state changed" {
		h.n.Add(1)
	}
	return nil
}
