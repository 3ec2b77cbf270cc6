// Command rpserve is the long-lived query side of the reproduction: it
// serves the /v1 JSON API — world summary, spread study, offload
// analysis, and concurrent what-if scenario grids with request
// deduplication and an LRU result cache — until SIGTERM/SIGINT, then
// shuts down gracefully. It serves either one snapshot (-snapshot, built
// with rpworld/rpoffload/rpspread -save) or a whole directory of them
// (-snapshot-dir): a catalog where worlds attach on demand, stay
// resident under -resident-mb, and are selected per request with
// world=<digest prefix>.
//
// Usage:
//
//	rpworld -seed 1 -save world.flat
//	rpserve -snapshot world.flat -listen :8080 &
//	rpserve -snapshot-dir worlds/ -resident-mb 256 -listen :8080 &
//	curl 'localhost:8080/v1/worlds'
//	curl 'localhost:8080/v1/whatif?scenarios=ams-outage%3Doutage%3AAMS-IX'
//
// Endpoints:
//
//	GET  /v1/world         world summary (digest, sizes, layers)  [world]
//	GET  /v1/worlds        catalog overview: every world's health + residency counters
//	GET  /v1/healthz       liveness probe (always 200 while serving)
//	GET  /v1/readyz        readiness probe (503 once no world is servable)
//	GET  /v1/spread        Section 3 campaign summary  [world, seed, days]
//	GET  /v1/offload       Section 4 analysis          [world, group, k, greedy, traffic-seed, intervals]
//	GET  /v1/whatif        scenario grid (also POST with a JSON body)
//	                       [world, scenarios, seeds, measure-seed, traffic-seed, k, greedy, intervals, days]
//	GET  /v1/report/{id}   a previously computed response by content id
//	GET  /v1/tick          a world's clock: live?, tick, view digest    [world]
//	POST /v1/tick          advance the living world n ticks             [world, n]
//	GET  /v1/since         events + metric movement since tick t        [world, t]
//	GET  /v1/newspaper     digest of the recent window of ticks         [world, window]
//
// POST /v1/tick brings any served world to life: a tick engine attaches
// to it (regime set by -tick) and evolves it through membership churn,
// traffic drift, price walks, and occasional outages. Each committed tick
// publishes a new immutable view whose digest is "<base>@<tick>" — the
// content address queries key on — so ticking never tears a concurrent
// read and cached bytes stay correct forever.
//
// Identical queries against the same snapshot are answered from the
// result cache in microseconds — without attaching the world, if it has
// gone cold; identical *concurrent* queries coalesce onto one
// computation. Abandoned requests cancel their evaluation, a per-query
// deadline (-query-timeout) bounds each computation, and once -max-pending
// computations are queued or running, new cold queries are shed with
// 429 + Retry-After while cache hits keep serving. A snapshot failing its
// CRC validation is quarantined, not retried; the rest of the catalog
// keeps serving. -chaos injects a seeded fault schedule (attach delays
// and failures, evaluation panics, cache drops) for robustness drills:
// completed responses stay byte-identical to a fault-free server's.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"remotepeering"
	"remotepeering/internal/cli"
	"remotepeering/internal/fleet"
	"remotepeering/internal/obs"
	"remotepeering/internal/serve"
)

var fatal = cli.Fataler("rpserve")

// newLogger builds the process logger: text to stderr at the -log-level
// threshold.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// startAdmin serves the -admin-listen plane (metrics, flight recorder,
// pprof) on its own listener, so profiling a loaded server never
// competes with the serving mux. Returns nil when the plane is off.
func startAdmin(addr string, reg *obs.Registry, rec *obs.FlightRecorder) *http.Server {
	if addr == "" {
		return nil
	}
	hs := &http.Server{Addr: addr, Handler: obs.AdminHandler(reg, rec), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			slog.Error("admin listener failed", "addr", addr, "err", err)
		}
	}()
	slog.Info("admin plane listening", "addr", addr)
	return hs
}

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	snapPath := flag.String("snapshot", "", "snapshot file to serve (build with rpworld -save)")
	snapDir := flag.String("snapshot-dir", "", "directory of snapshots to serve as a catalog (mutually exclusive with -snapshot)")
	residentMB := flag.Int("resident-mb", 0, "catalog resident-world budget in MiB (0 = unlimited); worlds evict LRU under it")
	maxInflight := flag.Int("max-inflight", 4, "maximum concurrently evaluating requests (others queue)")
	maxPending := flag.Int("max-pending", 0, "pending-computation cap before cold queries shed with 429 (0 = 4×max-inflight, negative disables)")
	cacheMB := flag.Int("cache-mb", 64, "result-cache budget in MiB (negative disables)")
	workers := flag.Int("workers", 0, "worker bound per evaluation (0 = one per CPU; results identical for any value)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-computation deadline (0 = none); expired computations answer 504")
	chaos := flag.String("chaos", "", "inject a seeded fault schedule, e.g. seed=42,slow=0.3,fail=0.1,panic=0.05,cachefail=0.2,delay=20ms")
	tickSpec := flag.String("tick", "", "living-world evolution regime for POST /v1/tick, e.g. seed=7,joins=3,leaves=2,outage=0.02 (empty = defaults)")
	fsync := flag.String("fsync", "", "living-world journal sync policy: commit (every acked tick durable, the default), checkpoint, or off; overrides the -tick spec's fsync key")
	role := flag.String("role", "single", "single (standalone server), worker (fleet member), or router (fleet front door; needs -peers, serves no snapshots itself)")
	peers := flag.String("peers", "", "comma-separated worker base URLs for -role=router, e.g. http://127.0.0.1:9081,http://127.0.0.1:9082")
	fleetListen := flag.String("fleet-listen", "", "router listen address for -role=router (default: -listen)")
	liveDir := flag.String("live-dir", "", "journal living worlds under this directory (synced per -fsync); restart resumes their timelines")
	heartbeat := flag.Duration("heartbeat", 0, "router heartbeat interval (0 = 500ms)")
	adminListen := flag.String("admin-listen", "", "admin plane listen address serving /metrics, /debug/requests, and /debug/pprof (empty = disabled; the serving listener also exposes /metrics and /debug/requests)")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	switch *role {
	case "router":
		runRouter(*fleetListen, *listen, *peers, *chaos, *adminListen, *heartbeat)
		return
	case "single", "worker":
		// A worker is a plain rpserve that a router fronts; the role flag
		// only documents intent (and gates nothing today).
	default:
		fatal(fmt.Errorf("bad -role %q (want single, worker, or router)", *role))
	}
	switch {
	case *snapPath == "" && *snapDir == "":
		fatal(fmt.Errorf("missing -snapshot or -snapshot-dir (build one with: rpworld -save world.flat)"))
	case *snapPath != "" && *snapDir != "":
		fatal(fmt.Errorf("-snapshot and -snapshot-dir are mutually exclusive"))
	}

	var plane *remotepeering.FaultPlane
	if *chaos != "" {
		var err error
		if plane, err = remotepeering.ParseFaultPlane(*chaos); err != nil {
			fatal(err)
		}
		slog.Info("chaos plane armed", "spec", *chaos)
	}

	reg := obs.NewRegistry()
	rec := obs.NewFlightRecorder(0)
	rec.SetLogger(logger)
	cfg := serve.Config{
		MaxInflight:  *maxInflight,
		MaxPending:   *maxPending,
		CacheMB:      *cacheMB,
		Workers:      *workers,
		QueryTimeout: *queryTimeout,
		Faults:       plane,
		LiveDir:      *liveDir,
		Metrics:      reg,
		Recorder:     rec,
	}
	if *tickSpec != "" {
		tcfg, err := remotepeering.ParseTickConfig(*tickSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Tick = &tcfg
	}
	if *fsync != "" {
		policy, err := remotepeering.ParseJournalSyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		if cfg.Tick == nil {
			tcfg := remotepeering.DefaultTickConfig()
			cfg.Tick = &tcfg
		}
		cfg.Tick.Fsync = policy
	}

	start := time.Now()
	if *snapDir != "" {
		cat, err := remotepeering.OpenCatalog(*snapDir, remotepeering.CatalogOptions{
			ResidentBytes: int64(*residentMB) << 20,
			Faults:        plane,
		})
		if err != nil {
			fatal(err)
		}
		cfg.Catalog = cat
		slog.Info("catalog opened", "worlds", cat.Len(), "dir", *snapDir,
			"elapsed", time.Since(start).Round(time.Millisecond), "resident_mb", *residentMB)
	} else {
		// Microseconds to map and validate the directory, then one
		// materialization, timed apart. The snapshot owns its memory, so
		// the mapping goes as soon as it has decoded.
		a, err := remotepeering.AttachSnapshot(*snapPath)
		if err != nil {
			fatal(err)
		}
		attached := time.Since(start)
		snap, err := a.Snapshot()
		a.Close()
		if err != nil {
			fatal(err)
		}
		slog.Info("attached snapshot", "attach", attached.Round(time.Microsecond),
			"materialize", (time.Since(start) - attached).Round(time.Millisecond))
		cfg.Snapshot = snap
		slog.Info("snapshot loaded", "path", *snapPath,
			"elapsed", time.Since(start).Round(time.Millisecond), "digest", snap.Digest[:12],
			"networks", snap.World.Graph.Len(), "dataset", snap.Dataset != nil, "spread", snap.Spread != nil)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	admin := startAdmin(*adminListen, reg, rec)
	hs := serve.NewHTTPServer(*listen, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	slog.Info("listening", "addr", *listen, "role", *role)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		slog.Info("shutting down, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if admin != nil {
			admin.Shutdown(shutdownCtx)
		}
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
		// Computations can outlive their requests; Close cancels and
		// awaits them, so every world lease is back before the catalog
		// closes.
		if err := srv.Close(); err != nil {
			slog.Error("server close failed", "err", err)
		}
		if cfg.Catalog != nil {
			if err := cfg.Catalog.Close(); err != nil {
				slog.Error("catalog close failed", "err", err)
			}
		}
		slog.Info("bye")
	}
}

// runRouter is -role=router: no snapshots, no catalog — just the fleet
// front door. The chaos plane here injects the *network* classes
// (conndrop, netdelay, partition, slownode) into requests the router
// sends its workers, which is where link-level chaos belongs.
func runRouter(fleetListen, listen, peers, chaos, adminListen string, heartbeat time.Duration) {
	if fleetListen == "" {
		fleetListen = listen
	}
	if strings.TrimSpace(peers) == "" {
		fatal(fmt.Errorf("-role=router needs -peers (comma-separated worker URLs)"))
	}
	var plane *remotepeering.FaultPlane
	if chaos != "" {
		var err error
		if plane, err = remotepeering.ParseFaultPlane(chaos); err != nil {
			fatal(err)
		}
		slog.Info("router chaos plane armed", "spec", chaos)
	}
	reg := obs.NewRegistry()
	rec := obs.NewFlightRecorder(0)
	rec.SetLogger(slog.Default())
	plane.Instrument(reg)
	router, err := fleet.New(fleet.Config{
		Peers:          strings.Split(peers, ","),
		HeartbeatEvery: heartbeat,
		Faults:         plane,
		Logger:         slog.Default(),
		Metrics:        reg,
		Recorder:       rec,
	})
	if err != nil {
		fatal(err)
	}
	router.Start()
	defer router.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	admin := startAdmin(adminListen, reg, rec)
	hs := serve.NewHTTPServer(fleetListen, router.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	slog.Info("routing", "peers", len(strings.Split(peers, ",")), "addr", fleetListen)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		slog.Info("router shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if admin != nil {
			admin.Shutdown(shutdownCtx)
		}
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fatal(err)
		}
		slog.Info("bye")
	}
}
