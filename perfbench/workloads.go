package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"remotepeering/internal/netflow"
	"remotepeering/internal/serve"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

// workload is one seeded traffic mix against the fleet.
type workload struct {
	name      string
	clients   int     // closed-loop clients issuing the primary op
	readRate  int     // open-loop reads per second beside them (0 = none)
	tailQ     float64 // tail_ms percentile of the primary op
	readTailQ float64 // read_tail_ms percentile of the open-loop reads
	intervals int     // traffic intervals of the workload's pipeline (0 = the paper month)
	build     func(e *env) runner
}

// runner drives one setup of a workload.
type runner interface {
	// setup generates the worlds from the seed, writes them as flat
	// snapshots, starts the fleet over them, and warms up.
	setup() error
	// op issues one primary operation for the given closed-loop client.
	op(client, seq int) sample
	// read issues one open-loop read that was due at due.
	read(seq int, due time.Time) sample
	// checks summarises the workload's output checks.
	checks() []check
	// identity digests the bodies of the run that depend only on the seed.
	identity() string
	// probe is a request both the router and its owning worker answer
	// cheaply — a cached report where the workload has one — and that
	// owner, for the traced run's fleet and serve probes.
	probe() (pathQuery string, owner *node)
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (c check) String() string {
	verdict := "ok"
	if !c.ok {
		verdict = "FAILED"
	}
	return fmt.Sprintf("%s %s (%s)", c.name, verdict, c.detail)
}

var workloads = map[string]workload{
	"whatif-cold": {
		name: "whatif-cold", clients: 1, tailQ: 0.5,
		build: func(e *env) runner { return &whatifCold{e: e} },
	},
	"read-warm": {
		name: "read-warm", clients: 2, tailQ: 0.95,
		build: func(e *env) runner { return &readWarm{e: e} },
	},
	"tick-live": {
		name: "tick-live", clients: 1, readRate: 200, tailQ: 0.8, readTailQ: 0.99,
		build: func(e *env) runner { return &tickLive{e: e} },
	},
	"catalog-churn": {
		name: "catalog-churn", clients: 1, tailQ: 0.97, intervals: churnIntervals,
		build: func(e *env) runner { return &catalogChurn{e: e} },
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// subSeed derives a labelled child seed: every input of a run is a pure
// function of the -seed argument.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, label)
	return int64(h.Sum64() >> 2)
}

// --- fixtures shared by the workloads ---

// churnIntervals is the length of catalog-churn's short traffic datasets
// (one day of five-minute samples).
const churnIntervals = 288

// writeWorlds generates n paper-scale worlds from the seed, serially
// (Workers: 1), and writes each as a flat snapshot — with a traffic
// dataset of the given length when intervals > 0. The worlds are not
// kept: the fleet serves them from the files. It returns the smallest
// and largest file size.
func (e *env) writeWorlds(n, intervals int) (minSize, maxSize int64, err error) {
	if err := os.MkdirAll(e.snapDir, 0o755); err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		w, err := worldgen.Generate(worldgen.Config{Seed: subSeed(e.seed, fmt.Sprintf("world-%d", i)), Workers: 1})
		if err != nil {
			return 0, 0, err
		}
		snap := &snapshot.Snapshot{World: w}
		if intervals > 0 {
			if snap.Dataset, err = netflow.Collect(w, netflow.Config{Seed: 3, Intervals: intervals, Workers: 1}); err != nil {
				return 0, 0, err
			}
		}
		path := filepath.Join(e.snapDir, fmt.Sprintf("world-%d.flat", i))
		digest, err := snapshot.SaveFlatFile(path, snap)
		if err != nil {
			return 0, 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		if i == 0 || fi.Size() < minSize {
			minSize = fi.Size()
		}
		maxSize = max(maxSize, fi.Size())
		e.paths = append(e.paths, path)
		e.digests = append(e.digests, digest)
	}
	return minSize, maxSize, nil
}

// startFleet brings the fleet up over the snapshot directory and learns
// each world's owner from the router, with one cheap routed request per
// world (GET /v1/tick attaches nothing).
func (e *env) startFleet(o fleetOpts) error {
	o.snapDir = e.snapDir
	f, err := startFleet(o)
	if err != nil {
		return err
	}
	e.fleet = f
	if err := e.awaitMembers(); err != nil {
		return err
	}
	e.owners = make(map[string]*node)
	for _, d := range e.digests {
		r, err := e.warm(http.MethodGet, f.rurl+"/v1/tick?world="+d, func(r reply) string { return "" })
		if err != nil {
			return err
		}
		n := f.nodeByURL(r.header.Get("X-Fleet-Member"))
		if n == nil {
			return fmt.Errorf("world %.12s: router named unknown member %q", d, r.header.Get("X-Fleet-Member"))
		}
		e.owners[d] = n
	}
	return nil
}

func (e *env) owner(digest string) *node { return e.owners[digest] }

// awaitMembers waits until the router holds every worker up and
// advertising every world. The router's first heartbeat round usually
// gets there before Start returns; a slow first probe is retried by the
// heartbeat loop.
func (e *env) awaitMembers() error {
	var last string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		r := e.call(http.MethodGet, e.fleet.rurl+"/v1/fleet", "")
		if r.err != nil || r.status != http.StatusOK {
			last = fmt.Sprintf("GET /v1/fleet: status %d, %v", r.status, r.err)
			continue
		}
		var fl struct {
			Members []struct {
				URL    string   `json:"url"`
				State  string   `json:"state"`
				Worlds []string `json:"worlds"`
			} `json:"members"`
		}
		if err := json.Unmarshal(r.body, &fl); err != nil {
			return fmt.Errorf("GET /v1/fleet: %w", err)
		}
		ready := len(fl.Members) == len(e.fleet.nodes)
		for _, m := range fl.Members {
			n := 0
			for _, d := range e.digests {
				if slices.Contains(m.Worlds, d) {
					n++
				}
			}
			if m.State != "up" || n < len(e.digests) {
				ready = false
				last = fmt.Sprintf("member %s is %s, advertising %d of %d worlds", m.URL, m.State, n, len(e.digests))
			}
		}
		if ready {
			return nil
		}
	}
	return fmt.Errorf("fleet not ready after 10s: %s", last)
}

// --- what-if requests ---

// queryGen draws distinct single-scenario what-ifs of one shape — a
// membership churn at DE-CIX plus a traffic scale — with magnitudes from
// the seed. Every query is new, so every one misses the result cache,
// and every one does the same work.
type queryGen struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newQueryGen(seed int64, label string) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(subSeed(seed, label))), seen: make(map[string]bool)}
}

func (g *queryGen) next() string {
	for {
		q := fmt.Sprintf("c=churn:DE-CIX:%d:%d,traffic:%.3f",
			1+g.rng.Intn(8), 1+g.rng.Intn(4), 1+float64(1+g.rng.Intn(99))/1000)
		if !g.seen[q] {
			g.seen[q] = true
			return q
		}
	}
}

func whatifPath(digest, scenarios string) string {
	return "/v1/whatif?world=" + digest + "&scenarios=" + url.QueryEscape(scenarios)
}

// parseWhatif checks a what-if body: it parses, names the world, and
// carries the baseline plus the one scenario cell.
func parseWhatif(body []byte, digest string) (serve.WhatifResponse, string) {
	var wr serve.WhatifResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		return wr, "unparsable what-if body: " + err.Error()
	}
	if wr.Digest != digest {
		return wr, fmt.Sprintf("body names world %.12s, want %.12s", wr.Digest, digest)
	}
	if len(wr.Report.Cells) != 2 {
		return wr, fmt.Sprintf("report has %d cells, want baseline + 1", len(wr.Report.Cells))
	}
	return wr, ""
}

// identity hashes labelled bodies in the order they are added.
type identity struct {
	h hash.Hash
	n int
}

func (id *identity) add(label string, body []byte) {
	if id.h == nil {
		id.h = sha256.New()
	}
	fmt.Fprintf(id.h, "%s %d\n", label, len(body))
	id.h.Write(body)
	id.n++
}

func (id *identity) sum() string {
	if id.h == nil {
		return "none"
	}
	return fmt.Sprintf("%s/%d", hex.EncodeToString(id.h.Sum(nil))[:16], id.n)
}

// recordIdentity compares a run's identity with the one an earlier run
// of the same seed and code, over as many bodies, left in the work
// directory (and leaves one when there is none).
func recordIdentity(workRoot, name string, seed int64, id string) (string, bool) {
	dir := filepath.Join(workRoot, "identity")
	_, bodies, _ := strings.Cut(id, "/")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%s.txt", name, seed, sourceDigest(), bodies))
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) == id {
			return "matches an earlier run of this seed", true
		}
		return fmt.Sprintf("DIFFERS from an earlier run of this seed (%s)", prev), false
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "first run of this seed here; not recorded: " + err.Error(), true
	}
	if err := os.WriteFile(path, []byte(id), 0o644); err != nil {
		return "first run of this seed here; not recorded: " + err.Error(), true
	}
	return "first run of this seed here", true
}

// firstBodies is how many measured bodies of a sequential workload join
// its identity: few enough that every run reaches them.
const firstBodies = 4

// --- whatif-cold ---

// whatifCold: one closed-loop client; every request is a distinct
// single-scenario what-if of one shape on one paper-scale world.
type whatifCold struct {
	e        *env
	gen      *queryGen
	warmQ    string
	baseline []byte
	first    identity
	sameBase atomic.Int64
	misses   atomic.Int64
}

func (w *whatifCold) setup() error {
	e := w.e
	if _, _, err := e.writeWorlds(1, 0); err != nil {
		return err
	}
	if err := e.startFleet(fleetOpts{}); err != nil {
		return err
	}
	w.gen = newQueryGen(e.seed, "whatif-cold")
	w.warmQ = w.gen.next()
	_, err := e.warm(http.MethodGet, e.fleet.rurl+whatifPath(e.digests[0], w.warmQ), func(r reply) string {
		wr, bad := parseWhatif(r.body, e.digests[0])
		if bad == "" {
			w.baseline, _ = json.Marshal(wr.Report.Baseline)
			e.ident.add("whatif "+w.warmQ, r.body)
			w.first.add("whatif "+w.warmQ, r.body)
		}
		return bad
	})
	return err
}

func (w *whatifCold) op(client, seq int) sample {
	e := w.e
	q := w.gen.next()
	s, _ := e.timed(http.MethodGet, e.fleet.rurl+whatifPath(e.digests[0], q), fmt.Sprintf("pb-%d-%d", client, seq), time.Time{},
		func(r reply) string {
			wr, bad := parseWhatif(r.body, e.digests[0])
			if bad != "" {
				return bad
			}
			if b, _ := json.Marshal(wr.Report.Baseline); !bytes.Equal(b, w.baseline) {
				return "baseline cell differs from the warm-up's"
			}
			w.sameBase.Add(1)
			if r.header.Get("X-Cache") != "miss" {
				return "X-Cache " + r.header.Get("X-Cache") + ", want miss"
			}
			w.misses.Add(1)
			if seq < firstBodies {
				w.first.add("whatif "+q, r.body)
			}
			return ""
		})
	return s
}

func (w *whatifCold) read(int, time.Time) sample { panic("whatif-cold has no reader") }

func (w *whatifCold) checks() []check {
	return []check{
		{"same-baseline", true, fmt.Sprintf("%d bodies carried the warm-up's baseline cell", w.sameBase.Load())},
		{"cache-miss", true, fmt.Sprintf("%d requests missed the result cache", w.misses.Load())},
	}
}

func (w *whatifCold) identity() string { return w.first.sum() }

func (w *whatifCold) probe() (string, *node) {
	d := w.e.digests[0]
	return whatifPath(d, w.warmQ), w.e.owner(d)
}

// --- read-warm ---

// readWarm: two closed-loop clients draw from one what-if per world on
// two worlds, each answered once during setup, so every measured request
// is a result-cache hit.
type readWarm struct {
	e      *env
	keys   []string // routed path+query
	bodies [][]byte
	hits   atomic.Int64
}

func (w *readWarm) setup() error {
	e := w.e
	if _, _, err := e.writeWorlds(2, 0); err != nil {
		return err
	}
	if err := e.startFleet(fleetOpts{}); err != nil {
		return err
	}
	for i, d := range e.digests {
		q := newQueryGen(e.seed, fmt.Sprintf("read-warm-%d", i)).next()
		key := whatifPath(d, q)
		r, err := e.warm(http.MethodGet, e.fleet.rurl+key, func(r reply) string {
			_, bad := parseWhatif(r.body, d)
			return bad
		})
		if err != nil {
			return err
		}
		w.keys = append(w.keys, key)
		w.bodies = append(w.bodies, r.body)
		e.ident.add(fmt.Sprintf("whatif %d %s", i, q), r.body)
	}
	return nil
}

func (w *readWarm) op(client, seq int) sample {
	k := int(uint64(subSeed(w.e.seed, fmt.Sprintf("read-warm-%d-%d", client, seq))) % uint64(len(w.keys)))
	s, _ := w.e.timed(http.MethodGet, w.e.fleet.rurl+w.keys[k], "pb-"+strconv.Itoa(client)+"-"+strconv.Itoa(seq), time.Time{},
		func(r reply) string {
			if r.header.Get("X-Cache") != "hit" {
				return "X-Cache " + r.header.Get("X-Cache") + ", want hit"
			}
			if !bytes.Equal(r.body, w.bodies[k]) {
				return "cached body differs from the warm-up's"
			}
			w.hits.Add(1)
			return ""
		})
	return s
}

func (w *readWarm) read(int, time.Time) sample { panic("read-warm has no reader") }

func (w *readWarm) checks() []check {
	return []check{{"cache-hit", true, fmt.Sprintf("%d requests hit the cache with the warm-up's bytes", w.hits.Load())}}
}

func (w *readWarm) identity() string { return w.e.ident.sum() }

func (w *readWarm) probe() (string, *node) { return w.keys[0], w.e.owner(w.e.digests[0]) }

// --- tick-live ---

// tickLive: one closed-loop writer advances a journalled live world one
// tick per POST through the router; an open-loop reader reads the
// world's newspaper from its owning worker at a fixed rate.
type tickLive struct {
	e          *env
	live       *node
	lastAck    atomic.Uint64
	first      identity
	ticks      atomic.Int64
	spreadTick atomic.Int64
	staleReads atomic.Int64
	reads      atomic.Int64
}

// tickResp is the part of a POST /v1/tick body the checks read.
type tickResp struct {
	Digest   string        `json:"digest"`
	Tick     uint64        `json:"tick"`
	Advanced []tick.Result `json:"advanced"`
}

// liveWarmTicks is how many ticks the warm-up commits: the first wakes
// the world (its genesis evaluation), the second is a steady tick.
const liveWarmTicks = 2

func (w *tickLive) setup() error {
	e := w.e
	if _, _, err := e.writeWorlds(1, 0); err != nil {
		return err
	}
	cfg := tick.DefaultConfig() // the default regime, -fsync=commit, a checkpoint every 16 ticks
	if err := e.startFleet(fleetOpts{liveDir: filepath.Join(e.dir, "live"), tick: &cfg}); err != nil {
		return err
	}
	for i := 0; i < liveWarmTicks; i++ {
		r, err := e.warm(http.MethodPost, e.fleet.rurl+"/v1/tick?n=1&world="+e.digests[0], func(r reply) string {
			return w.checkTick(r, false)
		})
		if err != nil {
			return err
		}
		e.ident.add("tick", r.body)
		w.first.add("tick", r.body)
		w.live = e.fleet.nodeByURL(r.header.Get("X-Fleet-Member"))
	}
	if w.live == nil {
		return fmt.Errorf("tick-live: no owner for the live world")
	}
	return nil
}

// checkTick verifies that a POST advanced the timeline by exactly one
// tick past the last ack, and records the ack.
func (w *tickLive) checkTick(r reply, measured bool) string {
	var tr tickResp
	if err := json.Unmarshal(r.body, &tr); err != nil {
		return "unparsable tick body: " + err.Error()
	}
	want := w.lastAck.Load() + 1
	if tr.Tick != want || len(tr.Advanced) != 1 || tr.Advanced[0].Tick != want {
		return fmt.Sprintf("POST acked tick %d (%d advanced), want exactly tick %d", tr.Tick, len(tr.Advanced), want)
	}
	if tr.Digest != fmt.Sprintf("%s@%d", w.e.digests[0], want) {
		return "tick body names view " + tr.Digest
	}
	w.lastAck.Store(want)
	if measured {
		w.ticks.Add(1)
		if strings.Contains(tr.Advanced[0].Stages, "spread") {
			w.spreadTick.Add(1)
		}
		if want <= liveWarmTicks+firstBodies {
			w.first.add("tick", r.body)
		}
	}
	return ""
}

func (w *tickLive) op(client, seq int) sample {
	s, _ := w.e.timed(http.MethodPost, w.e.fleet.rurl+"/v1/tick?n=1&world="+w.e.digests[0],
		"pb-"+strconv.Itoa(client)+"-"+strconv.Itoa(seq), time.Time{},
		func(r reply) string { return w.checkTick(r, true) })
	return s
}

// read fetches the newspaper from the owning worker directly. The router
// may hedge a live-world read to the worker that does not own the world,
// which answers 404; until that is fixed, reads bypass the router.
func (w *tickLive) read(seq int, due time.Time) sample {
	acked := w.lastAck.Load()
	s, _ := w.e.timed(http.MethodGet, w.live.url+"/v1/newspaper?window=16&world="+w.e.digests[0],
		"pb-r-"+strconv.Itoa(seq), due, func(r reply) string {
			var np struct {
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal(r.body, &np); err != nil {
				return "unparsable newspaper: " + err.Error()
			}
			_, t, _ := strings.Cut(np.Digest, "@")
			seen, err := strconv.ParseUint(t, 10, 64)
			if err != nil {
				return "newspaper names view " + np.Digest
			}
			w.reads.Add(1)
			if seen < acked {
				w.staleReads.Add(1)
				return fmt.Sprintf("read saw tick %d after tick %d was acked", seen, acked)
			}
			return ""
		})
	s.worker = w.live.name
	return s
}

func (w *tickLive) checks() []check {
	return []check{
		{"tick-exactly-once", true, fmt.Sprintf("%d acked POSTs each advanced exactly one tick; timeline at %d", w.ticks.Load(), w.lastAck.Load())},
		{"reads-not-stale", w.staleReads.Load() == 0, fmt.Sprintf("%d of %d reads saw a tick older than the last ack", w.staleReads.Load(), w.reads.Load())},
	}
}

func (w *tickLive) identity() string {
	return w.first.sum()
}

func (w *tickLive) probe() (string, *node) { return "/v1/tick?world=" + w.e.digests[0], w.live }

// spreadFrac is the share of measured ticks that re-ran the spread stage.
func (w *tickLive) spreadFrac() float64 {
	if n := w.ticks.Load(); n > 0 {
		return float64(w.spreadTick.Load()) / float64(n)
	}
	return 0
}

// --- catalog-churn ---

// churnWorlds is how many small worlds catalog-churn spreads over.
const churnWorlds = 6

// churnResident is how many worlds each worker's resident budget holds.
const churnResident = 1

// catalogChurn: one closed-loop client reads world summaries across many
// small worlds, each from the worker that owns it. Each worker's resident
// budget holds one world, and the seeded order never asks a worker for
// the world it holds, so every request evicts one world and attaches
// another.
//
// The requests bypass the router. It hedges an attach slower than its
// hedge delay to the worker that does not own the world; that duplicate
// attach outlives the request and holds a resident slot there, so a later
// request to that worker can fail with 429 (all worlds pinned).
type catalogChurn struct {
	e *env
	// rng draws the order; held maps each worker to the worlds it served
	// last, newest first — the ones it holds resident.
	rng   *rand.Rand
	held  map[*node][]int
	named atomic.Int64
}

// worldResp is the part of a GET /v1/world body that depends only on
// the world (the rest reports mutable server counters).
type worldResp struct {
	Digest       string `json:"digest"`
	Networks     int    `json:"networks"`
	IXPs         int    `json:"ixps"`
	StudiedIXPs  int    `json:"studied_ixps"`
	ProbeTargets int    `json:"probe_targets"`
	HasDataset   bool   `json:"has_dataset"`
	HasSpread    bool   `json:"has_spread"`
}

func (w *catalogChurn) setup() error {
	e := w.e
	minSize, maxSize, err := e.writeWorlds(churnWorlds, churnIntervals)
	if err != nil {
		return err
	}
	e.residentMB = int((churnResident*maxSize + 1<<20 - 1) >> 20)
	if (churnResident+1)*minSize <= int64(e.residentMB)<<20 {
		return fmt.Errorf("catalog-churn: a %d MiB budget holds more than %d worlds", e.residentMB, churnResident)
	}
	if err := e.startFleet(fleetOpts{residentMB: e.residentMB}); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(subSeed(e.seed, "catalog-churn")))
	w.held = make(map[*node][]int)
	seen := make(map[int][]byte)
	// Warm-up: one pass of the seeded order long enough to attach every
	// world once on average, twice over.
	for i := 0; i < 2*churnWorlds; i++ {
		k := w.next()
		_, err := e.warm(http.MethodGet, w.worldURL(k), func(r reply) string {
			inv, bad := w.checkWorld(r, k)
			if bad == "" && seen[k] == nil {
				seen[k] = inv
			}
			return bad
		})
		if err != nil {
			return err
		}
	}
	for k := range e.digests {
		if seen[k] != nil {
			e.ident.add(fmt.Sprintf("world %d", k), seen[k])
		}
	}
	return nil
}

// next draws the next world: uniformly among those their owner does not
// hold resident. Six worlds and one held per worker leave at least four
// to draw from.
func (w *catalogChurn) next() int {
	var eligible []int
	for k, d := range w.e.digests {
		if !slices.Contains(w.held[w.e.owner(d)], k) {
			eligible = append(eligible, k)
		}
	}
	k := eligible[w.rng.Intn(len(eligible))]
	o := w.e.owner(w.e.digests[k])
	w.held[o] = append([]int{k}, w.held[o]...)[:min(churnResident, len(w.held[o])+1)]
	return k
}

// checkWorld verifies the body names the requested world and returns its
// seed-determined part.
func (w *catalogChurn) checkWorld(r reply, k int) ([]byte, string) {
	var wr worldResp
	if err := json.Unmarshal(r.body, &wr); err != nil {
		return nil, "unparsable world body: " + err.Error()
	}
	if wr.Digest != w.e.digests[k] {
		return nil, fmt.Sprintf("body names world %.12s, want %.12s", wr.Digest, w.e.digests[k])
	}
	inv, _ := json.Marshal(wr)
	return inv, ""
}

func (w *catalogChurn) op(client, seq int) sample {
	k := w.next()
	s, _ := w.e.timed(http.MethodGet, w.worldURL(k),
		"pb-"+strconv.Itoa(client)+"-"+strconv.Itoa(seq), time.Time{},
		func(r reply) string {
			if _, bad := w.checkWorld(r, k); bad != "" {
				return bad
			}
			w.named.Add(1)
			return ""
		})
	s.worker = w.e.owner(w.e.digests[k]).name
	return s
}

// worldURL is world k's summary at its owning worker.
func (w *catalogChurn) worldURL(k int) string {
	d := w.e.digests[k]
	return w.e.owner(d).url + "/v1/world?world=" + d
}

func (w *catalogChurn) read(int, time.Time) sample { panic("catalog-churn has no reader") }

func (w *catalogChurn) checks() []check {
	return []check{{"names-digest", true, fmt.Sprintf("%d bodies named the requested world", w.named.Load())}}
}

func (w *catalogChurn) identity() string { return w.e.ident.sum() }

func (w *catalogChurn) probe() (string, *node) {
	return "/v1/tick?world=" + w.e.digests[0], w.e.owner(w.e.digests[0])
}
