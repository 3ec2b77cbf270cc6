package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/econ"
	"remotepeering/internal/journal"
	"remotepeering/internal/netflow"
	"remotepeering/internal/obs"
	"remotepeering/internal/offload"
	"remotepeering/internal/scenario"
	"remotepeering/internal/serve"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

// sumGapTolerance is how far the medians of a primary op's per-layer
// self times may sum from its traced p50 (as a share of the p50).
const sumGapTolerance = 0.10

// harvestEvery is how often the traced run copies the servers' flight
// recorders (256-record rings) during the measured phase.
const harvestEvery = 100 * time.Millisecond

// maxSpanRequests caps how many requests' span trees the spans file
// keeps (the earliest ones the rings yielded); self times use them all.
const maxSpanRequests = 2000

// span is one timed step of the traced run, as written to the spans file.
type span struct {
	Name    string  `json:"name"`
	Start   float64 `json:"start_ms"` // from the start of the measured phase
	End     float64 `json:"end_ms"`
	Parent  string  `json:"parent,omitempty"`
	Request string  `json:"request"`
}

// counters are the servers' cumulative counters the traced run diffs
// across the measured phase.
type counters struct {
	fleet                      fleetCounters
	evals, attaches, evictions int64
	memberChanges              int64
}

type fleetCounters struct {
	Forwards  int64 `json:"forwards"`
	Failovers int64 `json:"failovers"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
}

// tracer is the traced run's span collector. The servers record spans in
// their flight recorders as they always do; the tracer copies the
// records the benchmark's requests left (trace ids "pb-…") out of the
// rings while the phase runs, and folds them with its own client spans
// when it ends.
type tracer struct {
	e      *env
	origin time.Time
	before counters
	after  counters

	mu      sync.Mutex
	recs    map[string]obs.Record // source|trace|path → record
	harvest time.Duration         // time spent copying rings

	stopc chan struct{}
	done  chan struct{}
}

func startTracer(e *env) (*tracer, error) {
	t := &tracer{e: e, recs: make(map[string]obs.Record), stopc: make(chan struct{}), done: make(chan struct{})}
	var err error
	if t.before, err = t.counters(); err != nil {
		return nil, err
	}
	t.origin = time.Now()
	go func() {
		defer close(t.done)
		tk := time.NewTicker(harvestEvery)
		defer tk.Stop()
		for {
			select {
			case <-t.stopc:
				t.collect()
				return
			case <-tk.C:
				t.collect()
			}
		}
	}()
	return t, nil
}

func (t *tracer) stop() error {
	close(t.stopc)
	<-t.done
	var err error
	t.after, err = t.counters()
	return err
}

func (t *tracer) counters() (counters, error) {
	f := t.e.fleet
	c := counters{memberChanges: f.memberChanges.Load()}
	r := t.e.call(http.MethodGet, f.rurl+"/v1/fleet", "")
	if r.err == nil && r.status != http.StatusOK {
		r.err = fmt.Errorf("status %d", r.status)
	}
	if r.err == nil {
		r.err = json.Unmarshal(r.body, &c.fleet)
	}
	if r.err != nil {
		return c, fmt.Errorf("read router counters: %w", r.err)
	}
	for _, n := range f.nodes {
		c.evals += n.srv.Evaluations()
		c.attaches += n.cat.Attaches()
		c.evictions += n.cat.Evictions()
	}
	return c, nil
}

func (t *tracer) collect() {
	t0 := time.Now()
	f := t.e.fleet
	take := func(src string, rec *obs.FlightRecorder) {
		for _, r := range rec.Records("") {
			if strings.HasPrefix(r.Trace, "pb-") {
				t.recs[src+"|"+r.Trace+"|"+r.Path] = r
			}
		}
	}
	t.mu.Lock()
	take("router", f.rrec)
	for _, n := range f.nodes {
		take(n.name, n.rec)
	}
	t.harvest += time.Since(t0)
	t.mu.Unlock()
}

func (t *tracer) at(x time.Time) float64 { return ms(x.Sub(t.origin)) }

// opSpans rebuilds one request's span tree: the benchmark's client span,
// the router's record and its forward legs, and the owning worker's
// record with its queue, attach, eval, and tick spans. Each server span
// is named after the layer whose self time it carries.
func (t *tracer) opSpans(s sample) []span {
	spans := []span{{Name: "client", Start: t.at(s.sent), End: t.at(s.done), Request: s.id}}
	worker := ""
	add := func(name string, start time.Time, d time.Duration) {
		spans = append(spans, span{Name: name, Start: t.at(start), End: t.at(start.Add(d)), Request: s.id})
	}
	if s.worker != "" {
		worker = s.worker
	} else if rr, ok := t.recs["router|"+s.id+"|"+s.path]; ok {
		add("fleet", rr.Start, rr.Dur)
		for _, sp := range rr.Spans {
			if sp.Name == "forward" && sp.Dur > 0 {
				add("hop", rr.Start.Add(sp.Start), sp.Dur)
				worker = strings.TrimPrefix(sp.Note, "http://")
			}
		}
	}
	if wr, ok := t.recs[worker+"|"+s.id+"|"+s.path]; ok {
		add("serve", wr.Start, wr.Dur)
		for _, sp := range wr.Spans {
			name := map[string]string{"queue": "queue", "attach": "catalog", "eval": "pipeline", "tick-apply": "tick"}[sp.Name]
			if name != "" && sp.Dur > 0 {
				add(name, wr.Start.Add(sp.Start), sp.Dur)
			}
		}
	}
	return nestSpans(spans)
}

// nestSpans assigns each span the innermost span that contains it as its
// parent.
func nestSpans(spans []span) []span {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	for i := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].Parent = spans[stack[len(stack)-1]].Name
		}
		stack = append(stack, i)
	}
	return spans
}

// selfTimes is each layer's span minus the part its children cover.
func selfTimes(spans []span) map[string]float64 {
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent != "" {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfLayers are the layers a primary op's self times split into, in
// request order.
var selfLayers = []string{"client", "fleet", "hop", "serve", "queue", "catalog", "pipeline", "tick"}

// profile is the traced run's per-layer report.
func (t *tracer) profile(wl workload, run runner, p *phase) ([]named, error) {
	e := t.e
	var out []named
	add := func(name string, v float64, unit string) { out = append(out, named{name: name, value: v, unit: unit}) }

	// Per-layer self times of the primary op, from the folded spans.
	var all []span
	self := make(map[string][]float64)
	var lat []float64
	spanned := 0
	kept := 0
	for _, s := range p.samples {
		sp := t.opSpans(s)
		if len(sp) > 1 && kept < maxSpanRequests {
			all = append(all, sp...)
			kept++
		}
		if s.read || s.bad != "" {
			continue
		}
		lat = append(lat, ms(s.latency()))
		if len(sp) == 1 {
			continue // the rings turned over before this request was copied
		}
		spanned++
		st := selfTimes(sp)
		for _, l := range selfLayers {
			self[l] = append(self[l], st[l])
		}
	}
	sum := 0.0
	for _, l := range selfLayers {
		v := median(self[l])
		if len(self[l]) == 0 {
			v = 0
		}
		sum += v
		add("self."+l+"_ms", v, "ms")
	}
	p50 := median(lat)
	gap := 0.0
	if p50 > 0 && spanned > 0 {
		gap = (sum - p50) / p50
	}
	add("trace.sum_gap_frac", gap, "frac")
	add("trace.p50_ms", p50, "ms")
	add("trace.overhead_frac", t.harvest.Seconds()/p.stats.wall.Seconds(), "frac")
	verdict := "within"
	if gap > sumGapTolerance || gap < -sumGapTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Printf("trace self-times of %d/%d primary ops sum to %.4g ms against a traced p50 of %.4g ms: gap %+.2f%%, %s the ±%.0f%% tolerance\n",
		spanned, len(lat), sum, p50, gap*100, verdict, sumGapTolerance*100)

	// Counters across the measured phase.
	ops := float64(max(len(lat), 1))
	d := func(a, b int64) float64 { return float64(b-a) / ops }
	b, a := t.before, t.after
	add("fleet.hedges_per_op", d(b.fleet.Hedges, a.fleet.Hedges), "count")
	hedgeWin := 0.0
	if h := a.fleet.Hedges - b.fleet.Hedges; h > 0 {
		hedgeWin = float64(a.fleet.HedgeWins-b.fleet.HedgeWins) / float64(h)
	}
	add("fleet.hedge_win_frac", hedgeWin, "frac")
	add("fleet.failovers_per_op", d(b.fleet.Failovers, a.fleet.Failovers), "count")
	add("fleet.member_changes", float64(a.memberChanges-b.memberChanges), "count")
	hits := 0
	for _, s := range p.samples {
		if !s.read && s.bad == "" && s.cache == "hit" {
			hits++
		}
	}
	add("serve.hit_frac", float64(hits)/ops, "frac")
	add("serve.evals_per_op", d(b.evals, a.evals), "count")
	add("serve.queue_ms", spanMedian(all, "queue"), "ms")
	add("serve.eval_ms", spanMedian(all, "pipeline"), "ms")
	add("catalog.attaches_per_op", d(b.attaches, a.attaches), "count")
	add("catalog.evictions_per_op", d(b.evictions, a.evictions), "count")
	var resident int64
	for _, n := range e.fleet.nodes {
		resident += n.cat.ResidentBytes()
	}
	add("catalog.resident_mb", float64(resident)/(1<<20), "MiB")
	add("gc.cycles_per_op", float64(p.stats.gcCycles)/ops, "count")
	add("gc.pause_p99_ms", p.stats.pauseP99, "ms")
	add("gc.cpu_frac", p.stats.gcCPUFrac, "frac")
	add("host.steal_frac", p.stats.stealFrac, "frac")
	lag := 0.0
	if len(p.genLag) > 0 {
		lag = quantile(sortedCopy(p.genLag), 0.99)
	}
	add("gen.lag_ms", lag, "ms")

	// Probes of the forward hop and the worker's HTTP path.
	out = append(out, probeServe(e, run)...)

	// The benchmark's own calls into each layer, on the workload's inputs.
	direct, dspans, err := directCalls(e, wl, run, t.origin)
	if err != nil {
		return nil, err
	}
	out = append(out, direct...)
	all = append(all, dspans...)
	path, err := writeSpans(e.workRoot, wl.name, e.seed, all)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace spans=%d written=%s\n", len(all), path)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

func spanMedian(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, s.End-s.Start)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// probeReps is how many probe requests each serve/fleet probe takes.
const probeReps = 100

// probeServe times the workload's probe request through the router,
// directly to its owner, and in-process through the owner's handler:
// the router's forward cost is the first minus the second, the worker's
// HTTP cost the second minus the third.
func probeServe(e *env, run runner) []named {
	pq, owner := run.probe()
	h := owner.srv.Handler()
	var routed, direct, handler []float64
	var body []byte
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		e.call(http.MethodGet, e.fleet.rurl+pq, "")
		routed = append(routed, ms(time.Since(t0)))
		t0 = time.Now()
		r := e.call(http.MethodGet, owner.url+pq, "")
		direct = append(direct, ms(time.Since(t0)))
		body = r.body
		rw := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, pq, nil)
		t0 = time.Now()
		h.ServeHTTP(rw, req)
		handler = append(handler, ms(time.Since(t0)))
	}
	// Re-encode the probe's body the way the worker does: typed when it
	// is a what-if report, as a generic value otherwise.
	var v any
	var wr serve.WhatifResponse
	if strings.HasPrefix(pq, "/v1/whatif") && json.Unmarshal(body, &wr) == nil {
		v = wr
	} else {
		json.Unmarshal(body, &v)
	}
	var enc []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		serve.MarshalBody(v)
		enc = append(enc, ms(time.Since(t0)))
	}
	return []named{
		{name: "fleet.forward_ms", value: median(routed) - median(direct), unit: "ms"},
		{name: "serve.handler_ms", value: median(handler), unit: "ms"},
		{name: "serve.http_ms", value: median(direct) - median(handler), unit: "ms"},
		{name: "serve.encode_ms", value: median(enc), unit: "ms"},
	}
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerTimer times the benchmark's direct calls and keeps their spans.
type layerTimer struct {
	origin time.Time
	spans  []span
}

// time runs fn once as a span named after its layer call and returns its
// wall time (ms) and heap allocation (MiB).
func (lt *layerTimer) time(name string, fn func() error) (float64, float64, error) {
	a0 := allocBytes()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	mb := float64(allocBytes()-a0) / (1 << 20)
	lt.spans = append(lt.spans, span{Name: name, Start: ms(t0.Sub(lt.origin)), End: ms(t0.Add(d).Sub(lt.origin)), Parent: "direct", Request: "direct"})
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", name, err)
	}
	return ms(d), mb, nil
}

// repeat runs fn n times and returns the median wall time (ms).
func (lt *layerTimer) repeat(name string, n int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		v, _, err := lt.time(name, fn)
		if err != nil {
			return 0, err
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

// churnIXP is the studied exchange the what-if shape churns.
const churnIXP = "DE-CIX"

// directShape is the what-if grid the scenario layer is timed on: the
// whatif-cold request shape, and a price-only grid that re-runs only the
// economic stage of its cell.
const (
	directShape = "c=churn:DE-CIX:4:2,traffic:1.030"
	priceShape  = "c=portprice:0.9"
)

// directCalls times the benchmark's own calls into each layer's public
// functions on the workload's first world — the snapshot it serves —
// with the options the serving path uses.
func directCalls(e *env, wl workload, run runner, origin time.Time) ([]named, []span, error) {
	ctx := context.Background()
	lt := &layerTimer{origin: origin}
	var out []named
	add := func(name string, v float64, unit string) { out = append(out, named{name: name, value: v, unit: unit}) }
	tmp := filepath.Join(e.dir, "direct")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	path := e.paths[0]

	// snapshot: attach, materialize, write.
	v, err := lt.repeat("snapshot.attach", 5, func() error {
		a, err := snapshot.Attach(path)
		if err == nil {
			a.Close()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	add("snapshot.attach_ms", v, "ms")
	var att *snapshot.Attached
	var snap *snapshot.Snapshot
	var mat []float64
	for i := 0; i < 3; i++ {
		if att != nil {
			att.Close()
		}
		if att, err = snapshot.Attach(path); err != nil {
			return nil, nil, err
		}
		v, _, err := lt.time("snapshot.materialize", func() (err error) { snap, err = att.Snapshot(); return err })
		if err != nil {
			return nil, nil, err
		}
		mat = append(mat, v)
	}
	defer att.Close() // the world below aliases the mapping
	add("snapshot.materialize_ms", median(mat), "ms")
	w := snap.World
	i := 0
	if v, err = lt.repeat("snapshot.write", 3, func() error {
		i++
		_, err := snapshot.SaveFlatFile(filepath.Join(tmp, fmt.Sprintf("write-%d.flat", i)), &snapshot.Snapshot{World: w, Dataset: snap.Dataset})
		return err
	}); err != nil {
		return nil, nil, err
	}
	add("snapshot.write_ms", v, "ms")
	if fi, err := os.Stat(path); err == nil {
		add("snapshot.file_mb", float64(fi.Size())/(1<<20), "MiB")
	}

	// catalog: a cold Acquire on a fresh catalog with the workers' budget,
	// evicting the previously acquired world when the budget forces it.
	budget := int64(e.residentMB) << 20
	var acq []float64
	for rep := 0; rep < 3; rep++ {
		cat, err := catalog.Open(e.snapDir, catalog.Options{ResidentBytes: budget})
		if err != nil {
			return nil, nil, err
		}
		n := len(e.digests)
		if n > 1 {
			l, err := cat.Acquire(ctx, e.digests[(rep+1)%n])
			if err != nil {
				return nil, nil, err
			}
			l.Release()
		}
		v, _, err := lt.time("catalog.acquire", func() error {
			l, err := cat.Acquire(ctx, e.digests[rep%n])
			if err == nil {
				l.Release()
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		acq = append(acq, v)
		cat.Close()
	}
	add("catalog.acquire_ms", median(acq), "ms")

	// spread: the baseline campaign, then a splice re-simulating only the
	// churned exchange.
	var base *spread.Result
	v, mb, err := lt.time("spread.run", func() (err error) {
		base, err = spread.RunCtx(ctx, w, spread.Options{Seed: 2, Retain: true})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	add("spread.run_ms", v, "ms")
	add("spread.alloc_mb", mb, "MiB")
	churned, dirty, err := churnedWorld(w, e.seed)
	if err != nil {
		return nil, nil, err
	}
	if v, _, err = lt.time("spread.splice", func() error {
		_, err := spread.RunCtx(ctx, churned, spread.Options{Seed: 2, Reuse: &spread.Reuse{From: base, Dirty: dirty}})
		return err
	}); err != nil {
		return nil, nil, err
	}
	add("spread.splice_ms", v, "ms")
	base = nil

	// netflow: the collection, then the first all-transit series synthesis.
	var ds *netflow.Dataset
	if v, mb, err = lt.time("netflow.collect", func() (err error) {
		ds, err = netflow.Collect(w, netflow.Config{Seed: 3, Intervals: wl.intervals})
		return err
	}); err != nil {
		return nil, nil, err
	}
	add("netflow.collect_ms", v, "ms")
	add("netflow.alloc_mb", mb, "MiB")
	if v, _, err = lt.time("netflow.series", func() error { ds.SeriesTotalSet(nil); return nil }); err != nil {
		return nil, nil, err
	}
	add("netflow.series_ms", v, "ms")

	// offload: a study over the shared (already primed) cone cache, then
	// the Figure 9 greedy expansion.
	cones := offload.NewConeCache()
	if _, err := offload.NewStudyOptions(w, ds, offload.Options{Cones: cones}); err != nil {
		return nil, nil, err
	}
	var study *offload.Study
	if v, _, err = lt.time("offload.study", func() (err error) {
		study, err = offload.NewStudyOptions(w, ds, offload.Options{Cones: cones})
		return err
	}); err != nil {
		return nil, nil, err
	}
	add("offload.study_ms", v, "ms")
	var steps []offload.GreedyStep
	if v, _, err = lt.time("offload.greedy", func() error { steps = study.Greedy(offload.GroupAll, 30); return nil }); err != nil {
		return nil, nil, err
	}
	add("offload.greedy_ms", v, "ms")

	// econ: the decay fit and the viability verdict.
	remaining := make([]float64, len(steps))
	for i, st := range steps {
		remaining[i] = st.Remaining()
	}
	in, outBps := ds.TransitTotals()
	if v, err = lt.repeat("econ.fit", 50, func() error {
		fit, err := econ.FitBFromRemaining(remaining, in+outBps)
		if err == nil {
			econ.DefaultParams(fit.B).RemoteViable()
		}
		return err
	}); err != nil {
		return nil, nil, err
	}
	add("econ.fit_ms", v, "ms")
	ds, study = nil, nil

	// scenario: the what-if grid end to end, and the same minus a
	// price-only grid (which re-runs only its cell's economic stage).
	runGrid := func(spec string) (float64, float64, error) {
		grid, err := scenario.ParseGrid(spec)
		if err != nil {
			return 0, 0, err
		}
		return lt.time("scenario.run", func() error {
			_, err := scenario.RunCtx(ctx, w, grid, scenario.Options{MeasureSeed: 2, TrafficSeed: 3, Intervals: wl.intervals, Cones: cones})
			return err
		})
	}
	full, mb, err := runGrid(directShape)
	if err != nil {
		return nil, nil, err
	}
	price, _, err := runGrid(priceShape)
	if err != nil {
		return nil, nil, err
	}
	add("scenario.run_ms", full, "ms")
	add("scenario.cell_ms", full-price, "ms")
	add("scenario.alloc_mb", mb, "MiB")

	// tick: advances of an engine opened with the workload's regime, and
	// a checkpoint.
	tickOut, jpath, err := directTicks(ctx, lt, w, filepath.Join(tmp, "tick"), cones)
	if err != nil {
		return nil, nil, err
	}
	out = append(out, tickOut...)
	if tl, ok := run.(*tickLive); ok {
		for i := range out {
			if out[i].name == "tick.spread_frac" {
				out[i].value = tl.spreadFrac()
			}
		}
		jpath = liveJournal(e, tl)
	}

	// journal: the run's tick records committed again, fsync on.
	jOut, err := directJournal(lt, jpath, filepath.Join(tmp, "journal.rpj"))
	if err != nil {
		return nil, nil, err
	}
	out = append(out, jOut...)
	return out, lt.spans, nil
}

// churnedWorld applies the what-if shape's membership churn to a clone
// and returns it with the spread splice's dirty predicate.
func churnedWorld(w *worldgen.World, seed int64) (*worldgen.World, func(int) bool, error) {
	es := &scenario.EvolveState{World: w.Clone()}
	d, err := scenario.ApplyOps(es, []scenario.Op{scenario.MemberChurn{IXP: churnIXP, Join: 4, Leave: 2}},
		stats.NewSource(subSeed(seed, "splice")))
	if err != nil {
		return nil, nil, err
	}
	dirty := make(map[int]bool)
	for i, x := range es.World.StudiedIXPs() {
		for _, a := range d.Sims {
			if x.Acronym == a {
				dirty[i] = true
			}
		}
	}
	return es.World, func(i int) bool { return d.AllSims || dirty[i] }, nil
}

// directTickAdvances is how many ticks the tick layer is timed over.
const directTickAdvances = 4

func directTicks(ctx context.Context, lt *layerTimer, w *worldgen.World, dir string, cones *offload.ConeCache) ([]named, string, error) {
	cfg := tick.DefaultConfig()
	cfg.Cones = cones
	eng, err := tick.Open(ctx, dir, w, cfg)
	if err != nil {
		return nil, "", err
	}
	defer eng.Close()
	var adv, alloc []float64
	spreadTicks := 0
	for i := 0; i < directTickAdvances; i++ {
		var res tick.Result
		v, mb, err := lt.time("tick.advance", func() (err error) { res, err = eng.Advance(ctx); return err })
		if err != nil {
			return nil, "", err
		}
		adv = append(adv, v)
		alloc = append(alloc, mb)
		if strings.Contains(res.Stages, "spread") {
			spreadTicks++
		}
	}
	ckpt, _, err := lt.time("tick.checkpoint", eng.Checkpoint)
	if err != nil {
		return nil, "", err
	}
	return []named{
		{name: "tick.advance_ms", value: median(adv), unit: "ms"},
		{name: "tick.alloc_mb", value: median(alloc), unit: "MiB"},
		{name: "tick.checkpoint_ms", value: ckpt, unit: "ms"},
		{name: "tick.spread_frac", value: float64(spreadTicks) / directTickAdvances, unit: "frac"},
	}, filepath.Join(dir, tick.JournalFile), nil
}

// liveJournal is the journal tick-live's writer grew on its owner.
func liveJournal(e *env, tl *tickLive) string {
	for i, n := range e.fleet.nodes {
		if n == tl.live {
			return filepath.Join(e.dir, "live", fmt.Sprint(i), e.digests[0][:16], tick.JournalFile)
		}
	}
	return ""
}

// directJournal commits a journal's tick records again into a fresh
// journal with fsync on every commit.
func directJournal(lt *layerTimer, src, dst string) ([]named, error) {
	c, err := journal.Read(src)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(src)
	if err != nil {
		return nil, err
	}
	j, err := journal.Create(dst, c.Header)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	var commits []float64
	for _, r := range c.Records {
		v, _, err := lt.time("journal.commit", func() error { return j.Commit(r) })
		if err != nil {
			return nil, err
		}
		commits = append(commits, v)
	}
	perTick := 0.0
	if len(c.Records) > 0 {
		perTick = float64(fi.Size()) / float64(len(c.Records))
	}
	return []named{
		{name: "journal.commit_ms", value: median(commits), unit: "ms"},
		{name: "journal.bytes_per_tick", value: perTick, unit: "B"},
	}, nil
}

// writeSpans writes the traced run's spans, one JSON object a line.
func writeSpans(workRoot, name string, seed int64, spans []span) (string, error) {
	dir := filepath.Join(workRoot, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
