// Command perfbench is the repository's end-to-end benchmark. It brings
// up an in-process fleet the way cmd/rpserve builds one — a fleet router
// in front of two serve workers over loopback HTTP, each a catalog over
// the benchmark's snapshot directory — drives one of four seeded
// workloads against it, checks every response, and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also folds the servers' flight-recorder spans into per-layer self
// times and times the benchmark's own calls into each layer on the
// workload's inputs, and the metrics are the per-layer ones. See
// README.md beside this file for the workloads and metric definitions.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload whatif-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"remotepeering/internal/obs"
)

// setupReplicates is how many times a run sets its workload up; setup_s
// is their median, and only the last one is measured.
const setupReplicates = 3

// opTimeout bounds one request; a healthy op finishes in seconds.
const opTimeout = 60 * time.Second

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	workDir := flag.String("work", ".bench_build", "directory for fixtures, journals, traces, and identity records")
	flag.Parse()
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown -workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	case *seconds < 1:
		fail(fmt.Errorf("-seconds must be at least 1"))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	res, err := runBench(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workDir)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one request as the load generator saw it.
type sample struct {
	read   bool      // tick-live's open-loop read (false: the workload's primary op)
	due    time.Time // when the request was due: its send time in a closed loop
	sent   time.Time
	done   time.Time
	status int
	bad    string // the failed check or transport error; "" = correct
	id     string // the X-RP-Trace id the servers record it under
	path   string
	cache  string // the X-Cache header: hit, miss, or none
	worker string // the worker it was sent to, bypassing the router ("" = routed)
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// env is one setup of a workload: its directory, fleet, client, and the
// accounting its operations report into.
type env struct {
	seed   int64
	dir    string
	client *http.Client
	fleet  *benchFleet
	warmup opLog
	// ident accumulates the bodies that depend only on the seed, in a
	// deterministic order: the byte-identity invariant.
	ident identity
	// snapDir, paths and digests are the worlds the fleet serves, and
	// owners the worker the router sends each world to.
	snapDir    string
	paths      []string
	digests    []string
	owners     map[string]*node
	residentMB int
	// workRoot holds every run's directories, identity records, and span
	// files.
	workRoot string
}

func newEnv(seed int64, dir, workRoot string) *env {
	return &env{
		seed:     seed,
		dir:      dir,
		workRoot: workRoot,
		// At most two client connections: the benchmark is sized for a
		// 2-CPU host, and its load comes from no more client goroutines or
		// connections than that host has CPUs.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		snapDir: filepath.Join(dir, "snap"),
	}
}

func (e *env) close() error {
	var err error
	if e.fleet != nil {
		err = e.fleet.stop()
	}
	e.client.CloseIdleConnections()
	return err
}

// reply is a fully-read response.
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// call issues one request tagged with a trace id and reads the whole body.
func (e *env) call(method, url, id string) reply {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return reply{err: err}
	}
	if id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, header: resp.Header, body: body, err: err}
}

// timed issues a request as one sample; check validates a 200 reply and
// returns the failed check, if any.
func (e *env) timed(method, url, id string, due time.Time, check func(reply) string) (sample, reply) {
	s := sample{due: due, sent: time.Now(), id: id, path: urlPath(url)}
	if due.IsZero() {
		s.due = s.sent
	}
	r := e.call(method, url, id)
	s.done = time.Now()
	s.status = r.status
	s.cache = r.header.Get("X-Cache")
	switch {
	case r.err != nil:
		s.bad = r.err.Error()
	case r.status != http.StatusOK:
		s.bad = fmt.Sprintf("status %d: %.200s", r.status, r.body)
	default:
		s.bad = check(r)
	}
	return s, r
}

func urlPath(u string) string {
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	if i := strings.IndexByte(u, '/'); i >= 0 {
		u = u[i:]
	}
	p, _, _ := strings.Cut(u, "?")
	return p
}

// opLog counts one phase's operations by outcome.
type opLog struct {
	attempts int
	failed   int
	byStatus map[int]int
	firstBad string
}

func (l *opLog) add(s sample) {
	if l.byStatus == nil {
		l.byStatus = make(map[int]int)
	}
	l.attempts++
	l.byStatus[s.status]++
	if s.bad != "" {
		l.failed++
		if l.firstBad == "" {
			l.firstBad = fmt.Sprintf("%s %s: %s", s.path, s.id, s.bad)
		}
	}
}

func (l *opLog) merge(o *opLog) {
	if l.byStatus == nil {
		l.byStatus = make(map[int]int)
	}
	l.attempts += o.attempts
	l.failed += o.failed
	for c, n := range o.byStatus {
		l.byStatus[c] += n
	}
	if l.firstBad == "" {
		l.firstBad = o.firstBad
	}
}

func (l *opLog) String() string {
	codes := make([]int, 0, len(l.byStatus))
	for c := range l.byStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	parts := make([]string, len(codes))
	for i, c := range codes {
		label := fmt.Sprint(c)
		if c == 0 {
			label = "transport-error"
		}
		parts[i] = fmt.Sprintf("%s:%d", label, l.byStatus[c])
	}
	return fmt.Sprintf("attempted=%d succeeded=%d failed=%d status={%s}",
		l.attempts, l.attempts-l.failed, l.failed, strings.Join(parts, " "))
}

// warm issues a setup request, counting it in the warm-up phase; a
// failure aborts the setup.
func (e *env) warm(method, url string, check func(reply) string) (reply, error) {
	s, r := e.timed(method, url, "", time.Time{}, check)
	e.warmup.add(s)
	if s.bad != "" {
		return r, fmt.Errorf("warm-up %s %s: %s", method, urlPath(url), s.bad)
	}
	return r, nil
}

// opRec is one measured request as the end-to-end metrics need it.
type opRec struct {
	lat  float64 // ms, from the time the request was due
	read bool
	ok   bool
}

// phase is the measured phase's raw outcome. Untraced runs keep only the
// compact records, so the benchmark's own bookkeeping barely shows in
// live_heap_mb; traced runs also keep every sample for span folding.
type phase struct {
	ops     []opRec
	samples []sample
	stats   phaseStats
	log     opLog
	genLag  []float64 // open-loop lateness, ms
}

// measure runs the workload's clients (and reader) for the given length.
// A closed-loop client stops issuing once the deadline passes; the phase
// ends when its last request completes.
func measure(run runner, wl workload, length time.Duration, keep bool) *phase {
	p := &phase{}
	runtime.GC() // the phase does not inherit the setup's garbage
	before := sampleProc()
	deadline := before.at.Add(length)
	var mu sync.Mutex
	var wg sync.WaitGroup
	// loop issues requests until next reports false, then merges its
	// goroutine-local records into the phase.
	loop := func(next func(seq int) (sample, bool)) {
		defer wg.Done()
		var ops []opRec
		var full []sample
		var log opLog
		for seq := 0; ; seq++ {
			s, more := next(seq)
			if !more {
				break
			}
			ops = append(ops, opRec{lat: ms(s.latency()), read: s.read, ok: s.bad == ""})
			log.add(s)
			if keep {
				full = append(full, s)
			}
		}
		mu.Lock()
		p.ops = append(p.ops, ops...)
		p.samples = append(p.samples, full...)
		p.log.merge(&log)
		mu.Unlock()
	}
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go loop(func(seq int) (sample, bool) {
			if !time.Now().Before(deadline) {
				return sample{}, false
			}
			return run.op(c, seq), true
		})
	}
	if wl.readRate > 0 {
		period := time.Second / time.Duration(wl.readRate)
		wg.Add(1)
		go loop(func(seq int) (sample, bool) {
			due := before.at.Add(time.Duration(seq) * period)
			if !due.Before(deadline) {
				return sample{}, false
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			s := run.read(seq, due)
			s.read = true
			p.genLag = append(p.genLag, ms(s.sent.Sub(due))) // only this goroutine appends
			return s, true
		})
	}
	wg.Wait()
	p.stats = diffProc(before, sampleProc())
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].sent.Before(p.samples[j].sent) })
	return p
}

// latencies returns the sorted latencies (ms) of the primary or read
// requests, failed ones as +Inf: a failed or refused op misses every
// latency limit.
func (p *phase) latencies(read bool) (sorted []float64, ok int) {
	for _, o := range p.ops {
		if o.read != read {
			continue
		}
		if !o.ok {
			sorted = append(sorted, math.Inf(1))
			continue
		}
		ok++
		sorted = append(sorted, o.lat)
	}
	sort.Float64s(sorted)
	return sorted, ok
}

func runBench(wl workload, seed int64, length time.Duration, traced bool, workRoot string) (*result, error) {
	rec := newRunRecord()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", wl.name, seed, length.Seconds(), traced)
	workRoot, err := filepath.Abs(workRoot)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(workRoot, fmt.Sprintf("run-%s-%d-%d", wl.name, seed, os.Getpid()))
	defer os.RemoveAll(base)

	// Set up several times; setup_s is the median, the last one is measured.
	var setups []float64
	var e *env
	var run runner
	var warm []*opLog
	replicaIdent := ""
	correct := true
	var notes []string
	for r := 0; r < setupReplicates; r++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("tear down setup %d: %w", r, err)
			}
			runtime.GC()
		}
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		e = newEnv(seed, dir, workRoot)
		run = wl.build(e)
		if err := run.setup(); err != nil {
			e.close()
			return nil, fmt.Errorf("setup %d: %w", r, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warm = append(warm, &e.warmup)
		// Every replicate's warm-up answers the same seed-determined
		// requests, so their bodies must agree byte for byte.
		if id := e.ident.sum(); r == 0 {
			replicaIdent = id
		} else if id != replicaIdent {
			correct = false
			notes = append(notes, fmt.Sprintf("setup %d warm-up bodies differ from setup 0 (%s vs %s)", r, id, replicaIdent))
		}
	}
	defer e.close()
	fmt.Printf("setup replicates_s=%s worlds=%s\n", fmtList(setups, "%.4f"), worldList(e))

	var tr *tracer
	if traced {
		if tr, err = startTracer(e); err != nil {
			return nil, err
		}
	}
	p := measure(run, wl, length, traced)
	if tr != nil {
		if err := tr.stop(); err != nil {
			return nil, err
		}
	}
	heap := liveHeapMB()

	for i, w := range warm {
		fmt.Printf("ops phase=warmup setup=%d %s\n", i, w)
	}
	fmt.Printf("ops phase=measured %s\n", &p.log)
	if p.log.failed > 0 {
		correct = false
		notes = append(notes, "first failed op: "+p.log.firstBad)
	}
	for _, c := range run.checks() {
		fmt.Printf("check %s\n", c)
		if !c.ok {
			correct = false
		}
	}
	id := run.identity()
	idNote, idOK := recordIdentity(workRoot, wl.name, seed, id)
	fmt.Printf("check identity %s %s\n", id, idNote)
	correct = correct && idOK
	for _, n := range notes {
		fmt.Println("fail", n)
	}
	fmt.Printf("record nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%q seed=%d host.steal_frac=%.5f\n",
		rec.nproc, rec.gomaxprocs, rec.cpuModel, rec.goVersion, rec.commit, seed, p.stats.stealFrac)

	res := &result{Correct: correct, Attempted: p.log.attempts, Failed: p.log.failed, Metrics: map[string]metric{}}
	if traced {
		layers, err := tr.profile(wl, run, p)
		if err != nil {
			return nil, err
		}
		for _, m := range layers {
			res.Metrics[m.name] = metric{Value: finite(m.value), Unit: m.unit}
			fmt.Printf("layer %-24s %14.6g %s\n", m.name, m.value, m.unit)
		}
		return res, nil
	}
	for _, read := range []bool{false, true} {
		if lat, _ := p.latencies(read); len(lat) > 0 {
			kind := map[bool]string{false: "primary", true: "read"}[read]
			fmt.Printf("latency %s_ms n=%d p50=%.4g p90=%.4g p95=%.4g p99=%.4g p99.9=%.4g max=%.4g\n", kind, len(lat),
				quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999), lat[len(lat)-1])
		}
	}
	for _, m := range endToEnd(wl, p, setups, heap) {
		res.Metrics[m.name] = metric{Value: finite(m.value), Unit: m.unit}
		fmt.Printf("metric %-16s %14.6g %-5s samples=%d%s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
	return res, nil
}

// named is one printed metric.
type named struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// finite keeps the JSON encodable: a latency that is +Inf (more failed
// ops than the percentile allows) is reported as -1, and such a run is
// already incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(wl workload, p *phase, setups []float64, heap float64) []named {
	prim, okOps := p.latencies(false)
	reads, _ := p.latencies(true)
	n := float64(max(okOps, 1))
	tailNote := fmt.Sprintf(" percentile=p%g", wl.tailQ*100)
	out := []named{
		{"setup_s", median(setups), "s", len(setups), ""},
		{"ops_per_s", float64(okOps) / p.stats.wall.Seconds(), "op/s", okOps, ""},
		{"p50_ms", quantile(prim, 0.5), "ms", len(prim), ""},
		{"tail_ms", quantile(prim, wl.tailQ), "ms", len(prim), tailNote},
		{"cpu_ms_per_op", ms(p.stats.cpu) / n, "ms", okOps, ""},
		{"alloc_mb_per_op", float64(p.stats.allocBytes) / (1 << 20) / n, "MiB", okOps, ""},
		{"live_heap_mb", heap, "MiB", 1, ""},
	}
	// Reads are the workload's GET requests: the open-loop reader beside
	// tick-live's writer, and the primary op everywhere else.
	readNote := " source=primary"
	readQ := wl.tailQ
	if wl.readRate > 0 {
		prim, readNote, readQ = reads, fmt.Sprintf(" source=open-loop-reader rate=%d/s", wl.readRate), wl.readTailQ
	}
	out = append(out,
		named{"read_p50_ms", quantile(prim, 0.5), "ms", len(prim), readNote},
		named{"read_tail_ms", quantile(prim, readQ), "ms", len(prim), readNote + fmt.Sprintf(" percentile=p%g", readQ*100)},
	)
	return out
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// worldList names each world by digest prefix and owning worker.
func worldList(e *env) string {
	parts := make([]string, len(e.digests))
	for i, d := range e.digests {
		parts[i] = d[:12]
		if owner := e.owner(d); owner != nil {
			parts[i] += "@" + owner.name
		}
	}
	return strings.Join(parts, ",")
}
