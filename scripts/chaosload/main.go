// Command chaosload drives a mixed query workload against a running
// rpserve and reports completed-query throughput plus latency
// percentiles, split by response class. It is the measurement half of
// the PR 7 robustness story: run it once against a fault-free server
// and once against the same catalog with -chaos armed, and compare —
// completed queries must be byte-identical (the server's chaos suites
// pin that), so the *only* thing a fault schedule may cost is
// throughput and tail latency, never answers.
//
// Usage:
//
//	rpserve -snapshot-dir worlds -listen :8094 [-chaos 'seed=7,...'] &
//	chaosload -addr http://127.0.0.1:8094 -duration 30s -clients 8
//
// Each client loops over the catalog's worlds (read from /v1/worlds)
// with a small set of distinct what-if grids, so the workload mixes
// cold evaluations, warm cache hits, and — under chaos — injected
// attach failures, panics, and shed requests. Every completed body is
// digested; the tool fails if the same (world, query) ever answers
// with two different bodies.
//
// -ticker adds the living-world axis: a dedicated goroutine advances
// every world's clock (POST /v1/tick) concurrently with the query load,
// so readers race the tick engine's view handoff. Responses then key on
// the digest each body itself reports — "<base>@<tick>", the content
// address of the exact view the computation read — and the stability
// check becomes the torn-read detector: two bodies under one view digest
// must be byte-identical no matter how many ticks landed in between.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type worldsResponse struct {
	Worlds []struct {
		Digest string `json:"digest"`
		State  string `json:"state"`
	} `json:"worlds"`
}

type sample struct {
	class string // query class: whatif, world, tick
	code  int
	d     time.Duration
}

// bucket keys the latency report: one histogram per (class, status).
type bucket struct {
	class string
	code  int
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8094", "rpserve base URL")
	duration := flag.Duration("duration", 30*time.Second, "how long to drive load")
	clients := flag.Int("clients", 8, "concurrent client goroutines")
	ticker := flag.Bool("ticker", false, "advance every world's clock concurrently with the query load (POST /v1/tick)")
	tickEvery := flag.Duration("tick-every", 2*time.Second, "interval between tick advances in -ticker mode")
	flag.Parse()

	resp, err := http.Get(*addr + "/v1/worlds")
	if err != nil {
		fatal(err)
	}
	var wr worldsResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		fatal(err)
	}
	resp.Body.Close()
	var digests []string
	for _, w := range wr.Worlds {
		if w.State != "quarantined" {
			digests = append(digests, w.Digest)
		}
	}
	if len(digests) == 0 {
		fatal(fmt.Errorf("no servable worlds at %s", *addr))
	}

	// A few distinct grids so the cache neither absorbs everything nor
	// nothing: each (world, grid) pair computes cold once, then hits.
	grids := []string{
		"scenarios=dark%3Doutage%3AAMS-IX&k=3&greedy=8&intervals=96&days=6",
		"scenarios=cheap%3Dremoteprice%3A0.5&k=3&greedy=8&intervals=96&days=6",
		"scenarios=surge%3Dtraffic%3A1.3%3Bdark%3Doutage%3ADE-CIX&k=3&greedy=8&intervals=96&days=6",
	}

	var (
		mu      sync.Mutex
		samples []sample
		bodies  = map[string][32]byte{} // (view digest|grid) -> body digest
		ticked  int
	)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	if *ticker {
		// One clock hand for all worlds: advancing serialises per world on
		// the server anyway, and a single driver keeps the tick load itself
		// deterministic in shape (queries still race the view handoff).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				world := digests[i%len(digests)]
				t0 := time.Now()
				resp, err := http.Post(fmt.Sprintf("%s/v1/tick?world=%s&n=1", *addr, world), "", nil)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					mu.Lock()
					samples = append(samples, sample{"tick", resp.StatusCode, time.Since(t0)})
					if resp.StatusCode == http.StatusOK {
						ticked++
					}
					mu.Unlock()
				}
				time.Sleep(*tickEvery)
			}
		}()
	}
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				// Enumerate (world, grid) pairs so every combination is
				// exercised — independent strides can alias when the two
				// list lengths share a factor.
				pair := c + i
				world := digests[pair%len(digests)]
				grid := grids[(pair/len(digests))%len(grids)]
				// Every seventh request is a cheap point read instead of a
				// grid, so the latency report separates the classes a real
				// dashboard would: interactive lookups vs batch evaluation.
				if pair%7 == 3 {
					t0 := time.Now()
					resp, err := http.Get(fmt.Sprintf("%s/v1/world?world=%s", *addr, world))
					if err != nil {
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					mu.Lock()
					samples = append(samples, sample{"world", resp.StatusCode, time.Since(t0)})
					mu.Unlock()
					continue
				}
				url := fmt.Sprintf("%s/v1/whatif?world=%s&%s", *addr, world, grid)
				t0 := time.Now()
				resp, err := http.Get(url)
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				el := time.Since(t0)
				// A live world moves under the load, so the stability key is
				// the digest the body itself reports — "<base>@<tick>" names
				// the exact immutable view the computation read. Frozen
				// worlds report their snapshot digest, same key either way.
				key := world + "|" + grid
				if resp.StatusCode == http.StatusOK {
					var vr struct {
						Digest string `json:"digest"`
					}
					if json.Unmarshal(body, &vr) == nil && vr.Digest != "" {
						key = vr.Digest + "|" + grid
					}
				}
				mu.Lock()
				samples = append(samples, sample{"whatif", resp.StatusCode, el})
				if resp.StatusCode == http.StatusOK {
					sum := sha256.Sum256(body)
					if prev, seen := bodies[key]; seen && prev != sum {
						mu.Unlock()
						fatal(fmt.Errorf("view %.24s answered %q with two different bodies", key, grid))
					}
					bodies[key] = sum
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// Group latencies by (class, status): the histogram a fleet operator
	// actually reads — interactive lookups, batch grids, and tick acks
	// each have their own tail, and a shed 429/503 resolves much faster
	// than a completed 200.
	byBucket := map[bucket][]time.Duration{}
	completed := 0
	for _, s := range samples {
		byBucket[bucket{s.class, s.code}] = append(byBucket[bucket{s.class, s.code}], s.d)
		if s.code == http.StatusOK {
			completed++
		}
	}
	fmt.Printf("total=%d completed=%d (%.1f/s over %v), %d distinct (view,grid) bodies all stable\n",
		len(samples), completed, float64(completed)/duration.Seconds(), *duration, len(bodies))
	if *ticker {
		fmt.Printf("  ticker: %d ticks committed while queries ran\n", ticked)
	}
	var buckets []bucket
	for b := range byBucket {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].class != buckets[j].class {
			return buckets[i].class < buckets[j].class
		}
		return buckets[i].code < buckets[j].code
	})
	for _, b := range buckets {
		ds := byBucket[b]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		fmt.Printf("  %-6s %d: n=%-6d p50=%-10v p95=%-10v p99=%v\n",
			b.class, b.code, len(ds), pct(ds, 50), pct(ds, 95), pct(ds, 99))
	}

	crossCheckServerTruth(*addr, samples)
}

// --- server-truth cross-check ---
//
// The server keeps its own per-class latency histograms
// (rp_serve_request_seconds on a worker, rp_fleet_request_seconds on a
// router). After the run, chaosload scrapes GET /metrics and checks
// that the server's percentiles agree with what the clients measured,
// within the histogram's bucket resolution — if the two views of the
// same requests diverge by more than one bucket, either the
// instrumentation or the load report is lying, and the run fails.

// clientToServerClass maps chaosload's workload classes to the
// obs.EndpointClass vocabulary the server labels its histograms with.
var clientToServerClass = map[string]string{
	"whatif": "GET /v1/whatif",
	"world":  "GET /v1/world",
	"tick":   "POST /v1/tick",
}

// serverHist is one class's cumulative bucket counts from /metrics.
type serverHist struct {
	bounds []float64 // upper bounds in seconds, ascending, excluding +Inf
	counts []int64   // cumulative counts per bound
	total  int64     // the +Inf (total) count
}

// quantileBucket returns the bucket index and upper bound (seconds)
// holding the q-quantile; index len(bounds) is the overflow bucket.
func (h *serverHist) quantileBucket(q float64) (int, float64) {
	rank := int64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	for i, c := range h.counts {
		if c >= rank {
			return i, h.bounds[i]
		}
	}
	last := 0.0
	if len(h.bounds) > 0 {
		last = h.bounds[len(h.bounds)-1]
	}
	return len(h.bounds), last
}

func (h *serverHist) bucketIndex(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// crossCheckServerTruth scrapes the server's request histograms and
// fails the run on disagreement beyond bucket resolution; a failed
// scrape skips gracefully — not every target serves /metrics.
func crossCheckServerTruth(addr string, samples []sample) {
	hists, family, err := scrapeHists(addr)
	if err != nil {
		fmt.Printf("  server-truth: skipped (%v)\n", err)
		return
	}
	merged := map[string][]time.Duration{}
	for _, s := range samples {
		merged[s.class] = append(merged[s.class], s.d)
	}
	for _, class := range []string{"whatif", "world", "tick"} {
		ds := merged[class]
		h := hists[clientToServerClass[class]]
		if len(ds) == 0 || h == nil {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var q [3]float64
		for i, p := range []int{50, 95, 99} {
			si, bound := h.quantileBucket(float64(p) / 100)
			q[i] = bound
			ci := h.bucketIndex(pct(ds, p).Seconds())
			if diff := si - ci; diff < -1 || diff > 1 {
				fatal(fmt.Errorf("server-truth mismatch for %s p%d: client %v is bucket %d, server reports bucket %d (≤%gs) — beyond bucket resolution",
					clientToServerClass[class], p, pct(ds, p), ci, si, bound))
			}
		}
		fmt.Printf("  server-truth %-15s p50≤%gs p95≤%gs p99≤%gs (%s, agrees with client within bucket resolution)\n",
			clientToServerClass[class], q[0], q[1], q[2], family)
	}
}

// scrapeHists pulls the per-class request histograms from /metrics,
// trying the worker family first and the router family second, so the
// cross-check works against either tier.
func scrapeHists(addr string) (map[string]*serverHist, string, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	for _, family := range []string{"rp_serve_request_seconds", "rp_fleet_request_seconds"} {
		if hists := parseHists(string(body), family); len(hists) > 0 {
			return hists, family, nil
		}
	}
	return nil, "", fmt.Errorf("no request histograms in /metrics")
}

func parseHists(text, family string) map[string]*serverHist {
	type cell struct {
		le  float64
		n   int64
		inf bool
	}
	byClass := map[string][]cell{}
	prefix := family + "_bucket{"
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		class := labelValue(line, "class")
		leStr := labelValue(line, "le")
		sp := strings.LastIndexByte(line, ' ')
		if class == "" || leStr == "" || sp < 0 {
			continue
		}
		n, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue
		}
		if leStr == "+Inf" {
			byClass[class] = append(byClass[class], cell{inf: true, n: n})
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue
		}
		byClass[class] = append(byClass[class], cell{le: le, n: n})
	}
	out := map[string]*serverHist{}
	for class, cells := range byClass {
		sort.Slice(cells, func(i, j int) bool {
			if cells[i].inf != cells[j].inf {
				return !cells[i].inf
			}
			return cells[i].le < cells[j].le
		})
		h := &serverHist{}
		for _, c := range cells {
			if c.inf {
				h.total = c.n
				continue
			}
			h.bounds = append(h.bounds, c.le)
			h.counts = append(h.counts, c.n)
		}
		if h.total > 0 {
			out[class] = h
		}
	}
	return out
}

// labelValue extracts key="..." from an exposition line. The values
// this tool reads (endpoint classes, bucket bounds) never contain
// escaped quotes.
func labelValue(line, key string) string {
	i := strings.Index(line, key+`="`)
	if i < 0 {
		return ""
	}
	rest := line[i+len(key)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted) - 1) * p / 100
	return sorted[i].Round(10 * time.Microsecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaosload:", err)
	os.Exit(1)
}
