package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procSample is the process- and host-level state a measured phase is
// bracketed by.
type procSample struct {
	at        time.Time
	cpu       time.Duration // process user + sys
	allocs    uint64        // cumulative heap bytes allocated
	gcCycles  uint64
	gcCPU     float64 // cumulative GC CPU seconds (runtime estimate)
	totalCPU  float64 // cumulative CPU seconds available to the runtime
	pauses    *metrics.Float64Histogram
	hostSteal uint64
	hostTotal uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func sampleProc() procSample {
	s := procSample{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.gcCycles = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	s.totalCPU = ms[3].Value.Float64()
	s.pauses = ms[4].Value.Float64Histogram()
	s.hostSteal, s.hostTotal = readHostCPU()
	return s
}

// readHostCPU returns the host's cumulative steal and total jiffies from
// the aggregate cpu line of /proc/stat (zeros where it is unreadable).
func readHostCPU() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// phaseStats are the process-level deltas of one measured phase.
type phaseStats struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPUFrac  float64
	pauseP99   float64 // ms
	stealFrac  float64
}

func diffProc(a, b procSample) phaseStats {
	p := phaseStats{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocs - a.allocs,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		p.gcCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	if d := b.hostTotal - a.hostTotal; d > 0 {
		p.stealFrac = float64(b.hostSteal-a.hostSteal) / float64(d)
	}
	p.pauseP99 = histDeltaQuantile(a.pauses, b.pauses, 0.99) * 1e3
	return p
}

// histDeltaQuantile is the q-quantile (upper bucket bound, seconds) of
// the observations b recorded beyond a.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// runRecord describes the host and code a result was measured on.
type runRecord struct {
	nproc, gomaxprocs int
	cpuModel          string
	goVersion         string
	commit            string
}

func newRunRecord() runRecord {
	return runRecord{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		cpuModel:   cpuModel(),
		goVersion:  runtime.Version(),
		commit:     commitID(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the measured code: the git commit when the working
// directory is a checkout with its .git directory, and always a digest
// of the Go sources and module files, which identifies the code in an
// export without git metadata too.
func commitID() string {
	id := "tree:" + sourceDigest()
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		if len(ref) >= 12 {
			id = "git:" + ref[:12] + " " + id
		}
	}
	return id
}

func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".s") {
			if b, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write([]byte{0})
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:12]
}
