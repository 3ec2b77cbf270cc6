// Package fault is the injectable failure plane of the serve tier. A
// *Plane decides — deterministically, from a seed — whether a named
// injection site experiences a fault on a given draw: a slow or failed
// snapshot attach, a corrupted read, an evaluation-goroutine panic, a
// transient result-cache failure. Production code passes a nil *Plane and
// every check collapses to one nil comparison; chaos tests and the
// `-chaos` rpserve flag pass a seeded plane and the same binary exercises
// its failure paths. The package also holds what survives those faults:
// the one retry loop (Retry) and panic boundary (Contain) that grid
// cells, ticks, catalog attaches and router failover share.
//
// The contract the chaos suites build on: a fault plane may change
// *whether and when* work completes, but completed work is byte-identical
// to a fault-free run. Injection sites therefore only delay, fail, or
// crash operations — they never perturb an RNG stream or a result value.
package fault

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class names one kind of injectable fault.
type Class uint8

const (
	// AttachSlow delays a snapshot attach by a deterministic fraction of
	// the plane's Delay.
	AttachSlow Class = iota
	// AttachFail fails a snapshot attach with a transient (retryable)
	// error.
	AttachFail
	// AttachCorrupt fails a snapshot attach the way a damaged file does:
	// the catalog maps it to its quarantine path, not a retry.
	AttachCorrupt
	// EvalPanic panics inside an evaluation goroutine — serve's scheduler
	// barrier and Contain (around grid cells and ticks) must contain it.
	EvalPanic
	// CacheFail makes a result-cache operation transiently fail; a lookup
	// degrades to a miss, an insert is dropped.
	CacheFail

	// The network classes model link-level failure between fleet nodes.
	// They are drawn by the router's transport, never by a worker's
	// computation, so they change which requests complete — not what any
	// completed request answers.

	// ConnDrop fails one outbound request the way a reset connection
	// does: an error before any response byte. Per-request draw.
	ConnDrop
	// NetDelay delays one outbound request by a deterministic fraction
	// of the plane's Delay — ambient network jitter. Per-request draw.
	NetDelay
	// Partition severs a peer link for the plane's lifetime: every
	// request and heartbeat to a drawn node fails. Per-node draw (one
	// decision per key, made on the key's first draw — sticky).
	Partition
	// SlowNode makes every response from a drawn node take the plane's
	// full Delay — a degraded-but-alive peer, which the router waits for
	// because it still answers its heartbeats. Per-node draw, sticky like
	// Partition.
	SlowNode

	numClasses
)

var classNames = [numClasses]string{
	"slow", "fail", "corrupt", "panic", "cachefail",
	"conndrop", "netdelay", "partition", "slownode",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Injected is the error value of an injected fault. Call sites
// distinguish transient classes (retry) from corrupt ones (quarantine)
// via Class.
type Injected struct {
	Class Class
	Key   string
}

func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected %s (%s)", e.Class, e.Key)
}

// Rates is the per-class injection probability vector of a Config. An
// alias, so callers building one literally don't hardcode the class
// count.
type Rates = [numClasses]float64

// RatesOf builds a rate vector with each named class at rate r.
func RatesOf(r float64, classes ...Class) Rates {
	var rs Rates
	for _, c := range classes {
		rs[c] = r
	}
	return rs
}

// Config parameterises a Plane.
type Config struct {
	// Seed keys every decision; the same seed and the same draw sequence
	// reproduce the same fault schedule.
	Seed int64
	// Rates holds the per-class injection probability in [0,1].
	Rates Rates
	// Delay is the maximum AttachSlow delay (default 10ms). The drawn
	// delay is a deterministic fraction of it.
	Delay time.Duration
}

// Plane is a seeded fault injector. The nil *Plane is the production
// plane: every method on it is a no-op returning "no fault".
type Plane struct {
	cfg Config

	mu    sync.Mutex
	draws map[uint64]uint64 // per-(class,key) draw counter

	stickyMu sync.Mutex
	sticky   map[string]bool // memoized per-(class,key) sticky decisions

	injected [numClasses]atomic.Int64
}

// New builds a seeded plane. A nil return never happens — disabled
// planes are represented by a nil *Plane, not a zero-rate one.
func New(cfg Config) *Plane {
	if cfg.Delay <= 0 {
		cfg.Delay = 10 * time.Millisecond
	}
	return &Plane{cfg: cfg, draws: make(map[uint64]uint64), sticky: make(map[string]bool)}
}

// Parse builds a plane from the -chaos flag form:
//
//	seed=42,slow=0.5,fail=0.3,corrupt=0.05,panic=0.2,cachefail=0.2,delay=20ms
//
// The network classes use the same form (conndrop=0.2,netdelay=0.3,
// partition=0.4,slownode=0.4); partition and slownode rates are per-node
// sticky decisions, the rest per-draw. Omitted rates default to 0; an
// empty spec is invalid (pass no flag for no chaos).
func Parse(spec string) (*Plane, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("fault: empty chaos spec")
	}
	var cfg Config
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad chaos term %q (want key=value)", part)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			cfg.Seed = n
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("fault: bad delay %q: %v", v, err)
			}
			cfg.Delay = d
		default:
			ci := -1
			for i, name := range classNames {
				if k == name {
					ci = i
					break
				}
			}
			if ci < 0 {
				return nil, fmt.Errorf("fault: unknown chaos class %q (want %s)", k, strings.Join(classNames[:], "|"))
			}
			r, err := strconv.ParseFloat(v, 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("fault: bad rate %q for %s (want 0..1)", v, k)
			}
			cfg.Rates[ci] = r
		}
	}
	return New(cfg), nil
}

// Mix64 is a murmur3-style finalizer. FNV alone is not enough for the
// fault plane's draws or the fleet's rendezvous scores: inputs differing
// only in a trailing counter digit leave its top bits nearly unchanged
// (one multiply of avalanche), which would make every draw of a key
// collapse to the same value.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// draw returns a deterministic uniform value in [0,1) for the key's next
// draw of the class, advancing the per-(class,key) counter.
func (p *Plane) draw(c Class, key string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", p.cfg.Seed, c, key)
	kh := h.Sum64()
	p.mu.Lock()
	n := p.draws[kh]
	p.draws[kh] = n + 1
	p.mu.Unlock()
	h2 := fnv.New64a()
	fmt.Fprintf(h2, "%d|%d", kh, n)
	return float64(Mix64(h2.Sum64())>>11) / (1 << 53)
}

// Should reports whether the class fires for the key's next draw. On a
// nil plane it is always false.
func (p *Plane) Should(c Class, key string) bool {
	if p == nil {
		return false
	}
	rate := p.cfg.Rates[c]
	if rate <= 0 {
		return false
	}
	if p.draw(c, key) >= rate {
		return false
	}
	p.injected[c].Add(1)
	return true
}

// StickyShould is Should with one decision per (class, key), memoized:
// the first draw decides, every later call returns the same answer. It is
// the per-node semantics of Partition and SlowNode — a severed link stays
// severed, a slow node stays slow — while Should's per-draw streams model
// per-request noise.
func (p *Plane) StickyShould(c Class, key string) bool {
	if p == nil {
		return false
	}
	mk := fmt.Sprintf("%d|%s", c, key)
	p.stickyMu.Lock()
	hit, decided := p.sticky[mk]
	p.stickyMu.Unlock()
	if decided {
		return hit
	}
	hit = p.Should(c, key)
	p.stickyMu.Lock()
	// A racing first draw may have decided meanwhile; the stored answer
	// wins so every caller observes one decision.
	if prev, decided := p.sticky[mk]; decided {
		hit = prev
	} else {
		p.sticky[mk] = hit
	}
	p.stickyMu.Unlock()
	return hit
}

// Sleep injects an AttachSlow delay for the key if drawn: a
// deterministic fraction of the configured Delay.
func (p *Plane) Sleep(key string) { p.SleepIf(AttachSlow, key) }

// SleepIf injects the class's delay for the key if drawn — a
// deterministic fraction of the configured Delay. NetDelay uses it per
// request; AttachSlow per attach.
func (p *Plane) SleepIf(c Class, key string) {
	if !p.Should(c, key) {
		return
	}
	frac := Jitter("sleep|"+key, 0)
	time.Sleep(time.Duration(math.Max(0.1, frac) * float64(p.cfg.Delay)))
}

// FullDelay returns the plane's configured Delay — the sleep a SlowNode
// response pays in full (injected jitter sleeps pay a fraction of it).
func (p *Plane) FullDelay() time.Duration {
	if p == nil {
		return 0
	}
	return p.cfg.Delay
}

// Err injects the class as an *Injected error for the key if drawn.
func (p *Plane) Err(c Class, key string) error {
	if !p.Should(c, key) {
		return nil
	}
	return &Injected{Class: c, Key: key}
}

// PanicIf panics with an *Injected value if EvalPanic fires for the key.
// Contain, the panic boundary of grid cells, ticks and serve's
// evaluations, converts it back into an error.
func (p *Plane) PanicIf(key string) {
	if p.Should(EvalPanic, key) {
		panic(&Injected{Class: EvalPanic, Key: key})
	}
}

// Injected returns how many faults of the class the plane has fired —
// the observability hook chaos tests assert against.
func (p *Plane) Injected(c Class) int64 {
	if p == nil {
		return 0
	}
	return p.injected[c].Load()
}

// InjectedTotal sums Injected over every class.
func (p *Plane) InjectedTotal() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for c := Class(0); c < numClasses; c++ {
		n += p.injected[c].Load()
	}
	return n
}

// IsInjected reports whether err is (or wraps) an injected fault, and of
// which class.
func IsInjected(err error) (Class, bool) {
	for err != nil {
		if inj, ok := err.(*Injected); ok {
			return inj.Class, true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return 0, false
		}
		err = u.Unwrap()
	}
	return 0, false
}

// Jitter returns a deterministic fraction in [0,1) keyed by (key,
// attempt). Retry backoff uses it instead of a shared RNG stream so a
// retried operation perturbs nothing but wall time — the byte-identity
// invariant survives any failure schedule.
func Jitter(key string, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "jitter|%s|%d", key, attempt)
	return float64(Mix64(h.Sum64())>>11) / (1 << 53)
}

// Backoff returns the capped exponential backoff delay for an attempt
// (0-based), with ±50% deterministic jitter keyed by key+attempt:
// base·2^attempt scaled into [0.5,1.5), capped at max.
func Backoff(base, max time.Duration, key string, attempt int) time.Duration {
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	scale := 0.5 + Jitter(key, attempt)
	return time.Duration(float64(d) * scale)
}
