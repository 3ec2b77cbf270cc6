// Package catalog is the multi-world layer under the serve tier: a
// content-addressed store of snapshot files (keyed by the same SHA-256
// digests SaveFlatFile returns and Attach stamps) with a bounded set of
// resident, attached worlds managed LRU under a byte budget.
//
// The semantics the fleet design leans on:
//
//   - attach-on-demand: a world stays a cold file until a query leases
//     it; the digest (the cache key) is known from the scan, so warm
//     result-cache hits never attach anything.
//   - single-flight attach: N concurrent leases of a cold world trigger
//     one attach; the rest wait on it.
//   - refcounted residency: a world is never evicted while a lease holds
//     it. Eviction takes idle worlds only, least recently used first. A
//     residency is charged at its file size; the file itself is mapped
//     only while the world materializes.
//   - quarantine: a snapshot that fails validation (CRC mismatch,
//     truncation, wrong magic, a retired format version, or content that
//     no longer hashes to the digest it was catalogued under) is marked
//     Quarantined and never retried;
//     transient attach failures retry in fault.Retry, with capped,
//     deterministically jittered backoff.
//   - injectable faults: a *fault.Plane threads through the attach path
//     so chaos suites can prove the above under any failure schedule. A
//     nil plane (production) costs one pointer comparison per site.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remotepeering/internal/fault"
	"remotepeering/internal/snapshot"
)

// Health is a catalogued world's lifecycle state.
type Health uint8

const (
	// Cold: known (digest, path, size) but not resident.
	Cold Health = iota
	// Attaching: one leader is attaching; other leases wait.
	Attaching
	// Ready: resident and leasable.
	Ready
	// Quarantined: the file failed validation; leases are refused until
	// the operator replaces the file and restarts the scan.
	Quarantined
)

var healthNames = [...]string{"cold", "attaching", "ready", "quarantined"}

func (h Health) String() string {
	if int(h) < len(healthNames) {
		return healthNames[h]
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// Typed failures callers route on: unknown/ambiguous keys are client
// errors, ErrQuarantined is a damaged world, ErrNoSlot is admission
// pressure (every resident world is pinned) — the serve layer maps it to
// 429 + Retry-After.
var (
	ErrUnknownWorld = errors.New("catalog: unknown world")
	ErrAmbiguous    = errors.New("catalog: ambiguous world key")
	ErrQuarantined  = errors.New("catalog: world quarantined")
	ErrNoSlot       = errors.New("catalog: no resident slot (all worlds pinned)")
)

// Options parameterises a Catalog.
type Options struct {
	// ResidentBytes is the resident-world byte budget (file sizes of
	// Ready/Attaching worlds). 0 means unlimited. A single world larger
	// than the budget is still admitted when nothing else is resident —
	// a catalog that can serve nothing is useless.
	ResidentBytes int64
	// Faults is the injectable fault plane (nil in production).
	Faults *fault.Plane
	// AttachAttempts bounds attach tries per leader on transient
	// failures; 0 takes fault.Retry's default of 3. Corrupt files
	// quarantine on the first try.
	AttachAttempts int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between attach attempts, jittered deterministically by digest +
	// attempt; zero values take fault.Backoff's defaults (5ms / 250ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// entry is one catalogued world. All fields after the immutable identity
// block are guarded by the catalog mutex.
type entry struct {
	digest string
	path   string
	size   int64

	state     Health
	refs      int
	lastUse   uint64
	attaching chan struct{} // non-nil iff state == Attaching
	snap      *snapshot.Snapshot
	held      any   // the attach hook's value for this residency
	qerr      error // quarantine reason
}

// Catalog is the content-addressed store. Safe for concurrent use.
type Catalog struct {
	opts Options

	mu       sync.Mutex
	byDigest map[string]*entry
	list     []*entry // path-sorted, for stable listings
	resident int64    // bytes of Ready+Attaching worlds
	clock    uint64   // LRU tick
	onAttach func(*snapshot.Snapshot) (any, error)

	attaches  atomic.Int64
	evictions atomic.Int64
}

// New builds an empty catalog; Add registers files. Open is the
// directory-scanning form rpserve uses.
func New(opts Options) *Catalog {
	return &Catalog{opts: opts, byDigest: make(map[string]*entry)}
}

// Open scans dir (non-recursively) for snapshot files and catalogs them
// by content digest. Files that are not snapshots are skipped; an
// unreadable file is an error. An empty catalog is an error — a serve
// tier with zero worlds is a misconfiguration.
func Open(dir string, opts Options) (*Catalog, error) {
	c := New(opts)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, de.Name())
		ok, err := snapshot.Sniff(path)
		if err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		if !ok {
			continue
		}
		if _, err := c.Add(path); err != nil {
			return nil, err
		}
	}
	if len(c.list) == 0 {
		return nil, fmt.Errorf("catalog: no snapshot files in %s", dir)
	}
	return c, nil
}

// Add catalogs one snapshot file by content digest and returns the
// digest. Re-adding identical content is a no-op; two files with the
// same digest are the same world.
func (c *Catalog) Add(path string) (string, error) {
	ok, err := snapshot.Sniff(path)
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	if !ok {
		return "", fmt.Errorf("catalog: %s is not a snapshot file", path)
	}
	digest, err := snapshot.DigestFile(path)
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byDigest[digest]; ok {
		return digest, nil
	}
	e := &entry{digest: digest, path: path, size: fi.Size()}
	c.byDigest[digest] = e
	c.list = append(c.list, e)
	sort.Slice(c.list, func(i, j int) bool { return c.list[i].path < c.list[j].path })
	return digest, nil
}

// OnAttach registers fn to run after every successful attach, before the
// world is published Ready — the serve tier materializes a snapshot's
// lazily-built caches here, once, so concurrent queries only ever read.
// The value fn returns belongs to that residency: every lease hands it
// out (Lease.Held), and eviction drops it with the snapshot. A hook
// failure counts as a transient attach failure (the attempt retries).
// Register before the first Acquire.
func (c *Catalog) OnAttach(fn func(*snapshot.Snapshot) (any, error)) {
	c.mu.Lock()
	c.onAttach = fn
	c.mu.Unlock()
}

// WorldInfo is a catalogued world's public state — the /v1/worlds row.
type WorldInfo struct {
	Digest string `json:"digest"`
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	State  string `json:"state"`
	Refs   int    `json:"refs"`
	Error  string `json:"error,omitempty"`
}

// Worlds lists every catalogued world, path-sorted.
func (c *Catalog) Worlds() []WorldInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorldInfo, len(c.list))
	for i, e := range c.list {
		out[i] = infoLocked(e)
	}
	return out
}

func infoLocked(e *entry) WorldInfo {
	wi := WorldInfo{
		Digest: e.digest, Path: e.path, Bytes: e.size,
		State: e.state.String(), Refs: e.refs,
	}
	if e.qerr != nil {
		wi.Error = e.qerr.Error()
	}
	return wi
}

// Lookup resolves a world key — a full digest or any unambiguous prefix;
// the empty key resolves iff the catalog holds exactly one world — to
// its current info, without attaching anything. It is how the serve
// layer names cache keys for worlds it has not (and may never) attach.
func (c *Catalog) Lookup(key string) (WorldInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.lookupLocked(key)
	if err != nil {
		return WorldInfo{}, err
	}
	return infoLocked(e), nil
}

func (c *Catalog) lookupLocked(key string) (*entry, error) {
	if key == "" {
		if len(c.list) == 1 {
			return c.list[0], nil
		}
		return nil, fmt.Errorf("%w: empty key with %d worlds (pass world=<digest prefix>)", ErrAmbiguous, len(c.list))
	}
	if e, ok := c.byDigest[key]; ok {
		return e, nil
	}
	var found *entry
	for _, e := range c.list {
		if len(key) <= len(e.digest) && e.digest[:len(key)] == key {
			if found != nil {
				return nil, fmt.Errorf("%w: prefix %q matches %s… and %s…", ErrAmbiguous, key, found.digest[:12], e.digest[:12])
			}
			found = e
		}
	}
	if found == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorld, key)
	}
	return found, nil
}

// Len returns the number of catalogued worlds.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.list)
}

// ResidentBytes returns the bytes currently attached (or attaching).
func (c *Catalog) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

// Budget returns the configured resident budget (0 = unlimited).
func (c *Catalog) Budget() int64 { return c.opts.ResidentBytes }

// Attaches returns the number of completed attach operations — the
// single-flight observability counter.
func (c *Catalog) Attaches() int64 { return c.attaches.Load() }

// Evictions returns the number of worlds evicted from residency.
func (c *Catalog) Evictions() int64 { return c.evictions.Load() }

// PinnedRefs sums outstanding lease refcounts — zero when every lease
// has been released (the chaos suite's drift assert).
func (c *Catalog) PinnedRefs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.list {
		n += e.refs
	}
	return n
}

// StateCounts returns how many worlds are in each health state — the
// readiness probe's input.
func (c *Catalog) StateCounts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, 4)
	for _, e := range c.list {
		out[e.state.String()]++
	}
	return out
}

// Lease is a refcounted pin on a resident world. The catalog never
// evicts a world with outstanding leases, so the snapshot and held value
// stay the residency's until Release.
type Lease struct {
	c    *Catalog
	e    *entry
	once sync.Once
}

// Snapshot returns the leased world's materialized snapshot.
func (l *Lease) Snapshot() *snapshot.Snapshot { return l.e.snap }

// Held returns the attach hook's value for the leased residency (nil
// without a hook).
func (l *Lease) Held() any { return l.e.held }

// Digest returns the leased world's content digest.
func (l *Lease) Digest() string { return l.e.digest }

// Release unpins the world. Idempotent.
func (l *Lease) Release() {
	l.once.Do(func() {
		c := l.c
		c.mu.Lock()
		l.e.refs--
		c.clock++
		l.e.lastUse = c.clock
		c.mu.Unlock()
	})
}

// Acquire leases the world named by key (see Lookup for key forms),
// attaching it on demand. Concurrent acquires of a cold world
// single-flight onto one attach. Under budget pressure the least
// recently used idle world is evicted first; if every resident world is
// pinned, Acquire fails fast with ErrNoSlot rather than queueing
// unboundedly — the caller owns admission policy.
func (c *Catalog) Acquire(ctx context.Context, key string) (*Lease, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		e, err := c.lookupLocked(key)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		switch e.state {
		case Quarantined:
			qerr := e.qerr
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %s (%s): %v", ErrQuarantined, e.digest[:12], e.path, qerr)
		case Ready:
			e.refs++
			c.clock++
			e.lastUse = c.clock
			c.mu.Unlock()
			return &Lease{c: c, e: e}, nil
		case Attaching:
			ch := e.attaching
			c.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue // re-examine the published state
		case Cold:
			if !c.makeRoomLocked(e.size) {
				resident := c.resident
				c.mu.Unlock()
				return nil, fmt.Errorf("%w: %d bytes resident of %d budget", ErrNoSlot, resident, c.opts.ResidentBytes)
			}
			e.state = Attaching
			e.attaching = make(chan struct{})
			c.resident += e.size
			c.mu.Unlock()
			if err := c.attachEntry(ctx, e); err != nil {
				// The leader surfaces its own attach failure; waiters loop
				// and either find the quarantine or elect a new leader.
				return nil, err
			}
			continue
		}
	}
}

// makeRoomLocked evicts idle worlds LRU-first until size fits the
// budget. It reports false when pinned worlds leave no room. A world
// larger than the whole budget is admitted only into an empty residency.
func (c *Catalog) makeRoomLocked(size int64) bool {
	budget := c.opts.ResidentBytes
	if budget <= 0 {
		return true
	}
	for c.resident+size > budget {
		var victim *entry
		for _, e := range c.list {
			if e.state != Ready || e.refs != 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return c.resident == 0
		}
		c.evictLocked(victim)
	}
	return true
}

// evictLocked returns a Ready, unreferenced world to Cold, dropping its
// snapshot and held value. Callers guarantee refs == 0.
func (c *Catalog) evictLocked(e *entry) {
	e.state = Cold
	e.snap, e.held = nil, nil
	c.resident -= e.size
	c.evictions.Add(1)
}

// attachEntry is the single-flight leader path: attach with bounded
// retries, publish the result, and wake the waiters. Ownership of the
// Attaching state (and the reserved resident bytes) is the leader's
// until it publishes Ready, Quarantined, or reverts to Cold.
func (c *Catalog) attachEntry(ctx context.Context, e *entry) error {
	var res residency
	err := fault.Retry(ctx, c.opts.AttachAttempts, c.opts.BackoffBase, c.opts.BackoffMax, e.digest,
		func(err error) bool { return !isCorruptErr(err) },
		func(int) (err error) {
			res, err = c.attachOnce(e)
			return err
		})
	switch {
	case err == nil:
		c.attaches.Add(1)
		c.publish(e, Ready, res, nil)
		return nil
	case isCorruptErr(err):
		c.publish(e, Quarantined, residency{}, err)
		return fmt.Errorf("%w: %s (%s): %v", ErrQuarantined, e.digest[:12], e.path, err)
	default:
		// A cancelled leader, or a transient failure that exhausted its
		// retries: back to Cold so a later acquire gets a fresh chance.
		c.publish(e, Cold, residency{}, nil)
		if err == ctx.Err() {
			return err
		}
		return fmt.Errorf("catalog: attach %s (%s): %w", e.digest[:12], e.path, err)
	}
}

// publish installs the attach outcome and wakes the waiters. Quarantined
// and Cold outcomes release the reserved resident bytes.
func (c *Catalog) publish(e *entry, state Health, res residency, qerr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.state = state
	e.snap, e.held = res.snap, res.held
	e.qerr = qerr
	if state != Ready {
		c.resident -= e.size
	}
	close(e.attaching)
	e.attaching = nil
}

// residency is what one successful attach installs on its entry.
type residency struct {
	snap *snapshot.Snapshot
	held any
}

// attachOnce performs one attach attempt, fault plane first: an
// injected delay, a corrupt read (quarantines, like a real CRC
// mismatch), or a transient failure (retries).
func (c *Catalog) attachOnce(e *entry) (residency, error) {
	p := c.opts.Faults
	p.Sleep(e.digest)
	if err := p.Err(fault.AttachCorrupt, e.digest); err != nil {
		return residency{}, err
	}
	if err := p.Err(fault.AttachFail, e.digest); err != nil {
		return residency{}, err
	}
	// Materialize eagerly: Ready must mean "usable snapshot", and the
	// per-section CRC sweep this triggers is what catches payload
	// corruption an attach-time directory check cannot.
	snap, err := snapshot.OpenFile(e.path)
	if err != nil {
		return residency{}, err
	}
	// The file is catalogued under the digest of the bytes Add read; a
	// file rewritten since then is another world, which must not answer
	// for this one.
	if snap.Digest != e.digest {
		return residency{}, fmt.Errorf("%w: %s holds world %s, catalogued as %s",
			errDigestMismatch, e.path, snap.Digest, e.digest)
	}
	c.mu.Lock()
	hook := c.onAttach
	c.mu.Unlock()
	var held any
	if hook != nil {
		if held, err = hook(snap); err != nil {
			return residency{}, fmt.Errorf("catalog: on-attach hook: %w", err)
		}
	}
	return residency{snap: snap, held: held}, nil
}

// errDigestMismatch marks a file whose content no longer hashes to the
// digest it was catalogued under.
var errDigestMismatch = errors.New("catalog: snapshot file changed under its digest")

// isCorruptErr classifies failures that quarantine (a damaged or
// foreign file, a file that changed under its digest, or an injected
// corrupt read) versus transient ones that retry.
func isCorruptErr(err error) bool {
	if cls, ok := fault.IsInjected(err); ok {
		return cls == fault.AttachCorrupt
	}
	return errors.Is(err, errDigestMismatch) ||
		errors.Is(err, snapshot.ErrCorrupt) ||
		errors.Is(err, snapshot.ErrTruncated) ||
		errors.Is(err, snapshot.ErrBadMagic) ||
		errors.Is(err, snapshot.ErrVersion)
}

// Close evicts every idle world and reports any still-pinned ones — a
// shutdown-hygiene check for tests and graceful drains.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var pinned []string
	for _, e := range c.list {
		switch {
		case e.state == Ready && e.refs == 0:
			c.evictLocked(e)
		case e.refs > 0:
			pinned = append(pinned, fmt.Sprintf("%s (refs %d)", e.digest[:12], e.refs))
		}
	}
	if len(pinned) > 0 {
		return fmt.Errorf("catalog: close with pinned worlds: %v", pinned)
	}
	return nil
}
