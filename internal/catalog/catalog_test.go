package catalog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"remotepeering/internal/fault"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/worldgen"
)

// The fixture: three small worlds saved once into a shared directory,
// plus a deliberately corrupted copy. Worlds are world-only snapshots —
// the catalog machinery is content-agnostic, so the cheapest possible
// files exercise all of it.
var (
	fixDir     string
	fixPaths   []string // w1.flat, w2.flat, w3.flat
	fixDigests []string
	fixBadPath string // corrupted copy of w1.flat
	fixNets    []int  // Graph.Len() per world, for identity checks
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "catalog-test-")
	if err != nil {
		panic(err)
	}
	fixDir = dir
	for i, seed := range []int64{11, 12, 13} {
		w, err := worldgen.Generate(worldgen.Config{Seed: seed, LeafNetworks: 1000 + 100*i})
		if err != nil {
			panic(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("w%d.flat", i+1))
		digest, err := snapshot.SaveFlatFile(path, &snapshot.Snapshot{World: w})
		if err != nil {
			panic(err)
		}
		fixPaths = append(fixPaths, path)
		fixDigests = append(fixDigests, digest)
		fixNets = append(fixNets, w.Graph.Len())
	}
	// A corrupted world: flip one byte inside the section directory of a
	// copy of w1, so attach fails its directory CRC deterministically.
	buf, err := os.ReadFile(fixPaths[0])
	if err != nil {
		panic(err)
	}
	bad := append([]byte(nil), buf...)
	bad[40] ^= 0xff
	fixBadPath = filepath.Join(dir, "bad.flat")
	if err := os.WriteFile(fixBadPath, bad, 0o644); err != nil {
		panic(err)
	}
	// A foreign file the directory scan must skip.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a snapshot\n"), 0o644); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func worldSize(t *testing.T, i int) int64 {
	t.Helper()
	fi, err := os.Stat(fixPaths[i])
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestOpenScanAndLookup(t *testing.T) {
	c, err := Open(fixDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 { // 3 good + 1 corrupted (corruption surfaces at attach, not scan)
		t.Fatalf("catalogued %d worlds, want 4", c.Len())
	}
	for i, digest := range fixDigests {
		wi, err := c.Lookup(digest)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", digest[:12], err)
		}
		if wi.Path != fixPaths[i] || wi.State != "cold" || wi.Refs != 0 {
			t.Errorf("world %d: %+v", i, wi)
		}
		// Any unambiguous prefix resolves (the full digests differ early).
		if wi2, err := c.Lookup(digest[:12]); err != nil || wi2.Digest != digest {
			t.Errorf("prefix lookup: %+v, %v", wi2, err)
		}
	}
	if _, err := c.Lookup("ffff_no_such_world"); !errors.Is(err, ErrUnknownWorld) {
		t.Errorf("unknown key: %v", err)
	}
	if _, err := c.Lookup(""); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("empty key over 4 worlds: %v", err)
	}

	// A single-world catalog resolves the empty key.
	c1 := New(Options{})
	if _, err := c1.Add(fixPaths[0]); err != nil {
		t.Fatal(err)
	}
	if wi, err := c1.Lookup(""); err != nil || wi.Digest != fixDigests[0] {
		t.Errorf("single-world empty key: %+v, %v", wi, err)
	}

	// Scanning an empty directory is a configuration error.
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("empty dir produced a catalog")
	}
}

// TestAcquireSingleFlight pins that N concurrent acquires of a cold
// world run one attach, and every lease sees the same snapshot.
func TestAcquireSingleFlight(t *testing.T) {
	c := New(Options{})
	digest, err := c.Add(fixPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	leases := make([]*Lease, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := c.Acquire(context.Background(), digest)
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			leases[i] = l
		}(i)
	}
	wg.Wait()
	if got := c.Attaches(); got != 1 {
		t.Errorf("%d concurrent acquires ran %d attaches, want 1", n, got)
	}
	for i, l := range leases {
		if l == nil {
			t.Fatalf("lease %d missing", i)
		}
		if l.Snapshot() != leases[0].Snapshot() {
			t.Errorf("lease %d got a different snapshot", i)
		}
		if l.Snapshot().Digest != digest {
			t.Errorf("lease %d digest %s, want %s", i, l.Snapshot().Digest[:12], digest[:12])
		}
		l.Release()
		l.Release() // idempotent
	}
	if refs := c.PinnedRefs(); refs != 0 {
		t.Errorf("refcount drift: %d pinned after all releases", refs)
	}
}

// TestLRUEvictionUnderBudget pins the residency policy: a budget of two
// worlds holds two, the third acquisition evicts the least recently
// used idle world, and a re-acquire of the evicted world re-attaches.
func TestLRUEvictionUnderBudget(t *testing.T) {
	budget := worldSize(t, 0) + worldSize(t, 1) + worldSize(t, 2)/2
	c := New(Options{ResidentBytes: budget})
	for i := 0; i < 3; i++ {
		if _, err := c.Add(fixPaths[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	use := func(i int) {
		t.Helper()
		l, err := c.Acquire(ctx, fixDigests[i])
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if got := l.Snapshot().World.Graph.Len(); got != fixNets[i] {
			t.Fatalf("world %d has %d networks, want %d", i, got, fixNets[i])
		}
		l.Release()
	}
	use(0)
	use(1)
	use(0) // w1 is now more recently used than w2
	if got := c.Evictions(); got != 0 {
		t.Fatalf("%d evictions before budget pressure", got)
	}
	use(2) // exceeds the budget: w2 (LRU) must go
	if got := c.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	st := map[string]string{}
	for _, wi := range c.Worlds() {
		st[wi.Digest] = wi.State
	}
	if st[fixDigests[0]] != "ready" || st[fixDigests[1]] != "cold" || st[fixDigests[2]] != "ready" {
		t.Errorf("states after eviction: %v", st)
	}
	attachesBefore := c.Attaches()
	use(1) // cold again: re-attach
	if got := c.Attaches(); got != attachesBefore+1 {
		t.Errorf("re-acquire of evicted world ran %d attaches", got-attachesBefore)
	}
	if c.ResidentBytes() > budget {
		t.Errorf("resident %d exceeds budget %d", c.ResidentBytes(), budget)
	}
}

// TestEvictionNeverTakesPinned pins refcount pinning: with the budget
// full of leased worlds, a new acquire sheds (ErrNoSlot) instead of
// evicting, and succeeds once the lease is released.
func TestEvictionNeverTakesPinned(t *testing.T) {
	c := New(Options{ResidentBytes: worldSize(t, 0) + worldSize(t, 1)/2})
	for i := 0; i < 2; i++ {
		if _, err := c.Add(fixPaths[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	l0, err := c.Acquire(ctx, fixDigests[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(ctx, fixDigests[1]); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("acquire over a pinned-full budget: %v, want ErrNoSlot", err)
	}
	l0.Release()
	l1, err := c.Acquire(ctx, fixDigests[1])
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	l1.Release()
	if got := c.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1 (w1, once idle)", got)
	}
}

// TestHeldValueLivesWithResidency pins the attach hook's per-residency
// value: every lease of one residency hands out the same value, eviction
// and Close drop it, and a re-attach installs a fresh one.
func TestHeldValueLivesWithResidency(t *testing.T) {
	c := New(Options{ResidentBytes: max(worldSize(t, 0), worldSize(t, 1))})
	for i := 0; i < 2; i++ {
		if _, err := c.Add(fixPaths[i]); err != nil {
			t.Fatal(err)
		}
	}
	attaches := 0
	c.OnAttach(func(*snapshot.Snapshot) (any, error) {
		attaches++
		return attaches, nil
	})
	held := func(i int) any {
		t.Helper()
		l, err := c.Acquire(context.Background(), fixDigests[i])
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release()
		return l.Held()
	}
	first := held(0)
	if first != 1 || held(0) != first {
		t.Fatalf("leases of one residency hold %v and %v, want 1 twice", first, held(0))
	}
	held(1) // over budget: evicts world 0
	if got := c.byDigest[fixDigests[0]].held; got != nil {
		t.Errorf("evicted world still holds %v", got)
	}
	if got := held(0); got != 3 {
		t.Errorf("re-attached world holds %v, want the fresh hook value 3", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range fixDigests[:2] {
		if got := c.byDigest[d].held; got != nil {
			t.Errorf("world %.12s holds %v after Close", d, got)
		}
	}
}

// TestQuarantineOnCorrupt pins that a damaged file is quarantined on
// first attach and refused thereafter without re-reading it.
func TestQuarantineOnCorrupt(t *testing.T) {
	c := New(Options{})
	digest, err := c.Add(fixBadPath)
	if err != nil {
		t.Fatal(err)
	}
	if digest == fixDigests[0] {
		t.Fatal("corrupted copy shares the original's digest")
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Acquire(context.Background(), digest); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("acquire %d of corrupt world: %v, want ErrQuarantined", i, err)
		}
	}
	if got := c.Attaches(); got != 0 {
		t.Errorf("corrupt world counted %d completed attaches", got)
	}
	wi, err := c.Lookup(digest)
	if err != nil {
		t.Fatal(err)
	}
	if wi.State != "quarantined" || wi.Error == "" {
		t.Errorf("quarantined world info: %+v", wi)
	}
	if c.ResidentBytes() != 0 {
		t.Errorf("quarantined world left %d resident bytes reserved", c.ResidentBytes())
	}

	// A snapshot from a retired container is catalogued (it is a
	// snapshot, not a foreign file) and quarantines with the version
	// error, so the operator sees why and regenerates it.
	retired := filepath.Join(t.TempDir(), "old.rpsnap")
	if err := os.WriteFile(retired, []byte("RPSNAP1\n\x00\x01 a retired stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := c.Add(retired)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(context.Background(), old); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("acquire of a retired snapshot: %v, want ErrQuarantined", err)
	}
	if wi, _ := c.Lookup(old); !strings.Contains(wi.Error, "regenerate") {
		t.Errorf("retired snapshot's quarantine reason %q gives no regeneration advice", wi.Error)
	}
}

// TestQuarantineOnDigestChange pins that a file overwritten after it was
// catalogued quarantines instead of answering for the world it replaced:
// a copy of w1 is catalogued, then rewritten with w2's bytes, and an
// acquire of w1's digest is refused with an error naming both digests,
// never a lease on w2's world.
func TestQuarantineOnDigestChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.flat")
	w1, err := os.ReadFile(fixPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	w2, err := os.ReadFile(fixPaths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, w1, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Options{})
	digest, err := c.Add(path)
	if err != nil {
		t.Fatal(err)
	}
	if digest != fixDigests[0] {
		t.Fatalf("copy of w1 catalogued as %s, want %s", digest[:12], fixDigests[0][:12])
	}
	if err := os.WriteFile(path, w2, 0o644); err != nil {
		t.Fatal(err)
	}
	lease, err := c.Acquire(context.Background(), digest)
	if err == nil {
		defer lease.Release()
		t.Fatalf("acquire of w1 leased a world of %d networks from a file now holding w2 (w1 has %d)",
			lease.Snapshot().World.Graph.Len(), fixNets[0])
	}
	if !errors.Is(err, ErrQuarantined) || !strings.Contains(err.Error(), errDigestMismatch.Error()) {
		t.Fatalf("acquire of a rewritten file: %v, want ErrQuarantined for %q", err, errDigestMismatch)
	}
	for _, d := range []string{fixDigests[0], fixDigests[1]} {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("quarantine error %q does not name digest %s", err, d[:12])
		}
	}
	if wi, _ := c.Lookup(digest); wi.State != "quarantined" {
		t.Errorf("rewritten world is %q, want quarantined", wi.State)
	}
	if c.Attaches() != 0 || c.ResidentBytes() != 0 {
		t.Errorf("rewritten world counted %d attaches and %d resident bytes, want 0 and 0", c.Attaches(), c.ResidentBytes())
	}
}

// TestTransientAttachFailureRetries pins the retry path: a plane that
// always fails attach surfaces the injected error and leaves the world
// Cold (not quarantined); a plane whose schedule clears within the
// attempt budget succeeds transparently.
func TestTransientAttachFailureRetries(t *testing.T) {
	alwaysFail := fault.New(fault.Config{Seed: 1, Rates: failRate(1)})
	c := New(Options{Faults: alwaysFail, BackoffBase: 1, BackoffMax: 2})
	digest, err := c.Add(fixPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Acquire(context.Background(), digest)
	if cls, ok := fault.IsInjected(err); !ok || cls != fault.AttachFail {
		t.Fatalf("acquire under fail=1: %v, want injected AttachFail", err)
	}
	if wi, _ := c.Lookup(digest); wi.State != "cold" {
		t.Errorf("world after transient failures: %s, want cold", wi.State)
	}

	// Pick a seed whose first AttachFail draws for this digest are not
	// all failures — then attach must succeed within the attempt budget.
	attempts := 4
	seed := int64(0)
	for ; ; seed++ {
		probe := fault.New(fault.Config{Seed: seed, Rates: failRate(0.5)})
		cleared := false
		for i := 0; i < attempts; i++ {
			if !probe.Should(fault.AttachFail, digest) {
				cleared = true
				break
			}
		}
		if cleared {
			break
		}
	}
	flaky := fault.New(fault.Config{Seed: seed, Rates: failRate(0.5)})
	c2 := New(Options{Faults: flaky, AttachAttempts: attempts, BackoffBase: 1, BackoffMax: 2})
	if _, err := c2.Add(fixPaths[0]); err != nil {
		t.Fatal(err)
	}
	l, err := c2.Acquire(context.Background(), digest)
	if err != nil {
		t.Fatalf("acquire under flaky attach: %v", err)
	}
	if l.Snapshot().World.Graph.Len() != fixNets[0] {
		t.Error("flaky-attach lease returned the wrong world")
	}
	l.Release()
}

// TestChurnRace drives concurrent acquire/evaluate/release cycles over
// all worlds through a one-world budget — constant eviction pressure
// racing attach and evaluation. Run under -race this pins the pinning
// discipline: no lease ever observes an evicted world, refcounts return
// to zero, and every lease sees its world's exact network count.
func TestChurnRace(t *testing.T) {
	budget := worldSize(t, 0) // fits roughly one world at a time
	c := New(Options{ResidentBytes: budget})
	for i := 0; i < 3; i++ {
		if _, err := c.Add(fixPaths[i]); err != nil {
			t.Fatal(err)
		}
	}
	const workers, iters = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % 3
				l, err := c.Acquire(context.Background(), fixDigests[i])
				if errors.Is(err, ErrNoSlot) {
					continue // admission shed; the next iteration retries
				}
				if err != nil {
					t.Errorf("worker %d iter %d: %v", g, it, err)
					return
				}
				// "Evaluate": touch the world through the lease. An eviction
				// racing this read would be a use-after-evict — the race
				// detector and the length check both catch it.
				if got := l.Snapshot().World.Graph.Len(); got != fixNets[i] {
					t.Errorf("worker %d iter %d: world %d read %d networks, want %d", g, it, i, got, fixNets[i])
				}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	if refs := c.PinnedRefs(); refs != 0 {
		t.Errorf("refcount drift after churn: %d", refs)
	}
	if c.Evictions() == 0 {
		t.Error("churn through a one-world budget never evicted")
	}
	if err := c.Close(); err != nil {
		t.Errorf("close after churn: %v", err)
	}
	if c.ResidentBytes() != 0 {
		t.Errorf("resident bytes after close: %d", c.ResidentBytes())
	}
}

func failRate(r float64) (rates fault.Rates) {
	rates[fault.AttachFail] = r
	return rates
}

// TestLookupResolutionTable pins the key-resolution precedence with
// synthetic entries (real digests are fixed-length, so only a synthetic
// catalog can exercise the exact-beats-prefix rule): an exact digest
// match wins outright, then a unique prefix; two matches are
// ErrAmbiguous, zero are ErrUnknownWorld, and the empty key resolves
// only a single-world catalog.
func TestLookupResolutionTable(t *testing.T) {
	const (
		dA  = "aaaa1111aaaa1111aaaa1111aaaa1111"
		dA2 = "aaaa2222aaaa2222aaaa2222aaaa2222"
		dB  = "bbbb1111bbbb1111bbbb1111bbbb1111"
		// dShort is both a catalogued digest AND a proper prefix of dA —
		// the collision the precedence rule exists for.
		dShort = "aaaa1111"
	)
	mk := func(digests ...string) *Catalog {
		c := New(Options{})
		for _, d := range digests {
			e := &entry{digest: d}
			c.byDigest[d] = e
			c.list = append(c.list, e)
		}
		return c
	}
	full := mk(dA, dA2, dB, dShort)
	cases := []struct {
		name string
		cat  *Catalog
		key  string
		want string // resolved digest, or "" when err is expected
		err  error
	}{
		{"exact full digest", full, dA, dA, nil},
		{"exact match beats prefix expansion", full, dShort, dShort, nil},
		{"unique prefix", full, "bb", dB, nil},
		{"longer unique prefix past a shorter world", full, "aaaa1111a", dA, nil},
		{"ambiguous prefix", full, "aaaa", "", ErrAmbiguous},
		{"ambiguous two-way prefix", full, "aaaa2", dA2, nil},
		{"unknown key", full, "ffff", "", ErrUnknownWorld},
		{"key longer than any digest", full, dA + "00", "", ErrUnknownWorld},
		{"empty key over many worlds", full, "", "", ErrAmbiguous},
		{"empty key over one world", mk(dB), "", dB, nil},
		{"empty key over zero worlds", mk(), "", "", ErrAmbiguous},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wi, err := c.cat.Lookup(c.key)
			if c.err != nil {
				if !errors.Is(err, c.err) {
					t.Fatalf("Lookup(%q) err = %v, want %v", c.key, err, c.err)
				}
				return
			}
			if err != nil || wi.Digest != c.want {
				t.Fatalf("Lookup(%q) = %q, %v; want %q", c.key, wi.Digest, err, c.want)
			}
		})
	}
}
