package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestNilPlaneIsDisabled pins the production contract: every method on a
// nil *Plane reports "no fault".
func TestNilPlaneIsDisabled(t *testing.T) {
	var p *Plane
	if p.Should(EvalPanic, "k") {
		t.Error("nil plane fired")
	}
	if err := p.Err(AttachFail, "k"); err != nil {
		t.Errorf("nil plane injected %v", err)
	}
	p.Sleep("k")   // must not panic
	p.PanicIf("k") // must not panic
	if p.Injected(EvalPanic) != 0 || p.InjectedTotal() != 0 {
		t.Error("nil plane counted injections")
	}
}

// TestDeterministicSchedule pins that two planes with the same seed fire
// identically over the same draw sequence, and a different seed differs
// somewhere.
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed int64) []bool {
		p := New(Config{Seed: seed, Rates: rates(EvalPanic, 0.4)})
		out := make([]bool, 200)
		for i := range out {
			out[i] = p.Should(EvalPanic, fmt.Sprintf("key-%d", i%7))
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
}

// TestRateIsRespected checks the empirical rate lands near the configured
// one (the draw is a hash, not a real RNG, so the tolerance is loose).
func TestRateIsRespected(t *testing.T) {
	for _, rate := range []float64{0, 0.25, 1} {
		p := New(Config{Seed: 7, Rates: rates(CacheFail, rate)})
		fired := 0
		const n = 2000
		for i := 0; i < n; i++ {
			if p.Should(CacheFail, fmt.Sprintf("q-%d", i)) {
				fired++
			}
		}
		got := float64(fired) / n
		if got < rate-0.05 || got > rate+0.05 {
			t.Errorf("rate %v: fired %v", rate, got)
		}
		if int64(fired) != p.Injected(CacheFail) {
			t.Errorf("rate %v: counter %d, fired %d", rate, p.Injected(CacheFail), fired)
		}
	}
}

func TestErrAndPanicCarryClass(t *testing.T) {
	p := New(Config{Seed: 1, Rates: rates(AttachCorrupt, 1)})
	err := p.Err(AttachCorrupt, "w1")
	if err == nil {
		t.Fatal("rate-1 class did not fire")
	}
	if c, ok := IsInjected(fmt.Errorf("attach: %w", err)); !ok || c != AttachCorrupt {
		t.Errorf("IsInjected(wrapped) = %v, %v", c, ok)
	}
	if c, ok := IsInjected(errors.New("real failure")); ok {
		t.Errorf("real error classified as injected %v", c)
	}

	pp := New(Config{Seed: 1, Rates: rates(EvalPanic, 1)})
	defer func() {
		r := recover()
		inj, ok := r.(*Injected)
		if !ok || inj.Class != EvalPanic {
			t.Errorf("recovered %#v, want *Injected{EvalPanic}", r)
		}
	}()
	pp.PanicIf("cell-0")
	t.Fatal("PanicIf at rate 1 did not panic")
}

func TestParse(t *testing.T) {
	p, err := Parse("seed=42,slow=0.5,fail=0.25,corrupt=0.1,panic=0.2,cachefail=1,delay=3ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Seed != 42 || p.cfg.Delay != 3*time.Millisecond {
		t.Errorf("cfg = %+v", p.cfg)
	}
	want := [numClasses]float64{0.5, 0.25, 0.1, 0.2, 1}
	if p.cfg.Rates != want {
		t.Errorf("rates = %v, want %v", p.cfg.Rates, want)
	}
	for _, bad := range []string{"", "panic", "panic=2", "bogus=0.5", "seed=x", "delay=fast"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestBackoffDeterministicCapped pins the retry-delay policy: same
// (key, attempt) same delay, growth with attempts, and the cap.
func TestBackoffDeterministicCapped(t *testing.T) {
	base, max := 4*time.Millisecond, 64*time.Millisecond
	if a, b := Backoff(base, max, "q", 2), Backoff(base, max, "q", 2); a != b {
		t.Errorf("same attempt drew %v then %v", a, b)
	}
	if a, b := Backoff(base, max, "q", 0), Backoff(base, max, "q", 1); a == b {
		t.Errorf("attempts 0 and 1 drew the same %v", a)
	}
	for attempt := 0; attempt < 40; attempt++ {
		d := Backoff(base, max, "q", attempt)
		if d <= 0 || d > max*3/2 {
			t.Fatalf("attempt %d: delay %v out of (0, 1.5·max]", attempt, d)
		}
	}
}

func rates(c Class, r float64) [numClasses]float64 {
	var out [numClasses]float64
	out[c] = r
	return out
}

// TestNetworkClassesParse pins the -chaos spellings of the fleet's
// network fault classes.
func TestNetworkClassesParse(t *testing.T) {
	p, err := Parse("seed=9,conndrop=0.2,netdelay=0.3,partition=0.4,slownode=0.5,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range map[Class]float64{ConnDrop: 0.2, NetDelay: 0.3, Partition: 0.4, SlowNode: 0.5} {
		if got := p.cfg.Rates[c]; got != want {
			t.Errorf("%s rate = %v, want %v", c, got, want)
		}
	}
	for c, name := range map[Class]string{ConnDrop: "conndrop", NetDelay: "netdelay", Partition: "partition", SlowNode: "slownode"} {
		if c.String() != name {
			t.Errorf("class %d String() = %q, want %q", c, c.String(), name)
		}
	}
}

// TestStickyShould pins the per-node semantics of Partition/SlowNode: the
// first draw decides a key, every later call returns the same answer, and
// the decision is deterministic in the seed. A nil plane never fires.
func TestStickyShould(t *testing.T) {
	var nilPlane *Plane
	if nilPlane.StickyShould(Partition, "n") {
		t.Fatal("nil plane fired")
	}
	p := New(Config{Seed: 42, Rates: rates(Partition, 0.5)})
	q := New(Config{Seed: 42, Rates: rates(Partition, 0.5)})
	decided := map[string]bool{}
	for _, node := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		first := p.StickyShould(Partition, node)
		if q.StickyShould(Partition, node) != first {
			t.Errorf("node %s: same seed drew different sticky answers", node)
		}
		decided[node] = first
	}
	// Stability: repeated calls — including ones that would draw a
	// different value from the per-draw stream — keep the first answer.
	for i := 0; i < 10; i++ {
		for node, want := range decided {
			if got := p.StickyShould(Partition, node); got != want {
				t.Fatalf("node %s flipped from %v to %v on call %d", node, want, got, i)
			}
		}
	}
	any, all := false, true
	for _, v := range decided {
		any = any || v
		all = all && v
	}
	if !any || all {
		t.Errorf("rate 0.5 over 8 nodes decided %v — want a mix", decided)
	}
}
