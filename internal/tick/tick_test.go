package tick

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/fault"
	"remotepeering/internal/journal"
	"remotepeering/internal/lg"
	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/worldgen"
)

var (
	genesisOnce sync.Once
	genesisVal  *worldgen.World
	genesisErr  error
)

func genesis(t testing.TB) *worldgen.World {
	genesisOnce.Do(func() {
		genesisVal, genesisErr = worldgen.Generate(worldgen.Config{Seed: 11, LeafNetworks: 1200})
	})
	if genesisErr != nil {
		t.Fatal(genesisErr)
	}
	return genesisVal
}

// testConfig is a lively regime over a fast pipeline: every event kind
// fires within a short run, so the equivalence suite exercises churn,
// outages, and all three walks.
func testConfig(workers int) Config {
	return Config{
		Seed:            7,
		ChurnIXPs:       2,
		ChurnJoins:      3,
		ChurnLeaves:     2,
		TrafficDrift:    0.05,
		DiurnalDrift:    0.5,
		PriceDrift:      0.02,
		OutageRate:      0.3,
		CheckpointEvery: 4,
		Pipeline: scenario.Options{
			MeasureSeed: 2, TrafficSeed: 3,
			CoverageIXPs: 3, GreedyIXPs: 8, Intervals: 96,
			Workers: workers,
		},
	}
}

// stateDigest is the byte-level fingerprint the equivalence suite pins:
// the engine's full durable state — world, tick, traffic regime, price
// vector — through the deterministic snapshot codec.
func stateDigest(t testing.TB, e *Engine) string {
	t.Helper()
	tr, ec := e.Regime()
	s := &snapshot.Snapshot{
		World: e.World(),
		Tick:  &snapshot.TickState{Tick: e.Tick(), Seed: 7, Traffic: tr, Econ: ec},
	}
	digest, err := snapshot.WriteFlat(io.Discard, s)
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// TestReplayEquivalence is the tentpole property: the world at tick N is
// byte-identical across (a) live runs at any worker count, (b) a
// per-tick replay of the journal from genesis, (c) a world-only replay
// with one final evaluation, and (d) crash-recovery from the nearest
// checkpoint plus tail replay — including after recovery resumes
// advancing.
func TestReplayEquivalence(t *testing.T) {
	const ticks = 10
	w := genesis(t)
	ctx := context.Background()
	dir := t.TempDir()

	live, err := Open(ctx, dir, w, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.AdvanceTo(ctx, ticks); err != nil {
		t.Fatal(err)
	}
	wantDigest := stateDigest(t, live)
	wantHist := live.Since(0)
	wantMetrics := live.Metrics()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// The regime must actually have fired events of each kind, or the
	// equivalence below proves much less than it claims.
	var sawChurn, sawOutage, sawTraffic bool
	for _, r := range wantHist {
		for _, ev := range r.Events {
			switch {
			case len(ev) > 5 && ev[:5] == "churn":
				sawChurn = true
			case len(ev) > 6 && ev[:6] == "outage":
				sawOutage = true
			case len(ev) > 7 && ev[:7] == "traffic":
				sawTraffic = true
			}
		}
	}
	if !sawChurn || !sawOutage || !sawTraffic {
		t.Fatalf("regime too quiet (churn=%v outage=%v traffic=%v) — pick a livelier seed", sawChurn, sawOutage, sawTraffic)
	}

	c, err := journal.Read(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if c.LastTick() != ticks || len(c.Records) != ticks {
		t.Fatalf("journal holds %d records to tick %d, want %d", len(c.Records), c.LastTick(), ticks)
	}
	if len(c.Checkpoints) != 2 {
		t.Fatalf("got %d checkpoints, want 2 (every 4 ticks)", len(c.Checkpoints))
	}

	// (a) Live runs, no journal, varying worker counts.
	for _, workers := range []int{1, 2, 8} {
		e, err := New(ctx, w, testConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.AdvanceTo(ctx, ticks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := stateDigest(t, e); d != wantDigest {
			t.Errorf("workers=%d: state digest %.12s, want %.12s", workers, d, wantDigest)
		}
		if !reflect.DeepEqual(e.Since(0), wantHist) {
			t.Errorf("workers=%d: history differs from reference run", workers)
		}
	}

	// (b) Genesis replay, evaluating every tick: identical history.
	re, err := Replay(ctx, w, testConfig(2), c.Records, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := stateDigest(t, re); d != wantDigest {
		t.Errorf("per-tick replay digest %.12s, want %.12s", d, wantDigest)
	}
	if !reflect.DeepEqual(re.Since(0), wantHist) {
		t.Error("per-tick replay history differs from live run")
	}

	// (c) Genesis replay, world-only with one final evaluation.
	rf, err := Replay(ctx, w, testConfig(0), c.Records, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := stateDigest(t, rf); d != wantDigest {
		t.Errorf("world-only replay digest %.12s, want %.12s", d, wantDigest)
	}
	if !reflect.DeepEqual(rf.Metrics(), wantMetrics) {
		t.Errorf("world-only replay metrics %+v, want %+v", rf.Metrics(), wantMetrics)
	}

	// (d) Recovery — nil genesis regenerates the world from the recorded
	// recipe, the tick-8 checkpoint attaches, ticks 9-10 replay — then
	// both the recovered engine and an uninterrupted run advance to 15.
	rec, err := Open(ctx, dir, nil, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tick() != ticks {
		t.Fatalf("recovered engine at tick %d, want %d", rec.Tick(), ticks)
	}
	if d := stateDigest(t, rec); d != wantDigest {
		t.Errorf("recovered digest %.12s, want %.12s", d, wantDigest)
	}
	if !reflect.DeepEqual(rec.Metrics(), wantMetrics) {
		t.Errorf("recovered metrics %+v, want %+v", rec.Metrics(), wantMetrics)
	}
	if _, err := rec.AdvanceTo(ctx, 15); err != nil {
		t.Fatal(err)
	}
	recDigest := stateDigest(t, rec)
	recMetrics := rec.Metrics()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	unint, err := New(ctx, w, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unint.AdvanceTo(ctx, 15); err != nil {
		t.Fatal(err)
	}
	if d := stateDigest(t, unint); d != recDigest {
		t.Errorf("resumed run diverged from uninterrupted run at tick 15: %.12s vs %.12s", recDigest, d)
	}
	if !reflect.DeepEqual(unint.Metrics(), recMetrics) {
		t.Errorf("resumed metrics %+v, uninterrupted %+v", recMetrics, unint.Metrics())
	}

	// A damaged newest checkpoint must fall back to an older one; with
	// every checkpoint gone, recovery replays from genesis. Both land on
	// the same bytes.
	entries, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.flat"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint files found: %v", err)
	}
	newest := entries[len(entries)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged, err := Open(ctx, dir, w, testConfig(0))
	if err != nil {
		t.Fatalf("recovery with damaged checkpoint: %v", err)
	}
	if d := stateDigest(t, damaged); damaged.Tick() != 15 || d != recDigest {
		t.Errorf("damaged-checkpoint recovery: tick %d digest %.12s, want 15 %.12s", damaged.Tick(), d, recDigest)
	}
	damaged.Close()

	for _, f := range entries {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	fromGenesis, err := Open(ctx, dir, w, testConfig(0))
	if err != nil {
		t.Fatalf("recovery with no checkpoints: %v", err)
	}
	if d := stateDigest(t, fromGenesis); fromGenesis.Tick() != 15 || d != recDigest {
		t.Errorf("genesis-replay recovery: tick %d digest %.12s, want 15 %.12s", fromGenesis.Tick(), d, recDigest)
	}
	fromGenesis.Close()
}

// TestResumeAcrossWorldWorkers pins that a world's worker count is not
// part of its identity: a journal grown from a genesis generated with
// Workers 1 resumes over the same world generated with Workers 2, lands
// on exactly the bytes of an uninterrupted run, and records a recipe
// without the runtime knob.
func TestResumeAcrossWorldWorkers(t *testing.T) {
	gen := func(workers int) *worldgen.World {
		w, err := worldgen.Generate(worldgen.Config{Seed: 11, LeafNetworks: 1200, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ctx := context.Background()
	dir := t.TempDir()

	first, err := Open(ctx, dir, gen(1), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.AdvanceTo(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := Open(ctx, dir, gen(2), testConfig(0))
	if err != nil {
		t.Fatalf("resume over the same world at another worker count: %v", err)
	}
	if _, err := resumed.AdvanceTo(ctx, 7); err != nil {
		t.Fatal(err)
	}
	got := stateDigest(t, resumed)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}

	unint, err := New(ctx, gen(1), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unint.AdvanceTo(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if want := stateDigest(t, unint); got != want {
		t.Errorf("resumed state digest %.12s, uninterrupted %.12s", got, want)
	}

	c, err := journal.Read(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	var hdr header
	if err := json.Unmarshal(c.Header, &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.World.Workers != 0 {
		t.Errorf("journal header records world Workers %d; runtime knobs stay out of the recipe", hdr.World.Workers)
	}
}

// TestAtomicRollbackUnderChaos pins the satellite invariant: a panic
// injected mid-tick rolls the engine back to its pre-tick state with the
// journal unchanged, and — whether absorbed by retries or surfaced to the
// caller — the committed timeline stays byte-identical to a fault-free
// run.
func TestAtomicRollbackUnderChaos(t *testing.T) {
	const ticks = 6
	w := genesis(t)
	ctx := context.Background()

	clean, err := New(ctx, w, testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.AdvanceTo(ctx, ticks); err != nil {
		t.Fatal(err)
	}
	want := stateDigest(t, clean)

	// Retries absorb a high panic rate invisibly.
	cfg := testConfig(2)
	cfg.Pipeline.FaultKey = "tick-chaos"
	cfg.Pipeline.CellAttempts = 12
	var rates fault.Rates
	rates[fault.EvalPanic] = 0.45
	cfg.Pipeline.Faults = fault.New(fault.Config{Seed: 1, Rates: rates})
	dir := t.TempDir()
	e, err := Open(ctx, dir, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdvanceTo(ctx, ticks); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if d := stateDigest(t, e); d != want {
		t.Errorf("chaos run digest %.12s differs from fault-free %.12s", d, want)
	}
	if cfg.Pipeline.Faults.Injected(fault.EvalPanic) == 0 {
		t.Error("no panics injected — the test proved nothing")
	}
	e.Close()
	if c, err := journal.Read(filepath.Join(dir, JournalFile)); err != nil || len(c.Records) != ticks {
		t.Fatalf("chaos journal: err=%v records=%d, want %d — a crashed attempt leaked a record", err, len(c.Records), ticks)
	}

	// With retries disabled, every injected panic surfaces — and must
	// leave the engine exactly where it was, with nothing journaled.
	cfg2 := testConfig(0)
	cfg2.Pipeline.FaultKey = "tick-rollback"
	cfg2.Pipeline.CellAttempts = 1
	var rates2 fault.Rates
	rates2[fault.EvalPanic] = 0.5
	cfg2.Pipeline.Faults = fault.New(fault.Config{Seed: 3, Rates: rates2})
	dir2 := t.TempDir()
	path2 := filepath.Join(dir2, JournalFile)
	e2, err := Open(ctx, dir2, w, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for e2.Tick() < ticks {
		before := e2.Tick()
		if _, err := e2.Advance(ctx); err != nil {
			fails++
			var pe *fault.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("expected a wrapped *fault.PanicError, got %v", err)
			}
			if e2.Tick() != before {
				t.Fatalf("failed tick moved the engine: %d -> %d", before, e2.Tick())
			}
			if c, rerr := journal.Read(path2); rerr != nil || c.LastTick() != before {
				t.Fatalf("journal recorded a half-applied tick: err=%v last=%d engine=%d", rerr, c.LastTick(), before)
			}
			if fails > 200 {
				t.Fatal("fault plane never lets a tick through")
			}
		}
	}
	if fails == 0 {
		t.Error("no failures surfaced — the test proved nothing")
	}
	if d := stateDigest(t, e2); d != want {
		t.Errorf("post-rollback timeline digest %.12s differs from fault-free %.12s", d, want)
	}
	e2.Close()
	if c, err := journal.Read(path2); err != nil || len(c.Records) != ticks {
		t.Fatalf("rollback journal: err=%v records=%d, want %d", err, len(c.Records), ticks)
	}
}

// TestOpenErrors pins the failure modes of attaching to an evolution
// directory: all typed or descriptive errors, never panics.
func TestOpenErrors(t *testing.T) {
	ctx := context.Background()
	w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 300})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 3, Pipeline: scenario.Options{
		MeasureSeed: 2, TrafficSeed: 3, CoverageIXPs: 2, GreedyIXPs: 4, Intervals: 24,
	}}

	if _, err := Open(ctx, t.TempDir(), nil, cfg); err == nil {
		t.Error("fresh dir with nil genesis should fail")
	}

	// A journal grown from one world rejects a different one.
	dir := t.TempDir()
	e, err := Open(ctx, dir, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	other, err := worldgen.Generate(worldgen.Config{Seed: 6, LeafNetworks: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, dir, other, cfg); err == nil {
		t.Error("mismatched genesis world should fail")
	}

	// A record gap in an otherwise-valid journal is corruption.
	gapDir := t.TempDir()
	digest, err := snapshot.WorldDigest(w)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := json.Marshal(header{World: w.Cfg, GenesisDigest: digest, Seed: 3,
		MeasureSeed: 2, TrafficSeed: 3, Intervals: 24, CoverageIXPs: 2, GreedyIXPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := journal.Create(filepath.Join(gapDir, JournalFile), hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journal.Record{Tick: 2, StreamKey: "apply-2"}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if _, err := Open(ctx, gapDir, w, cfg); !errors.Is(err, journal.ErrCorrupt) {
		t.Errorf("journal gap: err = %v, want ErrCorrupt", err)
	}

	// A header recording a regime the engine refuses is refused at Open:
	// the timeline it defines could stop for good or fail to recover.
	refusedDir := t.TempDir()
	refused, err := json.Marshal(header{World: w.Cfg, GenesisDigest: digest, Seed: 3, TrafficDrift: 1.5,
		MeasureSeed: 2, TrafficSeed: 3, Intervals: 24, CoverageIXPs: 2, GreedyIXPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	jr, err = journal.Create(filepath.Join(refusedDir, JournalFile), refused)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if _, err := Open(ctx, refusedDir, w, cfg); err == nil || !strings.Contains(err.Error(), "traffic must be") {
		t.Errorf("journal with a refused regime: err = %v, want a traffic range error", err)
	}

	// A record carrying an unparsable event is surfaced, not applied.
	badDir := t.TempDir()
	jr, err = journal.Create(filepath.Join(badDir, JournalFile), hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journal.Record{Tick: 1, StreamKey: "apply-1", Events: []string{"no-such-op:1"}}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if _, err := Open(ctx, badDir, w, cfg); err == nil {
		t.Error("unparsable journal event should fail recovery")
	}
}

// TestDiurnalDriftBoundRecovers covers the diurnal bound from inside: a
// journal opened with the largest diurnal drift validate accepts commits
// phase shifts the journal parses back, so it reopens at the same tick
// and regime.
func TestDiurnalDriftBoundRecovers(t *testing.T) {
	ctx := context.Background()
	w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 300})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 3, DiurnalDrift: maxDiurnalDrift, Pipeline: scenario.Options{
		MeasureSeed: 2, TrafficSeed: 3, CoverageIXPs: 2, GreedyIXPs: 4, Intervals: 24,
	}}
	dir := t.TempDir()
	e, err := Open(ctx, dir, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdvanceTo(ctx, 3); err != nil {
		t.Fatal(err)
	}
	tr, ec := e.Regime()
	if tr.PhaseHours == 0 {
		t.Fatal("three ticks of diurnal drift left the phase at 0")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(ctx, dir, nil, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	rtr, rec := r.Regime()
	if r.Tick() != 3 || !reflect.DeepEqual(rtr, tr) || !reflect.DeepEqual(rec, ec) {
		t.Errorf("reopened at tick %d with regime %+v %+v, want tick 3 with %+v %+v", r.Tick(), rtr, rec, tr, ec)
	}
}

// TestNewspaper pins the digest view's accounting over a small world.
func TestNewspaper(t *testing.T) {
	ctx := context.Background()
	w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 300})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed: 4, ChurnIXPs: 1, ChurnJoins: 3, ChurnLeaves: 2,
		TrafficDrift: 0.05,
		Pipeline: scenario.Options{
			MeasureSeed: 2, TrafficSeed: 3, CoverageIXPs: 2, GreedyIXPs: 4, Intervals: 24,
		},
	}
	e, err := New(ctx, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdvanceTo(ctx, 5); err != nil {
		t.Fatal(err)
	}
	np := e.Newspaper(0)
	if np.From != 0 || np.To != 5 || np.Ticks != 5 {
		t.Errorf("window = %d..%d over %d ticks, want 0..5 over 5", np.From, np.To, np.Ticks)
	}
	events := 0
	for _, r := range e.Since(0) {
		events += len(r.Events)
	}
	if np.Events != events {
		t.Errorf("counted %d events, history holds %d", np.Events, events)
	}
	if np.Events > 0 && len(np.ByKind) == 0 {
		t.Error("events happened but ByKind is empty")
	}
	if !reflect.DeepEqual(np.Latest, e.Metrics()) {
		t.Error("Latest differs from engine metrics")
	}
	text := np.String()
	if !strings.Contains(text, "THE LIVING WORLD — tick 5") || !strings.Contains(text, "viable=") {
		t.Errorf("digest text missing expected lines:\n%s", text)
	}
	// A two-tick window is a strict subset.
	sub := e.Newspaper(2)
	if sub.From != 3 || sub.To != 5 || sub.Ticks != 2 || sub.Events > np.Events {
		t.Errorf("windowed digest wrong: %+v", sub)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Error("empty spec should be DefaultConfig")
	}

	cfg, err = ParseConfig("seed=9, joins=5,leaves=1,churn-ixps=3,traffic=0.1,outage=0.2,checkpoint=8,mseed=4,tseed=5,intervals=48,days=2,k=4,greedy=12")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.ChurnJoins != 5 || cfg.ChurnLeaves != 1 || cfg.ChurnIXPs != 3 {
		t.Errorf("churn knobs wrong: %+v", cfg)
	}
	if cfg.TrafficDrift != 0.1 || cfg.OutageRate != 0.2 || cfg.CheckpointEvery != 8 {
		t.Errorf("drift knobs wrong: %+v", cfg)
	}
	if cfg.Pipeline.MeasureSeed != 4 || cfg.Pipeline.TrafficSeed != 5 || cfg.Pipeline.Intervals != 48 {
		t.Errorf("pipeline seeds wrong: %+v", cfg.Pipeline)
	}
	if cfg.Pipeline.Campaign.Duration.Hours() != 48 || cfg.Pipeline.CoverageIXPs != 4 || cfg.Pipeline.GreedyIXPs != 12 {
		t.Errorf("pipeline depth wrong: %+v", cfg.Pipeline)
	}
	// Unparsed knobs keep their defaults.
	if cfg.DiurnalDrift != DefaultConfig().DiurnalDrift {
		t.Errorf("diurnal drift should default, got %v", cfg.DiurnalDrift)
	}

	cfg, err = ParseConfig("fsync=off")
	if err != nil || cfg.Fsync != journal.SyncOff {
		t.Errorf("fsync=off: cfg.Fsync = %v, err = %v", cfg.Fsync, err)
	}
	if cfg, err = ParseConfig(""); err != nil || cfg.Fsync != journal.SyncCommit {
		t.Errorf("default Fsync = %v (err %v), want SyncCommit", cfg.Fsync, err)
	}

	for _, bad := range []string{"seed", "seed=x", "nope=1", "traffic=high", "fsync=always"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}

	// Negative knobs must be rejected up front — "joins=-1,leaves=2" would
	// otherwise hand Intn a non-positive bound and panic the first Advance.
	for _, bad := range []string{
		"joins=-1,leaves=2", "leaves=-1", "churn-ixps=-2",
		"traffic=-0.1", "diurnal=-0.25", "price=-0.01", "outage=-0.5",
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("negative spec %q should fail", bad)
		}
	}
	if _, err := newEngine(genesis(t), Config{ChurnIXPs: 1, ChurnJoins: -1}); err == nil {
		t.Error("newEngine should reject a negative churn knob")
	}

	// A greedy depth of 1 leaves every decay fit one point, so genesis
	// could only fail: the parser and the engine refuse it up front.
	if _, err := ParseConfig("greedy=1"); err == nil {
		t.Error("spec greedy=1 should fail")
	}
	one := DefaultConfig()
	one.Pipeline.GreedyIXPs = 1
	if _, err := newEngine(genesis(t), one); err == nil {
		t.Error("newEngine should reject a greedy depth of 1")
	}
}

// TestParseConfigRejectsMalformed pins whole-value parsing and the count
// bounds: a trailing byte, a second number, an exponent where a count
// belongs, a day count whose campaign would overflow time.Duration, and a
// negative count are each a "bad <key> value" error, never a silently
// truncated or wrapped knob.
func TestParseConfigRejectsMalformed(t *testing.T) {
	for _, c := range []struct{ spec, key string }{
		{"joins=3x", "joins"},
		{"traffic=0.5.5", "traffic"},
		{"seed=7 8", "seed"},
		{"greedy=1e3", "greedy"},
		{"days=213504", "days"},
		{"days=106752", "days"},
		{"days=-3", "days"},
		{"checkpoint=-5", "checkpoint"},
		{"k=-2", "k"},
		{"intervals=-1", "intervals"},
		{"greedy=-1", "greedy"},
		{"outage=NaN", "outage"},
		{"diurnal=Inf", "diurnal"},
	} {
		_, err := ParseConfig(c.spec)
		if err == nil || !strings.Contains(err.Error(), "tick: bad "+c.key+" value") {
			t.Errorf("ParseConfig(%q) = %v, want a bad %s value error", c.spec, err, c.key)
		}
	}

	// A regime that parses but cannot run is refused whole, by the parser
	// and by the engine: a traffic or price drift of 1 or more can draw a
	// step factor of zero or below, which stops the timeline for good, and
	// a diurnal drift past a week can draw a shift the journal cannot
	// parse back.
	for _, c := range []struct {
		spec, key string
		set       func(*Config)
	}{
		{"traffic=1", "traffic", func(c *Config) { c.TrafficDrift = 1 }},
		{"traffic=1.5", "traffic", func(c *Config) { c.TrafficDrift = 1.5 }},
		{"price=1", "price", func(c *Config) { c.PriceDrift = 1 }},
		{"diurnal=169", "diurnal", func(c *Config) { c.DiurnalDrift = 169 }},
	} {
		if _, err := ParseConfig(c.spec); err == nil || !strings.Contains(err.Error(), "tick: "+c.key+" must be") {
			t.Errorf("ParseConfig(%q) = %v, want a %s range error", c.spec, err, c.key)
		}
		cfg := DefaultConfig()
		c.set(&cfg)
		if _, err := newEngine(genesis(t), cfg); err == nil {
			t.Errorf("newEngine accepted the regime %s", c.spec)
		}
	}

	// The bounds themselves parse.
	if _, err := ParseConfig(fmt.Sprintf("traffic=0.999,price=0.999,diurnal=%d", maxDiurnalDrift)); err != nil {
		t.Errorf("drifts just inside their bounds: %v", err)
	}
	cfg, err := ParseConfig(fmt.Sprintf("days=%d,checkpoint=0,intervals=0,k=0,greedy=0", lg.MaxDays))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(lg.MaxDays) * 24 * time.Hour; cfg.Pipeline.Campaign.Duration != want {
		t.Errorf("days=%d: duration %v, want %v", lg.MaxDays, cfg.Pipeline.Campaign.Duration, want)
	}

	// CI's tick-replay spec parses to the configuration it always has.
	cfg, err = ParseConfig("seed=7,joins=3,leaves=2,traffic=0.03,outage=0.05,checkpoint=8,intervals=48,k=2,greedy=4")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.Seed = 7
	want.ChurnJoins, want.ChurnLeaves = 3, 2
	want.TrafficDrift, want.OutageRate = 0.03, 0.05
	want.CheckpointEvery = 8
	want.Pipeline.Intervals, want.Pipeline.CoverageIXPs, want.Pipeline.GreedyIXPs = 48, 2, 4
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("CI spec parsed to %+v, want %+v", cfg, want)
	}
}
