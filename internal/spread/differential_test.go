package spread_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/lg"
	"remotepeering/internal/scenario"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

// genCase is one generated splice check: a world, a campaign over a few
// IXPs, and membership ops applied to a clone. opts measures the
// perturbed world; sel is the selection over the original one.
type genCase struct {
	world, perturbed *worldgen.World
	sel              []int
	opts             spread.Options
	ops              []scenario.Op
	touched          map[int]bool
}

// generate draws a case from one seed: a world of 300–5,000 leaves, a
// short campaign over 2–5 studied IXPs, and 1–3 churn or outage ops at
// studied IXPs, applied to a clone. ok is false when the ops left every
// selected IXP dark (nothing to measure).
func generate(t *testing.T, seed int64) (c genCase, ok bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := worldgen.Generate(worldgen.Config{Seed: seed, LeafNetworks: 300 + rng.Intn(4701)})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sel := rng.Perm(w.NumStudied())[:2+rng.Intn(4)]
	key, err := spread.NewCampaignKey(w, seed, lg.Config{}, core.Config{}, sel)
	if err != nil {
		return c, false
	}
	c.world, c.sel = w, key.IXPs
	c.opts = spread.Options{
		Seed: seed,
		IXPs: key.IXPs,
		Campaign: lg.Config{
			Duration:  time.Duration(2+rng.Intn(7)) * 24 * time.Hour,
			PCHRounds: 1 + rng.Intn(3), RIPERounds: 1 + rng.Intn(3),
		},
	}
	for n := 1 + rng.Intn(3); len(c.ops) < n; {
		acr := w.IXPs[key.IXPs[rng.Intn(len(key.IXPs))]].Acronym
		if rng.Intn(3) == 0 {
			c.ops = append(c.ops, scenario.IXPOutage{IXP: acr})
		} else {
			c.ops = append(c.ops, scenario.MemberChurn{IXP: acr, Join: rng.Intn(6), Leave: rng.Intn(6)})
		}
	}
	es := &scenario.EvolveState{World: w.Clone()}
	d, err := scenario.ApplyOps(es, c.ops, stats.NewSource(seed).Split("ops"))
	if err != nil {
		t.Fatalf("seed %d: ops %v: %v", seed, c.ops, err)
	}
	c.perturbed = es.World
	c.touched = map[int]bool{}
	for _, acr := range d.Sims {
		if _, idx, err := es.World.IXPByAcronym(acr); err == nil {
			c.touched[idx] = true
		}
	}
	// An outage darkens its IXP; the campaign over the perturbed world
	// measures the selection's IXPs that still have targets.
	after, err := spread.NewCampaignKey(es.World, seed, lg.Config{}, core.Config{}, key.IXPs)
	if err != nil {
		return c, false
	}
	c.opts.IXPs = after.IXPs
	return c, true
}

// TestGeneratedSpliceMatchesFreshRun is the differential check of verdict
// splicing over generated inputs: a campaign over the perturbed world
// that splices the untouched IXPs' verdicts from the unperturbed
// campaign must equal a fresh campaign on Report, Validation and
// Observations, at workers 1 and 2. A failure names the seed that
// replays it.
func TestGeneratedSpliceMatchesFreshRun(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		c, ok := generate(t, seed)
		if !ok {
			continue
		}
		for _, workers := range []int{1, 2} {
			what := fmt.Sprintf("seed %d, workers %d, IXPs %v, ops %v", seed, workers, c.opts.IXPs, c.ops)
			base := c.opts
			base.Workers = workers
			base.IXPs = c.sel
			from, err := spread.Run(c.world, base)
			if err != nil {
				t.Fatalf("%s: base: %v", what, err)
			}
			opts := c.opts
			opts.Workers = workers
			fresh, err := spread.Run(c.perturbed, opts)
			if err != nil {
				t.Fatalf("%s: fresh: %v", what, err)
			}
			opts.Reuse = &spread.Reuse{From: from, Dirty: func(idx int) bool { return c.touched[idx] }}
			spliced, err := spread.Run(c.perturbed, opts)
			if err != nil {
				t.Fatalf("%s: spliced: %v", what, err)
			}
			if !reflect.DeepEqual(spliced.Report, fresh.Report) {
				t.Errorf("%s: Report differs", what)
			}
			if spliced.Validation != fresh.Validation || spliced.Observations != fresh.Observations {
				t.Errorf("%s: Validation %+v / %d observations, fresh %+v / %d", what,
					spliced.Validation, spliced.Observations, fresh.Validation, fresh.Observations)
			}
		}
	}
}
