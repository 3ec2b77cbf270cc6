package remotepeering

// The campaign-digest suite pins the simulator's raw output: the exact
// observation stream a campaign produces, IXP by IXP, for a handful of
// generated worlds, evolved worlds and the layer-3 visibility probe. The
// equivalence goldens pin Section 4 and lg's golden pins only the CSV
// format; this file is what catches a simulator change that moves a
// single RTT.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/lg"
	"remotepeering/internal/scenario"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

var updateCampaignDigests = flag.Bool("update-campaign-digests", false,
	"rewrite testdata/campaign_digests.json from the current simulator")

const campaignDigestsPath = "testdata/campaign_digests.json"

// campaignDigest is one pinned campaign: the SHA-256 of lg.WriteCSV over
// each measured IXP's segment of Raw (keyed "<index> <acronym>") and over
// all of Raw, plus the detector's Table 1 and validation counts.
type campaignDigest struct {
	Case         string            `json:"case"`
	WorldSeed    int64             `json:"world_seed"`
	Leaves       int               `json:"leaves"`
	MeasureSeed  int64             `json:"measure_seed"`
	Ops          string            `json:"ops,omitempty"`
	Days         int               `json:"days,omitempty"`
	Stream       string            `json:"stream"`
	IXPs         map[string]string `json:"ixps"`
	Observations int               `json:"observations"`
	Table1       []core.Table1Row  `json:"table1"`
	Validation   core.Validation   `json:"validation"`
}

// layer3Digest pins CompareLayer3Visibility over one studied IXP.
type layer3Digest struct {
	Case      string `json:"case"`
	WorldSeed int64  `json:"world_seed"`
	Leaves    int    `json:"leaves"`
	IXP       int    `json:"ixp"`
	Seed      int64  `json:"seed"`
	Digest    string `json:"digest"`
}

type campaignDigestFile struct {
	Campaigns []campaignDigest `json:"campaigns"`
	Layer3    []layer3Digest   `json:"layer3"`
}

func csvDigest(t *testing.T, obs []lg.Observation) string {
	t.Helper()
	h := sha256.New()
	if err := lg.WriteCSV(h, obs); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCampaign records r under the given case description.
func digestCampaign(t *testing.T, c campaignDigest, w *worldgen.World, r *spread.Result) campaignDigest {
	t.Helper()
	c.Stream = csvDigest(t, r.Raw)
	c.IXPs = map[string]string{}
	for lo := 0; lo < len(r.Raw); {
		hi := lo + 1
		for hi < len(r.Raw) && r.Raw[hi].IXPIndex == r.Raw[lo].IXPIndex {
			hi++
		}
		idx := r.Raw[lo].IXPIndex
		c.IXPs[fmt.Sprintf("%d %s", idx, w.IXPs[idx].Acronym)] = csvDigest(t, r.Raw[lo:hi])
		lo = hi
	}
	c.Observations = r.Observations
	c.Table1 = r.Report.Table1()
	c.Validation = r.Validation
	return c
}

// computeCampaignDigests runs every pinned campaign.
func computeCampaignDigests(t *testing.T) campaignDigestFile {
	t.Helper()
	var out campaignDigestFile
	worlds := map[int64]*worldgen.World{}
	for _, wc := range []struct {
		seed   int64
		leaves int
	}{{1, 300}, {2, 1200}, {3, 2600}, {4, 5000}} {
		w, err := worldgen.Generate(worldgen.Config{Seed: wc.seed, LeafNetworks: wc.leaves})
		if err != nil {
			t.Fatal(err)
		}
		worlds[wc.seed] = w
		measure := 10 + wc.seed
		r, err := spread.Run(w, spread.Options{Seed: measure})
		if err != nil {
			t.Fatalf("world seed %d: %v", wc.seed, err)
		}
		out.Campaigns = append(out.Campaigns, digestCampaign(t, campaignDigest{
			Case:        fmt.Sprintf("world seed %d, %d leaves", wc.seed, wc.leaves),
			WorldSeed:   wc.seed,
			Leaves:      wc.leaves,
			MeasureSeed: measure,
		}, w, r))

		if wc.seed != 1 {
			continue
		}
		// The evolved cases run through Reuse from the full campaign:
		// churn re-simulates one IXP, the outage darkens one (nothing
		// re-simulates), the latency shift re-simulates every IXP.
		for _, spec := range []string{"churn:DE-CIX:3:2", "outage:LINX", "latency:city:2.5"} {
			op, err := scenario.ParseOp(spec)
			if err != nil {
				t.Fatal(err)
			}
			es := &scenario.EvolveState{World: w.Clone()}
			d, err := scenario.ApplyOps(es, []scenario.Op{op}, stats.NewSource(wc.seed).Split("ops"))
			if err != nil {
				t.Fatalf("world seed %d, ops %s: %v", wc.seed, spec, err)
			}
			touched := map[int]bool{}
			for _, acr := range d.Sims {
				if _, idx, err := es.World.IXPByAcronym(acr); err == nil {
					touched[idx] = true
				}
			}
			key, err := spread.NewCampaignKey(es.World, measure, lg.Config{}, core.Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			er, err := spread.Run(es.World, spread.Options{
				Seed: measure,
				IXPs: key.IXPs,
				Reuse: &spread.Reuse{From: r, Dirty: func(idx int) bool {
					return d.AllSims || touched[idx]
				}},
			})
			if err != nil {
				t.Fatalf("world seed %d, ops %s: %v", wc.seed, spec, err)
			}
			out.Campaigns = append(out.Campaigns, digestCampaign(t, campaignDigest{
				Case:        fmt.Sprintf("world seed %d, %d leaves, after %s", wc.seed, wc.leaves, spec),
				WorldSeed:   wc.seed,
				Leaves:      wc.leaves,
				MeasureSeed: measure,
				Ops:         spec,
			}, es.World, er))
		}
	}

	// A one-day campaign: an LG server's rounds overlap, so its planned
	// pings form many ascending runs (195 over this world's 22 IXPs, two
	// per dual-LG IXP at the default length) that the engine merges.
	{
		const seed, leaves, days = 3, 2600, 1
		measure := int64(10 + seed)
		r, err := spread.Run(worlds[seed], spread.Options{
			Seed:     measure,
			Campaign: lg.Config{Duration: days * 24 * time.Hour},
		})
		if err != nil {
			t.Fatalf("world seed %d, %d-day campaign: %v", seed, days, err)
		}
		out.Campaigns = append(out.Campaigns, digestCampaign(t, campaignDigest{
			Case:        fmt.Sprintf("world seed %d, %d leaves, %d-day campaign", seed, leaves, days),
			WorldSeed:   seed,
			Leaves:      leaves,
			MeasureSeed: measure,
			Days:        days,
		}, worlds[seed], r))
	}

	// Traceroute and ping bursts from one looking glass.
	for _, ixp := range []int{0, 5} {
		const seed = 7
		res, err := CompareLayer3Visibility(worlds[2], ixp, seed)
		if err != nil {
			t.Fatalf("world seed 2, IXP %d, seed %d: %v", ixp, seed, err)
		}
		var b strings.Builder
		for _, p := range res {
			fmt.Fprintf(&b, "%v %d %t %d %t\n", p.IP, p.HopCount, p.SawRouter, int64(p.MinRTT), p.TrueRemote)
		}
		sum := sha256.Sum256([]byte(b.String()))
		out.Layer3 = append(out.Layer3, layer3Digest{
			Case:      fmt.Sprintf("world seed 2, 1200 leaves, layer-3 visibility at IXP %d", ixp),
			WorldSeed: 2,
			Leaves:    1200,
			IXP:       ixp,
			Seed:      seed,
			Digest:    hex.EncodeToString(sum[:]),
		})
	}
	return out
}

// TestCampaignDigests checks the simulator's raw output against the
// committed digests. Run with -update-campaign-digests to rewrite them
// after a deliberate change to what the simulator computes.
func TestCampaignDigests(t *testing.T) {
	got := computeCampaignDigests(t)
	if *updateCampaignDigests {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(campaignDigestsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(campaignDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want campaignDigestFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Campaigns) != len(want.Campaigns) || len(got.Layer3) != len(want.Layer3) {
		t.Fatalf("%d campaigns and %d layer-3 cases, digest file has %d and %d",
			len(got.Campaigns), len(got.Layer3), len(want.Campaigns), len(want.Layer3))
	}
	for i, g := range got.Campaigns {
		w := want.Campaigns[i]
		where := fmt.Sprintf("%s (measure seed %d)", g.Case, g.MeasureSeed)
		if g.Case != w.Case || g.MeasureSeed != w.MeasureSeed {
			t.Errorf("case %d is %s, digest file has %s (measure seed %d)", i, where, w.Case, w.MeasureSeed)
			continue
		}
		for ixp, d := range w.IXPs {
			if g.IXPs[ixp] != d {
				t.Errorf("%s: IXP %s: observation stream digest %.16s, want %.16s", where, ixp, g.IXPs[ixp], d)
			}
		}
		for ixp := range g.IXPs {
			if _, ok := w.IXPs[ixp]; !ok {
				t.Errorf("%s: IXP %s measured, not in the digest file", where, ixp)
			}
		}
		if g.Stream != w.Stream {
			t.Errorf("%s: whole-stream digest %.16s, want %.16s", where, g.Stream, w.Stream)
		}
		if g.Observations != w.Observations || g.Validation != w.Validation {
			t.Errorf("%s: %d observations, validation %+v; want %d, %+v",
				where, g.Observations, g.Validation, w.Observations, w.Validation)
		}
		if !reflect.DeepEqual(g.Table1, w.Table1) {
			t.Errorf("%s: Table 1 differs:\n got %+v\nwant %+v", where, g.Table1, w.Table1)
		}
	}
	for i, g := range got.Layer3 {
		if w := want.Layer3[i]; g != w {
			t.Errorf("%s (seed %d): digest %.16s, want %.16s", g.Case, g.Seed, g.Digest, w.Digest)
		}
	}
}
