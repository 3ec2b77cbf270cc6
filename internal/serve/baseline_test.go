package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/obs"
	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/spread"
	"remotepeering/internal/worldgen"
)

// attached round-trips a snapshot through the flat container, as a
// production server would load it.
func attached(t testing.TB, snap *snapshot.Snapshot) *snapshot.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snapshot.WriteFlat(&buf, snap); err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.AttachBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fixtureWorld is the shared test snapshot's world.
func fixtureWorld(t testing.TB) *worldgen.World {
	testServer(t)
	return testSnapVal.World
}

// TestSpreadSectionAnswersOnlyItsQuery pins that a persisted campaign
// serves /v1/spread only when it was measured and analyzed exactly as the
// query asks: a same-seed section over two IXPs, or one analyzed at a
// 20 ms threshold, must not stand in for the paper's campaign, so all
// three snapshots answer alike.
func TestSpreadSectionAnswersOnlyItsQuery(t *testing.T) {
	w := fixtureWorld(t)
	six := lg.Config{Duration: 6 * 24 * time.Hour}
	section := func(opts spread.Options) *spread.Result {
		opts.Seed, opts.Campaign = 2, six
		res, err := spread.Run(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var want []byte
	for _, tc := range []struct {
		name string
		sp   *spread.Result
	}{
		{"world only", nil},
		{"IXPs 0 and 2", section(spread.Options{IXPs: []int{0, 2}})},
		{"20 ms threshold", section(spread.Options{Detector: core.Config{RemoteThreshold: 20 * time.Millisecond}})},
	} {
		s, err := New(Config{Snapshot: attached(t, &snapshot.Snapshot{World: w, Spread: tc.sp}), CacheMB: 8})
		if err != nil {
			t.Fatal(err)
		}
		status, _, body := get(t, s.Handler(), "/v1/spread?seed=2&days=6")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", tc.name, status, body)
		}
		var resp spreadResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		resp.ID, resp.Digest = "", ""
		got, _ := json.Marshal(resp)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: /v1/spread answered %s, want %s", tc.name, got, want)
		}
	}
}

// TestSpreadSkipsDarkIXPs pins /v1/spread over a world whose studied
// IXP 1 an outage emptied: it answers 200, measuring the IXPs that still
// have probe targets, and its observation, analyzed and detected counts
// equal those of /v1/whatif's baseline cell over the same days, which
// skips the dark IXP by the same rule.
func TestSpreadSkipsDarkIXPs(t *testing.T) {
	w := fixtureWorld(t).Clone()
	if err := w.RemoveIXPMembers(1); err != nil {
		t.Fatal(err)
	}
	// Two servers, so neither answer comes from the other's held campaign.
	snap := attached(t, &snapshot.Snapshot{World: w})
	fresh := func() http.Handler {
		s, err := New(Config{Snapshot: snap, CacheMB: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}
	status, _, body := get(t, fresh(), "/v1/spread?days=6")
	if status != http.StatusOK {
		t.Fatalf("/v1/spread: status %d, body %s", status, body)
	}
	var sp spreadResponse
	if err := json.Unmarshal(body, &sp); err != nil {
		t.Fatal(err)
	}
	status, _, body = get(t, fresh(), whatifQuery("a%3Dtraffic%3A1.2", ""))
	if status != http.StatusOK {
		t.Fatalf("/v1/whatif: status %d, body %s", status, body)
	}
	var wr WhatifResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	base := wr.Report.Baseline
	if sp.Observations != base.Observations || sp.AnalyzedIfaces != base.AnalyzedIfaces || sp.DetectedRemote != base.DetectedRemote {
		t.Errorf("/v1/spread counts %d/%d/%d, /v1/whatif baseline %d/%d/%d (observations/analyzed/detected)",
			sp.Observations, sp.AnalyzedIfaces, sp.DetectedRemote, base.Observations, base.AnalyzedIfaces, base.DetectedRemote)
	}
}

// TestOffloadHeldDatasetAnswersOnlyItsKey pins that a held dataset
// answers /v1/offload only for the config a miss would collect. The view
// carries a 96-interval dataset at traffic seed 5; a query at seed 9 with
// intervals=0 wants the full month, so a 96-interval seed-9 dataset that
// an earlier offload or what-if left in the holder must not answer it:
// the body equals a fresh server's either way.
func TestOffloadHeldDatasetAnswersOnlyItsKey(t *testing.T) {
	w := fixtureWorld(t)
	ds, err := netflow.Collect(w, netflow.Config{Seed: 5, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	snap := attached(t, &snapshot.Snapshot{World: w, Dataset: ds})
	fresh := func() http.Handler {
		s, err := New(Config{Snapshot: snap, CacheMB: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}
	offload := func(h http.Handler, url string) offloadResponse {
		t.Helper()
		status, _, body := get(t, h, url)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", url, status, body)
		}
		var resp offloadResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		resp.ID = ""
		return resp
	}
	const full = "/v1/offload?group=3&traffic-seed=9"
	want := offload(fresh(), full)
	if want.Intervals != netflow.DefaultIntervals {
		t.Fatalf("fresh server answers %s with %d intervals, want the full month", full, want.Intervals)
	}
	for _, warm := range []string{
		"/v1/offload?group=3&traffic-seed=9&intervals=96",
		whatifQuery("b%3Dtraffic%3A1.2", "&traffic-seed=9"),
	} {
		h := fresh()
		if status, _, body := get(t, h, warm); status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", warm, status, body)
		}
		if got := offload(h, full); !reflect.DeepEqual(got, want) {
			t.Errorf("after %s: %s answered %d intervals, fresh server %d", warm, full, got.Intervals, want.Intervals)
		}
	}
	// The view's own dataset still answers its own seed at any length it
	// has.
	if got := offload(fresh(), "/v1/offload?group=3"); got.Intervals != 96 || got.TrafficSeed != 5 {
		t.Errorf("view's own dataset: answered seed %d, %d intervals; want 5, 96", got.TrafficSeed, got.Intervals)
	}
}

// baselineCounts scrapes rp_serve_baseline_total from /metrics, keyed
// "part/outcome".
func baselineCounts(t *testing.T, h http.Handler) map[string]int {
	t.Helper()
	_, _, body := get(t, h, "/metrics")
	re := regexp.MustCompile(`(?m)^rp_serve_baseline_total\{part="(\w+)",outcome="(\w+)"\} (\d+)$`)
	out := map[string]int{}
	for _, m := range re.FindAllSubmatch(body, -1) {
		n, _ := strconv.Atoi(string(m[3]))
		out[string(m[1])+"/"+string(m[2])] = n
	}
	return out
}

// matchingSections are the persisted campaign and dataset a default
// /v1/whatif with days=6 and intervals=96 asks for (seeds 2 and 3).
func matchingSections(t testing.TB, w *worldgen.World) (*spread.Result, *netflow.Dataset) {
	t.Helper()
	sp, err := spread.Run(w, spread.Options{Seed: 2, Campaign: lg.Config{Duration: 6 * 24 * time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := netflow.Collect(w, netflow.Config{Seed: 3, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	return sp, ds
}

func whatifQuery(scenarios, extra string) string {
	return "/v1/whatif?scenarios=" + scenarios + "&days=6&intervals=96&k=3&greedy=8" + extra
}

// TestBaselineCounters pins rp_serve_baseline_total and the trace's
// baseline event over a fixed sequence: the first what-if computes all
// three parts, a different one holds all three (one held offload read-out
// for the second cold what-if on the view), a different traffic seed
// holds the campaign and computes the traffic and the read-out over it,
// and a snapshot carrying matching sections holds the campaign and the
// traffic from its first request.
func TestBaselineCounters(t *testing.T) {
	w := fixtureWorld(t)
	observed := func(snap *snapshot.Snapshot) (http.Handler, *obs.FlightRecorder) {
		rec := obs.NewFlightRecorder(0)
		s, err := New(Config{Snapshot: attached(t, snap), CacheMB: 8, Metrics: obs.NewRegistry(), Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		return s.Handler(), rec
	}
	h, rec := observed(&snapshot.Snapshot{World: w})
	steps := []struct {
		url  string
		want map[string]int
	}{
		{whatifQuery("a%3Dchurn%3AAMS-IX%3A3%3A1", ""),
			map[string]int{"campaign/computed": 1, "traffic/computed": 1, "offload/computed": 1, "offload/held": 0}},
		{whatifQuery("b%3Dtraffic%3A1.2", ""),
			map[string]int{"campaign/computed": 1, "traffic/computed": 1, "campaign/held": 1, "traffic/held": 1,
				"offload/computed": 1, "offload/held": 1}},
		{whatifQuery("b%3Dtraffic%3A1.2", "&traffic-seed=4"),
			map[string]int{"campaign/computed": 1, "traffic/computed": 2, "campaign/held": 2, "traffic/held": 1,
				"offload/computed": 2, "offload/held": 1}},
	}
	for i, st := range steps {
		if status, hdr, body := get(t, h, st.url); status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
			t.Fatalf("step %d: status %d, X-Cache %q, body %s", i, status, hdr.Get("X-Cache"), body)
		}
		got := baselineCounts(t, h)
		for key, n := range st.want {
			if got[key] != n {
				t.Errorf("step %d: %s = %d, want %d (all: %v)", i, key, got[key], n, got)
			}
		}
	}
	var notes []string
	for _, r := range rec.Records("") {
		for _, sp := range r.Spans {
			if sp.Name == "baseline" {
				notes = append(notes, sp.Note)
			}
		}
	}
	wantNotes := []string{
		"campaign=computed traffic=computed offload=computed",
		"campaign=held traffic=held offload=held",
		"campaign=held traffic=computed offload=computed",
	}
	if fmt.Sprint(notes) != fmt.Sprint(wantNotes) {
		t.Errorf("baseline events %q, want %q", notes, wantNotes)
	}

	sp, ds := matchingSections(t, w)
	h2, _ := observed(&snapshot.Snapshot{World: w, Spread: sp, Dataset: ds})
	if status, _, body := get(t, h2, steps[0].url); status != http.StatusOK {
		t.Fatalf("persisted sections: status %d, body %s", status, body)
	}
	if got := baselineCounts(t, h2); got["campaign/held"] != 1 || got["traffic/held"] != 1 || got["campaign/computed"] != 0 || got["traffic/computed"] != 0 {
		t.Errorf("persisted sections: counts %v, want both parts held once", got)
	}
}

// TestWhatifHeldBaselineByteIdentical pins /v1/whatif bodies to the
// holder-free engine under NoReuse on three kinds of view:
// a static world, a rehydrated one carrying matching spread and dataset
// sections, and a live one, whose tick artifacts hold the campaign of a
// query on the engine's own campaign. Each view answers two different
// what-ifs, so the second (or, with held parts, both) runs on a held
// baseline.
func TestWhatifHeldBaselineByteIdentical(t *testing.T) {
	w := fixtureWorld(t)
	sp, ds := matchingSections(t, w)
	live, liveDigest := liveServer(t)
	if status, body := post(t, live.Handler(), "/v1/tick?n=2"); status != http.StatusOK {
		t.Fatalf("tick: %d %s", status, body)
	}
	type view struct {
		name string
		s    *Server
		ws   func() *worldState
		days int // 0: the world's campaign length, as the live engine measures
		held bool
	}
	var views []view
	for _, v := range []struct {
		name string
		snap *snapshot.Snapshot
	}{
		{"static", &snapshot.Snapshot{World: w}},
		{"rehydrated", &snapshot.Snapshot{World: w, Spread: sp, Dataset: ds}},
	} {
		s, err := New(Config{Snapshot: attached(t, v.snap), CacheMB: 8})
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, view{v.name, s, func() *worldState { return s.single }, 6, v.snap.Spread != nil})
	}
	views = append(views, view{"live", live, func() *worldState { return live.liveView(liveDigest).ws }, 0, true})

	for _, v := range views {
		campaign := lg.Config{Duration: time.Duration(v.days) * 24 * time.Hour}
		key, err := spread.NewCampaignKey(v.ws().world, 2, campaign, core.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A cancelled context lets only a held campaign answer: a miss
		// would have to measure it.
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		_, held, err := v.ws().base.Campaign(cancelled, v.ws().world, key, 1, nil)
		if held != v.held || (held && err != nil) || (!held && !errors.Is(err, context.Canceled)) {
			t.Errorf("%s: campaign held from the view's own parts = %v (err %v), want %v", v.name, held, err, v.held)
		}
		for _, scn := range []string{"a=churn:AMS-IX:3:1,traffic:1.2", "b=outage:LINX;c=portprice:0.7"} {
			url := fmt.Sprintf("/v1/whatif?scenarios=%s&days=%d&intervals=96&k=3&greedy=8", urlEscape(scn), v.days)
			status, _, body := get(t, v.s.Handler(), url)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d, body %s", v.name, scn, status, body)
			}
			var resp WhatifResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			grid, err := scenario.ParseGrid(scn)
			if err != nil {
				t.Fatal(err)
			}
			// The reference: the holder-free engine on its full-rerun path.
			rep, err := scenario.RunCtx(context.Background(), v.ws().world, grid, scenario.Options{
				MeasureSeed: 2, TrafficSeed: 3, CoverageIXPs: 3, GreedyIXPs: 8, Intervals: 96,
				Campaign: campaign, NoReuse: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := marshalBody(WhatifResponse{ID: resp.ID, Digest: resp.Digest, Report: rep.JSONReport()})
			if !bytes.Equal(body, want) {
				t.Errorf("%s %s: served body differs from the holder-free NoReuse engine", v.name, scn)
			}
		}
	}
}

func urlEscape(s string) string {
	var b bytes.Buffer
	for _, c := range []byte(s) {
		switch c {
		case '=', ':', ',', ';':
			fmt.Fprintf(&b, "%%%02X", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
