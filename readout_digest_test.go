package remotepeering

// The read-out digest suite pins the bytes of Sections 4–5's read-out: a
// greedy Figure 9 curve read at k exchanges, its fitted decay b and the
// eq. 14 verdict, as /v1/offload and /v1/whatif answer them and as a
// living world's history records them. The equivalence goldens stop at
// the raw greedy curve and the scenario JSON golden uses synthetic
// numbers; this file is what catches a change to the read-out that moves
// a single byte.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"
	"time"

	"remotepeering/internal/netflow"
	"remotepeering/internal/serve"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

var updateReadoutDigests = flag.Bool("update-readout-digests", false,
	"rewrite testdata/readout_digests.json from the current read-out")

const readoutDigestsPath = "testdata/readout_digests.json"

// readoutDigest is one pinned body: the status and the SHA-256 of what a
// request answered, or of a tick engine's history as JSON.
type readoutDigest struct {
	Case   string `json:"case"`
	Status int    `json:"status,omitempty"`
	SHA256 string `json:"sha256"`
}

// readoutWhatif is the pinned what-if grid: one cell of each op kind.
const readoutWhatif = "churn=churn:DE-CIX:4:3;outage=outage:AMS-IX;latency=latency:city:-3;" +
	"traffic=traffic:1.3;diurnal=diurnal:5;price=portprice:0.7,remoteprice:1.2"

// computeReadoutDigests serves a 1,200-leaf world with a 96-interval
// dataset in-process and digests every pinned read-out.
func computeReadoutDigests(t *testing.T) []readoutDigest {
	t.Helper()
	w, err := worldgen.Generate(worldgen.Config{Seed: 2, LeafNetworks: 1200})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := netflow.Collect(w, netflow.Config{Seed: 3, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snapshot.WriteFlat(&buf, &snapshot.Snapshot{World: w, Dataset: ds}); err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.AttachBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Snapshot: snap, MaxInflight: 1, CacheMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	var out []readoutDigest
	get := func(path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		sum := sha256.Sum256(rec.Body.Bytes())
		out = append(out, readoutDigest{Case: "GET " + path, Status: rec.Code, SHA256: hex.EncodeToString(sum[:])})
	}
	for group := 1; group <= 4; group++ {
		for _, kg := range [][2]int{{3, 10}, {12, 4}, {5, 1}, {1, 2}, {65, 8}} {
			get(fmt.Sprintf("/v1/offload?group=%d&k=%d&greedy=%d", group, kg[0], kg[1]))
		}
	}
	whatif := "/v1/whatif?scenarios=" + url.QueryEscape(readoutWhatif) + "&seeds=0,1&days=6&intervals=96"
	get(whatif + "&k=12&greedy=4")
	get(whatif)

	// A living world's timeline: the default regime over the fixture's
	// campaign length and traffic month.
	cfg := tick.DefaultConfig()
	cfg.Pipeline.Intervals = 96
	cfg.Pipeline.Campaign.Duration = 6 * 24 * time.Hour
	e, err := tick.New(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdvanceTo(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	hist, err := json.Marshal(e.History())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(hist)
	out = append(out, readoutDigest{Case: "tick history after 8 default ticks", SHA256: hex.EncodeToString(sum[:])})
	return out
}

// TestReadoutDigests checks the read-out's bytes against the committed
// digests. Run with -update-readout-digests to rewrite them after a
// deliberate change to what the read-out answers.
func TestReadoutDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a 1,200-leaf world; skipped in -short")
	}
	got := computeReadoutDigests(t)
	if *updateReadoutDigests {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(readoutDigestsPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(readoutDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []readoutDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d read-out cases, digest file has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.Case != w.Case:
			t.Errorf("case %d is %q, digest file has %q", i, g.Case, w.Case)
		case g.Status != w.Status || g.SHA256 != w.SHA256:
			t.Errorf("%s: status %d digest %.16s, want status %d digest %.16s", g.Case, g.Status, g.SHA256, w.Status, w.SHA256)
		}
	}
}
