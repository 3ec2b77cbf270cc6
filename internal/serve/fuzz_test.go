package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzWhatifCanonical pins the /v1/whatif cache key. A generated request
// rendered as GET query parameters and as a POST JSON body must parse to
// one Canonical after ApplyDefaults, equal to the request's own; a second
// request, one field away, shares that Canonical exactly when the two are
// the same request after defaults (an empty seed list is the list {0});
// and validate never panics.
func FuzzWhatifCanonical(f *testing.F) {
	f.Add("dark=outage:AMS-IX", int64(0), int64(0), uint8(0), int64(0), int64(0), 0, 0, 0, 0, uint8(0), int64(1))
	f.Add("a=churn:DE-CIX:3:1,traffic:1.2;b=remoteprice:0.5", int64(1), int64(2), uint8(2), int64(2), int64(3), 5, 30, 96, 6, uint8(1), int64(-5))
	f.Add("x|seeds=1|mseed=2", int64(-7), int64(0), uint8(1), int64(-1), int64(9), 3, 8, 0, 1, uint8(2), int64(1))
	f.Add("städte=latency:city:-3", int64(1)<<40, int64(3), uint8(2), int64(1)<<50, int64(-1)<<50, 4, 1, -1, 121, uint8(5), int64(1))
	f.Add("", int64(0), int64(0), uint8(1), int64(0), int64(0), -3, 2, 1<<20, 0, uint8(8), int64(0))
	f.Fuzz(func(t *testing.T, scenarios string, s1, s2 int64, nSeeds uint8, mseed, tseed int64, k, greedy, intervals, days int, field uint8, delta int64) {
		if !utf8.ValidString(scenarios) {
			t.Skip("a JSON body cannot carry invalid UTF-8")
		}
		req := WhatifRequest{
			Scenarios: scenarios, MeasureSeed: mseed, TrafficSeed: tseed,
			K: k, Greedy: greedy, Intervals: intervals, Days: days,
		}
		req.Seeds = []int64{s1, s2}[:min(int(nSeeds), 2)]
		_ = req.validate()

		want := req
		want.ApplyDefaults()
		sameKey := func(via string, got WhatifRequest) {
			_ = got.validate()
			got.ApplyDefaults()
			if got.Canonical() != want.Canonical() {
				t.Fatalf("%s parsed %+v: Canonical %q, want %q", via, got, got.Canonical(), want.Canonical())
			}
		}
		sameKey("GET", viaGET(t, req))
		if got, ok := viaPOST(t, req); ok {
			sameKey("POST", got)
		}

		other := req
		other.Seeds = append([]int64(nil), req.Seeds...)
		switch field % 9 {
		case 0:
			other.Scenarios += string(rune('a' + delta&7))
		case 1:
			other.Seeds = append(other.Seeds, delta)
		case 2:
			if len(other.Seeds) == 0 {
				other.Seeds = []int64{delta}
			} else {
				other.Seeds[0] += delta
			}
		case 3:
			other.MeasureSeed += delta
		case 4:
			other.TrafficSeed += delta
		case 5:
			other.K += int(delta)
		case 6:
			other.Greedy += int(delta)
		case 7:
			other.Intervals += int(delta)
		case 8:
			other.Days += int(delta)
		}
		_ = other.validate()
		other.ApplyDefaults()
		same := reflect.DeepEqual(seedsDefaulted(want), seedsDefaulted(other))
		if shared := want.Canonical() == other.Canonical(); shared != same {
			t.Fatalf("%+v and %+v: same after defaults %v, but shared Canonical %v (%q)", want, other, same, shared, want.Canonical())
		}
	})
}

// seedsDefaulted is r with an empty seed list spelled as {0}, the grid it
// runs.
func seedsDefaulted(r WhatifRequest) WhatifRequest {
	if len(r.Seeds) == 0 {
		r.Seeds = []int64{0}
	}
	return r
}

// viaGET renders r as /v1/whatif query parameters and parses it back.
func viaGET(t *testing.T, r WhatifRequest) WhatifRequest {
	t.Helper()
	q := url.Values{}
	q.Set("scenarios", r.Scenarios)
	if len(r.Seeds) > 0 {
		parts := make([]string, len(r.Seeds))
		for i, s := range r.Seeds {
			parts[i] = strconv.FormatInt(s, 10)
		}
		q.Set("seeds", strings.Join(parts, ","))
	}
	q.Set("measure-seed", strconv.FormatInt(r.MeasureSeed, 10))
	q.Set("traffic-seed", strconv.FormatInt(r.TrafficSeed, 10))
	for name, v := range map[string]int{"k": r.K, "greedy": r.Greedy, "intervals": r.Intervals, "days": r.Days} {
		q.Set(name, strconv.Itoa(v))
	}
	got, err := parseWhatifRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/whatif?"+q.Encode(), nil))
	if err != nil {
		t.Fatalf("GET %q: %v", q.Encode(), err)
	}
	return got
}

// viaPOST renders r as a /v1/whatif JSON body and parses it back; a body
// past the server's cap is refused before parsing, so it reports false.
func viaPOST(t *testing.T, r WhatifRequest) (WhatifRequest, bool) {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxWhatifBody {
		return WhatifRequest{}, false
	}
	got, err := parseWhatifRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/whatif", bytes.NewReader(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", body, err)
	}
	return got, true
}
