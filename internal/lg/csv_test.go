package lg

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"remotepeering/internal/ixpsim"
	"remotepeering/internal/netsim"
	"remotepeering/internal/stats"
	"remotepeering/internal/worldgen"
)

func sampleObs() []Observation {
	return []Observation{
		{IXPIndex: 0, Acronym: "AMS-IX", Family: "PCH",
			Target: netip.MustParseAddr("10.1.0.10"),
			SentAt: 5 * time.Minute, RTT: 780 * time.Microsecond, TTL: 64},
		{IXPIndex: 3, Acronym: "HKIX", Family: "RIPE",
			Target: netip.MustParseAddr("10.4.0.99"),
			SentAt: 77 * time.Hour, TimedOut: true},
		{IXPIndex: 21, Acronym: "TIE", Family: "PCH",
			Target: netip.MustParseAddr("10.22.0.44"),
			SentAt: 100 * 24 * time.Hour, RTT: 93 * time.Millisecond, TTL: 255},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleObs()
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d of %d rows", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("row %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("empty round trip returned %d rows", len(out))
	}
}

func TestReadCSVRejectsBadData(t *testing.T) {
	cases := map[string]string{
		"wrong header": "a,b,c,d,e,f,g,h\n",
		"bad ip":       strings.Join(csvHeader, ",") + "\n0,X,PCH,not-an-ip,1,1,64,false\n",
		"bad ttl":      strings.Join(csvHeader, ",") + "\n0,X,PCH,10.0.0.1,1,1,999,false\n",
		"bad bool":     strings.Join(csvHeader, ",") + "\n0,X,PCH,10.0.0.1,1,1,64,maybe\n",
		"bad index":    strings.Join(csvHeader, ",") + "\nnope,X,PCH,10.0.0.1,1,1,64,false\n",
		"bad rtt":      strings.Join(csvHeader, ",") + "\n0,X,PCH,10.0.0.1,1,zzz,64,false\n",
		"short row":    strings.Join(csvHeader, ",") + "\n0,X,PCH\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCSVCampaignScale(t *testing.T) {
	// A real campaign's observations survive the round trip unchanged.
	w := smallWorld(t)
	var e netsim.Engine
	src := stats.NewSource(23)
	sim, err := ixpsim.Build(&e, w, 19, 120*24*time.Hour, src.Split("sim")) // INEX
	if err != nil {
		t.Fatal(err)
	}
	camp := NewCampaign(Config{PCHRounds: 2, RIPERounds: 1})
	if err := camp.Schedule(&e, sim, src.Split("camp")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	obs := camp.Observations()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, obs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(obs) {
		t.Fatalf("%d of %d observations", len(back), len(obs))
	}
	for i := range obs {
		if obs[i] != back[i] {
			t.Fatalf("observation %d mutated", i)
		}
	}
}

// TestCSVRoundTripProperty is the property form of the round-trip check:
// randomized observations — boundary durations, both TTL conventions,
// v4/v6 targets, CSV-hostile strings — must survive WriteCSV → ReadCSV
// deeply equal. Any field-precision drift (a float format, a lossy
// duration unit) fails here before it can corrupt an archived campaign.
func TestCSVRoundTripProperty(t *testing.T) {
	src := stats.NewSource(99).Split("csv-property")
	families := []string{"PCH", "RIPE", "a,b", `quo"ted`, "spa ce", ""}
	acronyms := []string{"AMS-IX", "DE-CIX", "weird,acr", `"LINX"`, "Ünïcode-IX", ""}
	durations := []time.Duration{
		0, 1, -1, time.Nanosecond, time.Microsecond - 1,
		5 * time.Minute, 120 * 24 * time.Hour,
		time.Duration(1<<62 - 1), -time.Duration(1 << 61),
	}
	addrs := []netip.Addr{
		netip.MustParseAddr("10.1.0.10"),
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:10.2.3.4"),
		netip.MustParseAddr("fe80::1%eth0"),
	}
	const n = 2000
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{
			IXPIndex: src.Intn(65) - 1, // include -1 (unknown) and the full range
			Acronym:  acronyms[src.Intn(len(acronyms))],
			Family:   families[src.Intn(len(families))],
			Target:   addrs[src.Intn(len(addrs))],
			SentAt:   durations[src.Intn(len(durations))],
			RTT:      durations[src.Intn(len(durations))],
			TTL:      uint8(src.Intn(256)),
			TimedOut: src.Float64() < 0.3,
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, obs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(obs) {
		t.Fatalf("read %d of %d observations", len(back), len(obs))
	}
	for i := range obs {
		if obs[i] != back[i] {
			t.Fatalf("observation %d drifted:\n  wrote %+v\n  read  %+v", i, obs[i], back[i])
		}
	}
}

// TestCSVRoundTripGeneratedWorld runs the property over the real thing: a
// generated world's campaign observations, exactly as a caller would
// archive and re-analyze them through the facade.
func TestCSVRoundTripGeneratedWorld(t *testing.T) {
	w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 1200})
	if err != nil {
		t.Fatal(err)
	}
	src := stats.NewSource(41)
	obs := make([]Observation, 0, 4096)
	for _, idx := range []int{2, 7} {
		var eng netsim.Engine
		sim, err := ixpsim.Build(&eng, w, idx, 20*24*time.Hour, src.Split("sim"))
		if err != nil {
			t.Fatal(err)
		}
		camp := NewCampaign(Config{Duration: 20 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 2})
		if err := camp.Schedule(&eng, sim, src.Split("camp")); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		obs = append(obs, camp.Observations()...)
	}
	Sort(obs)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, obs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(obs, back) {
		t.Fatal("generated-world campaign observations drifted through the CSV round trip")
	}
}
