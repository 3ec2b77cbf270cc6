package registry

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"remotepeering/internal/worldgen"
)

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }

func testWorld() *worldgen.World {
	return &worldgen.World{Ifaces: []worldgen.IfaceRecord{
		{IXPIndex: 0, IP: ip("10.1.0.12"), ASN: 100, RegistryHasASN: true},
		{IXPIndex: 0, IP: ip("10.1.0.10"), ASN: 200, RegistryHasASN: false},
		{IXPIndex: 1, IP: ip("10.2.0.10"), ASN: 300, RegistryHasASN: true,
			Hazard: worldgen.HazardASNChurn, ChurnASN: 999},
	}}
}

func TestTargetsSorted(t *testing.T) {
	r := FromWorld(testWorld())
	targets := r.Targets(0)
	if len(targets) != 2 {
		t.Fatalf("targets = %v", targets)
	}
	if !targets[0].Less(targets[1]) {
		t.Errorf("targets not sorted: %v", targets)
	}
	if len(r.Targets(5)) != 0 {
		t.Error("unknown IXP should have no targets")
	}
}

func TestLookupASN(t *testing.T) {
	r := FromWorld(testWorld())
	asn, ok := r.LookupASN(0, ip("10.1.0.12"), 0)
	if !ok || asn != 100 {
		t.Errorf("lookup = %d %v", asn, ok)
	}
	// Unidentified entry.
	if _, ok := r.LookupASN(0, ip("10.1.0.10"), 0); ok {
		t.Error("unidentified entry must not resolve")
	}
	// Unknown interface.
	if _, ok := r.LookupASN(0, ip("10.9.9.9"), 0); ok {
		t.Error("unknown interface must not resolve")
	}
}

func TestChurnChangesLateLookups(t *testing.T) {
	r := FromWorld(testWorld())
	early, ok1 := r.LookupASN(1, ip("10.2.0.10"), 0)
	late, ok2 := r.LookupASN(1, ip("10.2.0.10"), 1)
	if !ok1 || !ok2 {
		t.Fatal("churned entry must resolve at both ends")
	}
	if early != 300 || late != 999 {
		t.Errorf("early=%d late=%d, want 300/999", early, late)
	}
	// The boundary: below 0.5 is early, at or above is late.
	if asn, _ := r.LookupASN(1, ip("10.2.0.10"), 0.49); asn != 300 {
		t.Error("0.49 should be early")
	}
	if asn, _ := r.LookupASN(1, ip("10.2.0.10"), 0.5); asn != 999 {
		t.Error("0.5 should be late")
	}
}

func TestIXPIndicesAndLen(t *testing.T) {
	r := FromWorld(testWorld())
	idx := r.IXPIndices()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("indices = %v", idx)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	if !strings.Contains(r.String(), "3 entries") {
		t.Errorf("String = %q", r.String())
	}
}

func TestGeneratedWorldCoverage(t *testing.T) {
	w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 3000})
	if err != nil {
		t.Fatal(err)
	}
	r := FromWorld(w)
	if r.Len() != len(w.Ifaces) {
		t.Errorf("registry has %d entries, world has %d interfaces", r.Len(), len(w.Ifaces))
	}
	identified := 0
	for _, rec := range w.Ifaces {
		if _, ok := r.LookupASN(rec.IXPIndex, rec.IP, 0); ok {
			identified++
		}
	}
	frac := float64(identified) / float64(r.Len())
	// The paper resolved 3,242 of 4,451 ≈ 73%.
	if frac < 0.65 || frac > 0.82 {
		t.Errorf("identification rate = %.2f, want ≈ 0.73", frac)
	}
}

// TestForIXPIsFromWorldRestricted pins ForIXP to FromWorld's entries for
// one IXP, and to no other IXP's.
func TestForIXPIsFromWorldRestricted(t *testing.T) {
	w := testWorld()
	full := FromWorld(w)
	for _, ixp := range []int{0, 1, 5} {
		r := ForIXP(w, ixp)
		var want []int
		if len(full.Targets(ixp)) > 0 {
			want = []int{ixp}
		}
		if got := r.IXPIndices(); !slices.Equal(got, want) {
			t.Errorf("ForIXP(%d) holds IXPs %v, want %v", ixp, got, want)
		}
		if r.Len() != len(full.Targets(ixp)) {
			t.Errorf("ForIXP(%d) has %d entries, FromWorld %d", ixp, r.Len(), len(full.Targets(ixp)))
		}
		for _, rec := range w.Ifaces {
			for _, frac := range []float64{0, 1} {
				asn, ok := r.LookupASN(rec.IXPIndex, rec.IP, frac)
				wantASN, wantOK := full.LookupASN(rec.IXPIndex, rec.IP, frac)
				if rec.IXPIndex != ixp {
					wantASN, wantOK = 0, false
				}
				if asn != wantASN || ok != wantOK {
					t.Errorf("ForIXP(%d).LookupASN(%d, %v, %v) = %d %t, want %d %t", ixp, rec.IXPIndex, rec.IP, frac, asn, ok, wantASN, wantOK)
				}
			}
		}
	}
}
