package spread

import (
	"slices"
	"testing"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/lg"
	"remotepeering/internal/worldgen"
)

// TestCampaignKeyMatches pins the predicate's edges: every recorded input
// must equal the key's, detector configs compare after defaults, and the
// key's selection drops dark IXPs.
func TestCampaignKeyMatches(t *testing.T) {
	w := testWorld(t)
	camp := lg.Config{Duration: 8 * 24 * time.Hour, PCHRounds: 3, RIPERounds: 3}
	res := run(t, Options{Seed: 2, IXPs: []int{0, 1}, Campaign: camp})
	key := func(w *worldgen.World, seed int64, c lg.Config, d core.Config, ixps []int) CampaignKey {
		k, err := NewCampaignKey(w, seed, c, d, ixps)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if !key(w, 2, camp, core.Config{}, []int{1, 0}).Matches(res) {
		t.Error("the key of the run's own inputs does not match it")
	}
	explicit := core.Config{RemoteThreshold: 10 * time.Millisecond, Disabled: map[core.Filter]bool{core.FilterTTLMatch: false}}
	if !key(w, 2, camp, explicit, []int{0, 1}).Matches(res) {
		t.Error("an explicitly defaulted detector does not match")
	}
	for name, k := range map[string]CampaignKey{
		"seed":      key(w, 3, camp, core.Config{}, []int{0, 1}),
		"campaign":  key(w, 2, lg.Config{Duration: camp.Duration}, core.Config{}, []int{0, 1}),
		"detector":  key(w, 2, camp, core.Config{Disabled: map[core.Filter]bool{core.FilterTTLMatch: true}}, []int{0, 1}),
		"selection": key(w, 2, camp, core.Config{}, []int{0, 1, 2}),
	} {
		if k.Matches(res) {
			t.Errorf("a key with another %s matches", name)
		}
	}
	if key(w, 2, camp, core.Config{}, nil).Matches(nil) {
		t.Error("a key matches a nil campaign")
	}

	// A dark IXP (no interface records left to probe) drops out of the
	// key's selection.
	dark := w.Clone()
	dark.Ifaces = slices.DeleteFunc(dark.Ifaces, func(r worldgen.IfaceRecord) bool { return r.IXPIndex == 1 })
	if k := key(dark, 2, camp, core.Config{}, []int{1, 0}); !slices.Equal(k.IXPs, []int{0}) {
		t.Errorf("key over a dark IXP selects %v, want [0]", k.IXPs)
	}
	if _, err := NewCampaignKey(dark, 2, camp, core.Config{}, []int{1}); err == nil {
		t.Error("a key over dark IXPs alone was accepted")
	}
	if _, err := NewCampaignKey(w, 2, camp, core.Config{}, []int{w.NumStudied()}); err == nil {
		t.Error("a key over a non-studied IXP index was accepted")
	}
}
