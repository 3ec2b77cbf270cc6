package spread

import (
	"fmt"
	"slices"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/lg"
	"remotepeering/internal/worldgen"
)

// CampaignKey is every input a campaign over one world view is a pure
// function of: the campaign part of a baseline key (the traffic part is a
// netflow.Config).
type CampaignKey struct {
	// Seed is the measurement seed.
	Seed int64
	// Campaign is the effective campaign configuration: a zero Duration
	// resolved to the world's campaign length.
	Campaign lg.Config
	// Detector is the detector configuration, compared after defaults.
	Detector core.Config
	// IXPs is the studied-IXP selection with dark IXPs (no registry-listed
	// targets left to probe) dropped, ascending.
	IXPs []int
}

// NewCampaignKey returns the key of the campaign measured over w with
// the given seed, campaign and detector configuration, and IXP selection
// (nil = every studied IXP). It is the one rule for which IXPs a campaign
// measures: Run measures exactly the key's IXPs. It fails on an index
// that is not a studied IXP, on one selected twice (ErrDuplicateIXP) and
// on a selection whose every IXP is dark.
func NewCampaignKey(w *worldgen.World, seed int64, campaign lg.Config, detector core.Config, ixps []int) (CampaignKey, error) {
	k := CampaignKey{
		Seed:     seed,
		Campaign: effectiveCampaign(w, campaign),
		Detector: detector,
	}
	sel := make([]bool, w.NumStudied())
	for _, i := range ixps {
		switch {
		case i < 0 || i >= len(sel):
			return CampaignKey{}, fmt.Errorf("spread: IXP index %d is not a studied IXP", i)
		case sel[i]:
			return CampaignKey{}, fmt.Errorf("%w: %d", ErrDuplicateIXP, i)
		}
		sel[i] = true
	}
	lit := make([]bool, len(sel))
	for _, rec := range w.Ifaces {
		lit[rec.IXPIndex] = true
	}
	for i := range sel {
		if lit[i] && (sel[i] || len(ixps) == 0) {
			k.IXPs = append(k.IXPs, i)
		}
	}
	if len(k.IXPs) == 0 {
		return CampaignKey{}, fmt.Errorf("spread: every selected studied IXP is dark")
	}
	return k, nil
}

// Matches reports whether r was measured under exactly k's inputs — the
// one test every held or persisted campaign passes before it stands in
// for a run, so reusing one can never change a byte.
func (k CampaignKey) Matches(r *Result) bool {
	return k.sameRun(r) && slices.Equal(r.measured(), k.IXPs)
}

// sameRun is Matches without the IXP selection: whether r ran under k's
// seed, campaign and detector, the condition for splicing any of its IXPs.
func (k CampaignKey) sameRun(r *Result) bool {
	return r != nil && r.Seed == k.Seed && r.Campaign == k.Campaign && r.Detector.Equal(k.Detector)
}

// effectiveCampaign is the campaign configuration Run measures w under
// for the requested one: a zero Duration becomes the world's campaign
// length.
func effectiveCampaign(w *worldgen.World, c lg.Config) lg.Config {
	if c.Duration == 0 {
		c.Duration = time.Duration(w.CampaignDuration()) * 24 * time.Hour
	}
	return c
}
