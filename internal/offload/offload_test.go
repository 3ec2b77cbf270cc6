package offload

import (
	"slices"
	"strings"
	"testing"

	"remotepeering/internal/netflow"
	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

var (
	worldCache *worldgen.World
	studyCache *Study
)

func testStudy(t *testing.T) *Study {
	t.Helper()
	if studyCache == nil {
		w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: 8000})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := netflow.Collect(w, netflow.Config{Seed: 7, Intervals: 288})
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStudy(w, ds)
		if err != nil {
			t.Fatal(err)
		}
		worldCache, studyCache = w, st
	}
	return studyCache
}

func allIXPs(s *Study) []int {
	out := make([]int, len(s.World.IXPs))
	for i := range out {
		out[i] = i
	}
	return out
}

func TestNewStudyValidation(t *testing.T) {
	if _, err := NewStudy(nil, nil); err == nil {
		t.Error("want error for nil inputs")
	}
	// An unfrozen graph assigns no dense ids to key the study's planes on.
	if _, err := NewStudy(&worldgen.World{Graph: topo.NewGraph()}, testStudy(t).Dataset); err == nil {
		t.Error("want error for a world whose graph is not frozen")
	}
}

// TestConesMatchCustomerCone pins the dense cones against the reference
// BFS, topo.Graph.CustomerCone: on two generated worlds, the study holds
// one cone per potential peer, by position, and every potential peer's
// cone, mapped back through Graph.ASN, is its customer cone. It
// runs with a shared cache (twice, so the second study reads cached
// rows), with no cache, and with a cache already bound to the other
// world's graph, which the study must not read and fills a private cache
// instead.
func TestConesMatchCustomerCone(t *testing.T) {
	var worlds [2]*worldgen.World
	var datasets [2]*netflow.Dataset
	for i := range worlds {
		w, err := worldgen.Generate(worldgen.Config{Seed: int64(3 + i), LeafNetworks: 1200})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := netflow.Collect(w, netflow.Config{Seed: 7, Intervals: 24})
		if err != nil {
			t.Fatal(err)
		}
		worlds[i], datasets[i] = w, ds
	}
	check := func(name string, w *worldgen.World, s *Study) {
		t.Helper()
		if s.PotentialPeerCount() == 0 {
			t.Fatalf("%s: no potential peers", name)
		}
		if len(s.cones) != len(s.peerIDs) {
			t.Fatalf("%s: %d cones for %d potential peers", name, len(s.cones), len(s.peerIDs))
		}
		for k, id := range s.peerIDs {
			asn := w.Graph.ASN(id)
			want := w.Graph.CustomerCone(asn)
			got := make([]topo.ASN, len(s.cones[k]))
			for i, c := range s.cones[k] {
				got[i] = w.Graph.ASN(c)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: cone of AS%d = %v, want %v", name, asn, got, want)
			}
		}
	}
	study := func(w *worldgen.World, ds *netflow.Dataset, cc *ConeCache) *Study {
		t.Helper()
		s, err := NewStudyOptions(w, ds, Options{Workers: 2, Cones: cc})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i, w := range worlds {
		ds := datasets[i]
		shared := NewConeCache()
		check("shared cache", w, study(w, ds, shared))
		if shared.Len() == 0 {
			t.Fatal("the shared cache holds no cones after a study")
		}
		check("shared cache, second study", w, study(w, ds, shared))
		check("no cache", w, study(w, ds, nil))

		other := worlds[1-i]
		foreign := NewConeCache()
		study(other, datasets[1-i], foreign)
		held := foreign.Len()
		check("cache bound to another graph", w, study(w, ds, foreign))
		if foreign.graph != other.Graph || foreign.Len() != held {
			t.Error("a study over another graph wrote the foreign cache")
		}
	}
}

// isPotential resolves an ASN to its dense id and reports whether it
// survived the Section 4.2 exclusions.
func isPotential(s *Study, asn topo.ASN) bool {
	id, ok := s.graph.ID(asn)
	return ok && s.potential.Has(id)
}

func TestExclusionRules(t *testing.T) {
	s := testStudy(t)
	w := s.World
	// Rule 1: transit providers.
	if isPotential(s, w.Transit1) || isPotential(s, w.Transit2) {
		t.Error("transit providers must be excluded")
	}
	// Rule 2: co-members of CATNIX/ESpanix, including all tier-1s.
	for _, t1 := range w.Tier1s {
		if isPotential(s, t1) {
			t.Errorf("tier-1 %d must be excluded (ESpanix member)", t1)
		}
	}
	// Rule 3: GÉANT members.
	for _, n := range w.NRENs {
		if isPotential(s, n) {
			t.Errorf("NREN %d must be excluded (GÉANT member)", n)
		}
	}
	if isPotential(s, w.RedIRIS) {
		t.Error("RedIRIS cannot peer with itself")
	}
	if s.PotentialPeerCount() == 0 {
		t.Fatal("no potential peers at all")
	}
}

func TestGroupMonotonicity(t *testing.T) {
	// Broader peer groups can only increase the offload potential.
	s := testStudy(t)
	ixps := allIXPs(s)
	var prev float64 = -1
	for _, g := range Groups {
		in, out := s.Potential(ixps, g)
		tot := in + out
		if tot < prev {
			t.Errorf("potential for %v (%.2e) below narrower group (%.2e)", g, tot, prev)
		}
		prev = tot
	}
}

func TestGroupFractionsMatchPaperShape(t *testing.T) {
	s := testStudy(t)
	in, out := s.Dataset.TransitTotals()
	ixps := allIXPs(s)

	g1In, g1Out := s.Potential(ixps, GroupOpen)
	g4In, g4Out := s.Potential(ixps, GroupAll)

	f1 := (g1In + g1Out) / (in + out)
	f4 := (g4In + g4Out) / (in + out)
	// Paper: ~8% for group 1, ~25-30% for group 4. The reduced-scale test
	// world shifts the absolute levels upward (fewer leaves ⇒ member
	// cones cover relatively more), so the assertions here are shape
	// bounds; the full-scale calibration is recorded in EXPERIMENTS.md.
	if f1 < 0.03 || f1 > 0.3 {
		t.Errorf("group 1 offload fraction = %.2f, want ≈ 0.08-0.2", f1)
	}
	if f4 < 0.15 || f4 > 0.6 {
		t.Errorf("group 4 offload fraction = %.2f, want ≈ 0.25-0.5", f4)
	}
	if f4 < 1.5*f1 {
		t.Errorf("group 4 (%.2f) should be a clear multiple of group 1 (%.2f)", f4, f1)
	}
}

func TestCoveredSubsetOfTransitUniverse(t *testing.T) {
	s := testStudy(t)
	cov := s.Covered(allIXPs(s), GroupAll)
	for asn := range cov {
		id, ok := s.graph.ID(asn)
		if !ok || !s.hasTraffic.Has(id) {
			t.Fatalf("covered network %d has no transit traffic", asn)
		}
	}
	// Coverage must be partial: far from zero, far from everything.
	n := len(s.Dataset.TransitEntries())
	if len(cov) < n/10 || len(cov) > n*7/10 {
		t.Errorf("covered %d of %d transit networks", len(cov), n)
	}
}

func TestSingleIXPOrderingAndTrio(t *testing.T) {
	s := testStudy(t)
	pots := s.SingleIXP(GroupAll)
	if len(pots) != len(s.World.IXPs) {
		t.Fatalf("%d potentials", len(pots))
	}
	for i := 1; i < len(pots); i++ {
		if pots[i].Total() > pots[i-1].Total() {
			t.Fatal("not sorted descending")
		}
	}
	// The big European trio must land in the top 10 (paper's Figure 7),
	// and Terremark's potential must be substantial.
	top10 := map[string]bool{}
	for _, p := range pots[:10] {
		top10[p.Acronym] = true
	}
	for _, acr := range []string{"AMS-IX", "LINX", "DE-CIX"} {
		if !top10[acr] {
			t.Errorf("%s missing from top-10 single-IXP potentials", acr)
		}
	}
}

func TestTrioPotentialsSimilar(t *testing.T) {
	// Figure 7: the offload potential is similar across the three largest
	// European IXPs because they share many members.
	s := testStudy(t)
	get := func(acr string) float64 {
		_, i, err := s.World.IXPByAcronym(acr)
		if err != nil {
			t.Fatal(err)
		}
		in, out := s.Potential([]int{i}, GroupAll)
		return in + out
	}
	ams, linx, dec := get("AMS-IX"), get("LINX"), get("DE-CIX")
	lo, hi := ams, ams
	for _, v := range []float64{linx, dec} {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 2.2*lo {
		t.Errorf("trio potentials too dissimilar: AMS=%.2e LINX=%.2e DE-CIX=%.2e", ams, linx, dec)
	}
}

func TestResidualSecondIXP(t *testing.T) {
	// Figure 8: residual potential at a second European trio IXP is much
	// lower than its full potential; Terremark's residual is less
	// affected (different membership).
	s := testStudy(t)
	idx := func(acr string) int {
		_, i, err := s.World.IXPByAcronym(acr)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	ams, linx, ter := idx("AMS-IX"), idx("LINX"), idx("Terremark")

	amsIn, amsOut := s.Potential([]int{ams}, GroupAll)
	amsFull := amsIn + amsOut
	amsResidual := s.Residual(linx, ams, GroupAll)
	if amsResidual >= amsFull {
		t.Errorf("residual (%.2e) must be below full (%.2e)", amsResidual, amsFull)
	}
	if amsResidual > 0.75*amsFull {
		t.Errorf("AMS-IX residual after LINX = %.0f%% of full; trio overlap should slash it",
			100*amsResidual/amsFull)
	}

	// Terremark retains a substantial fraction of its value after AMS-IX:
	// its South/Central American membership is largely disjoint from the
	// European trio's (the paper: ~50 of 267 members shared).
	terIn, terOut := s.Potential([]int{ter}, GroupAll)
	terFull := terIn + terOut
	terResidual := s.Residual(ams, ter, GroupAll)
	if terFull > 0 && terResidual/terFull < 0.2 {
		t.Errorf("Terremark keeps only %.0f%% of its potential after AMS-IX; its membership should be largely distinct",
			100*terResidual/terFull)
	}
}

func TestGreedyProperties(t *testing.T) {
	s := testStudy(t)
	in, out := s.Dataset.TransitTotals()
	steps := s.Greedy(GroupAll, 0)
	if len(steps) != len(s.World.IXPs) {
		t.Fatalf("greedy steps = %d", len(steps))
	}
	// Remaining is non-increasing; marginal gains are non-increasing
	// (diminishing marginal utility, the paper's central Section 4.3
	// observation).
	prevRemaining := in + out
	prevGain := 1e300
	for i, st := range steps {
		if st.Remaining() > prevRemaining+1 {
			t.Fatalf("step %d: remaining increased", i)
		}
		gain := prevRemaining - st.Remaining()
		if gain > prevGain+1 {
			t.Fatalf("step %d: marginal gain increased (%.2e after %.2e) — not greedy", i, gain, prevGain)
		}
		prevRemaining = st.Remaining()
		prevGain = gain
		if st.Acronym == "" {
			t.Fatal("step missing acronym")
		}
	}
	// Final cumulative offload equals the all-IXPs potential.
	pin, pout := s.Potential(allIXPs(s), GroupAll)
	last := steps[len(steps)-1]
	if diff := (pin + pout) - (last.OffloadedInBps + last.OffloadedOutBps); diff > 1 || diff < -1 {
		t.Errorf("greedy total differs from Potential by %v", diff)
	}
	// Five IXPs realize most of the achievable potential (paper).
	ach := pin + pout
	at5 := steps[4].OffloadedInBps + steps[4].OffloadedOutBps
	if at5 < 0.5*ach {
		t.Errorf("first 5 IXPs realize only %.0f%% of the potential", 100*at5/ach)
	}
}

func TestGreedyMaxIXPs(t *testing.T) {
	s := testStudy(t)
	steps := s.Greedy(GroupAll, 3)
	if len(steps) != 3 {
		t.Errorf("steps = %d, want 3", len(steps))
	}
}

// TestExpandReadsTheCurve pins Expand against its parts: the curve is
// Greedy at max(k, fit), the coverage is read at min(k, len) steps and
// the decay is FitDecay over the first min(fit, len) steps — for k below
// fit, above it, and past the IXP count. A one-step fit is an error.
func TestExpandReadsTheCurve(t *testing.T) {
	s := testStudy(t)
	in, out := s.Dataset.TransitTotals()
	n := len(s.World.IXPs)
	for _, c := range []struct {
		g      PeerGroup
		k, fit int
	}{{GroupAll, 3, 10}, {GroupOpen, 12, 4}, {GroupOpenSelective, n + 5, 8}, {GroupAll, 2, n + 9}} {
		x, err := s.Expand(c.g, c.k, c.fit)
		if err != nil {
			t.Fatalf("Expand(%v, %d, %d): %v", c.g, c.k, c.fit, err)
		}
		steps := s.Greedy(c.g, max(c.k, c.fit))
		if !slices.Equal(x.Steps, steps) {
			t.Fatalf("Expand(%v, %d, %d): %d steps differ from Greedy's %d", c.g, c.k, c.fit, len(x.Steps), len(steps))
		}
		kn := min(c.k, len(steps))
		chosen := make([]int, kn)
		for i := range chosen {
			chosen[i] = steps[i].IXPIndex
		}
		at := steps[kn-1]
		if want := (at.OffloadedInBps + at.OffloadedOutBps) / (in + out); x.OffloadedFrac != want {
			t.Errorf("Expand(%v, %d, %d): offloaded %v, want %v", c.g, c.k, c.fit, x.OffloadedFrac, want)
		}
		if want := s.CoveredSet(chosen, c.g).Count(); x.CoveredNets != want {
			t.Errorf("Expand(%v, %d, %d): %d networks covered, want %d", c.g, c.k, c.fit, x.CoveredNets, want)
		}
		fit, err := FitDecay(steps[:min(c.fit, len(steps))], in+out)
		if err != nil {
			t.Fatal(err)
		}
		if x.FittedB != fit.B {
			t.Errorf("Expand(%v, %d, %d): b = %v, want %v", c.g, c.k, c.fit, x.FittedB, fit.B)
		}
	}
	if _, err := s.Expand(GroupAll, 1, 1); err == nil || !strings.HasPrefix(err.Error(), "decay fit: ") {
		t.Errorf("a one-step fit: error %v, want a decay fit error", err)
	}
}

func TestGreedyInterfacesShape(t *testing.T) {
	s := testStudy(t)
	total := s.TotalInterfaces()
	if total < 2.4e9 || total > 2.8e9 {
		t.Errorf("total interfaces = %.2e, want ≈ 2.6e9", total)
	}
	steps := s.GreedyInterfaces(GroupAll, 10)
	if len(steps) != 10 {
		t.Fatalf("steps = %d", len(steps))
	}
	// Big first drop (paper: 2.6B → ≈1B), then diminishing.
	if steps[0].Remaining > 0.85*total {
		t.Errorf("first IXP leaves %.2f of the metric; want a large first drop", steps[0].Remaining/total)
	}
	prev := total
	prevGain := 1e300
	for i, st := range steps {
		gain := prev - st.Remaining
		if gain < 0 {
			t.Fatalf("step %d: metric increased", i)
		}
		if gain > prevGain+1 {
			t.Fatalf("step %d: interface gain increased", i)
		}
		prev, prevGain = st.Remaining, gain
	}
	// Narrower groups remove less.
	open := s.GreedyInterfaces(GroupOpen, 10)
	if open[9].Remaining < steps[9].Remaining {
		t.Error("open-only coverage cannot beat all-policies coverage")
	}
}

func TestTopContributors(t *testing.T) {
	s := testStudy(t)
	top := s.TopContributors(30)
	if len(top) != 30 {
		t.Fatalf("top = %d", len(top))
	}
	// Content networks feature heavily (paper: Microsoft, Yahoo, CDNs).
	contentish := 0
	originDominates := 0
	for _, c := range top {
		kind := s.World.Graph.Network(c.ASN).Kind
		if kind == topo.KindContent || kind == topo.KindCDN {
			contentish++
		}
		if c.OriginInBps+c.DestOutBps > c.TransientInBps+c.TransientOutBps {
			originDominates++
		}
	}
	if contentish < 5 {
		t.Errorf("only %d content/CDN networks among top 30", contentish)
	}
	// For a majority, origin+destination dominates transient (paper).
	if originDominates <= 15 {
		t.Errorf("origin/destination dominates for only %d of 30", originDominates)
	}
	// Sorted by combined contribution.
	for i := 1; i < len(top); i++ {
		ta := top[i-1].OriginInBps + top[i-1].DestOutBps + top[i-1].TransientInBps + top[i-1].TransientOutBps
		tb := top[i].OriginInBps + top[i].DestOutBps + top[i].TransientInBps + top[i].TransientOutBps
		if tb > ta {
			t.Fatal("contributors not sorted")
		}
	}
}

func TestTop10SelectiveUsedByGroup2(t *testing.T) {
	s := testStudy(t)
	if n := s.top10Selective.Count(); n == 0 || n > 10 {
		t.Fatalf("top10Selective size = %d", n)
	}
	s.top10Selective.ForEach(func(id int32) {
		asn := s.graph.ASN(id)
		if s.World.Graph.Network(asn).Policy != topo.PolicySelective {
			t.Errorf("non-selective network %d in top-10 selective", asn)
		}
		if !s.inGroupID(id, GroupOpenTop10Selective) {
			t.Errorf("top-10 selective %d not in group 2", asn)
		}
		if s.inGroupID(id, GroupOpen) {
			t.Errorf("selective network %d leaked into group 1", asn)
		}
	})
}

func TestPeerGroupString(t *testing.T) {
	for _, g := range Groups {
		if g.String() == "" {
			t.Errorf("group %d renders empty", int(g))
		}
	}
	if PeerGroup(9).String() == "" {
		t.Error("unknown group renders empty")
	}
}

func TestPotentialEmptyAndInvalidIXPs(t *testing.T) {
	s := testStudy(t)
	in, out := s.Potential(nil, GroupAll)
	if in != 0 || out != 0 {
		t.Error("no IXPs means no potential")
	}
	in, out = s.Potential([]int{-5, 9999}, GroupAll)
	if in != 0 || out != 0 {
		t.Error("invalid IXP indices must be ignored")
	}
}

func TestEstimateBillingRelief(t *testing.T) {
	s := testStudy(t)
	relief, err := s.EstimateBillingRelief(allIXPs(s), GroupAll)
	if err != nil {
		t.Fatal(err)
	}
	if relief.P95BeforeBps <= 0 || relief.P95AfterBps <= 0 {
		t.Fatalf("degenerate percentiles: %+v", relief)
	}
	if relief.P95AfterBps >= relief.P95BeforeBps {
		t.Error("offload must reduce the billing percentile")
	}
	// The p95 relief tracks the average offload share (Figure 5b: peaks
	// coincide), within a loose band.
	in, _ := s.Dataset.TransitTotals()
	gIn, _ := s.Potential(allIXPs(s), GroupAll)
	avgShare := gIn / in
	f := relief.ReliefFraction()
	if f < avgShare*0.5 || f > avgShare*1.5 {
		t.Errorf("p95 relief %.3f far from average offload share %.3f", f, avgShare)
	}
	// Narrower groups relieve less.
	openRelief, err := s.EstimateBillingRelief(allIXPs(s), GroupOpen)
	if err != nil {
		t.Fatal(err)
	}
	if openRelief.ReliefFraction() > f {
		t.Error("group 1 cannot out-relieve group 4")
	}
}

func TestBillingReliefZeroValue(t *testing.T) {
	var b BillingRelief
	if b.ReliefFraction() != 0 {
		t.Error("zero-value relief fraction should be 0")
	}
}
