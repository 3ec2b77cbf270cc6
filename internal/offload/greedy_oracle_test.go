package offload

import (
	"fmt"
	"math"
	"testing"

	"remotepeering/internal/asindex"
	"remotepeering/internal/netflow"
	"remotepeering/internal/worldgen"
)

// eagerGreedy is the Figure 9 loop the lazy greedy replaced, kept as its
// oracle: every step scores every unchosen IXP against the covered set
// and takes the largest in+out gain, ties going to the smallest index.
func eagerGreedy(s *Study, g PeerGroup, maxIXPs int) []GreedyStep {
	totalIn, totalOut := s.Dataset.TransitTotals()
	if maxIXPs <= 0 || maxIXPs > len(s.World.IXPs) {
		maxIXPs = len(s.World.IXPs)
	}
	perIXP := s.masks(g).traffic
	covered := asindex.NewBitSet(s.graph.Len())
	chosen := make([]bool, len(perIXP))
	var steps []GreedyStep
	var cumIn, cumOut float64
	for step := 0; step < maxIXPs; step++ {
		best, bestGain := -1, -1.0
		var bestIn, bestOut float64
		for i := range perIXP {
			if chosen[i] {
				continue
			}
			in, out := perIXP[i].AndNotSum2(covered, s.trafficIn, s.trafficOut)
			if total := in + out; total > bestGain {
				best, bestGain = i, total
				bestIn, bestOut = in, out
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		covered.Or(perIXP[best])
		cumIn += bestIn
		cumOut += bestOut
		steps = append(steps, GreedyStep{
			IXPIndex:        best,
			Acronym:         s.World.IXPs[best].Acronym,
			OffloadedInBps:  cumIn,
			OffloadedOutBps: cumOut,
			RemainingInBps:  totalIn - cumIn,
			RemainingOutBps: totalOut - cumOut,
		})
	}
	return steps
}

// eagerGreedyInterfaces is the Figure 10 loop the lazy greedy replaced.
func eagerGreedyInterfaces(s *Study, g PeerGroup, maxIXPs int) []InterfaceStep {
	if maxIXPs <= 0 || maxIXPs > len(s.World.IXPs) {
		maxIXPs = len(s.World.IXPs)
	}
	weights := s.interfaceWeights()
	remaining := s.TotalInterfaces()
	perIXP := s.masks(g).full
	covered := asindex.NewBitSet(s.graph.Len())
	chosen := make([]bool, len(perIXP))
	var steps []InterfaceStep
	for step := 0; step < maxIXPs; step++ {
		best, bestGain := -1, -1.0
		for i := range perIXP {
			if chosen[i] {
				continue
			}
			if gain := perIXP[i].AndNotSum(covered, weights); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		covered.Or(perIXP[best])
		remaining -= bestGain
		steps = append(steps, InterfaceStep{IXPIndex: best, Acronym: s.World.IXPs[best].Acronym, Remaining: remaining})
	}
	return steps
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// firstGreedyDiff returns the first step at which two Figure 9 curves
// differ in an IXP or a bit of any rate, or -1 when they are identical.
func firstGreedyDiff(got, want []GreedyStep) int {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) {
			return i
		}
		g, w := got[i], want[i]
		if g.IXPIndex != w.IXPIndex || g.Acronym != w.Acronym ||
			!sameBits(g.OffloadedInBps, w.OffloadedInBps) || !sameBits(g.OffloadedOutBps, w.OffloadedOutBps) ||
			!sameBits(g.RemainingInBps, w.RemainingInBps) || !sameBits(g.RemainingOutBps, w.RemainingOutBps) {
			return i
		}
	}
	return -1
}

// firstInterfaceDiff is firstGreedyDiff for Figure 10 curves.
func firstInterfaceDiff(got, want []InterfaceStep) int {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) {
			return i
		}
		if got[i].IXPIndex != want[i].IXPIndex || got[i].Acronym != want[i].Acronym || !sameBits(got[i].Remaining, want[i].Remaining) {
			return i
		}
	}
	return -1
}

// TestLazyGreedyMatchesEager pins the lazy greedy to the eager oracle,
// step for step and bit for bit, for Greedy and GreedyInterfaces: over
// three generated worlds (600, 2,500 and 5,000 leaves) and a hand-built
// dataset with three transit networks, under the four peer groups and an
// out-of-range one, at depths 1, 2, 5, 30, all (0) and past the IXP
// count. In the hand-built dataset most IXPs cover no traffic, so they tie
// at zero gain and must be picked in ascending index order.
func TestLazyGreedyMatchesEager(t *testing.T) {
	type fixture struct {
		name string
		s    *Study
	}
	var fixtures []fixture
	var last *Study
	for _, c := range []struct {
		seed   int64
		leaves int
	}{{21, 600}, {22, 2500}, {23, 5000}} {
		w, err := worldgen.Generate(worldgen.Config{Seed: c.seed, LeafNetworks: c.leaves})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := netflow.Collect(w, netflow.Config{Seed: c.seed, Intervals: 24})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStudyOptions(w, ds, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("seed %d, %d leaves", c.seed, c.leaves), s})
		last = s
	}
	var few []netflow.Entry
	for _, e := range last.Dataset.Entries {
		if e.Transit && len(few) < 3 {
			few = append(few, e)
		}
	}
	tied, err := NewStudyOptions(last.World, &netflow.Dataset{Cfg: last.Dataset.Cfg, Entries: few}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"three-networks", tied})

	groups := append(append([]PeerGroup(nil), Groups...), PeerGroup(9))
	for _, f := range fixtures {
		n := len(f.s.World.IXPs)
		for _, g := range groups {
			for _, depth := range []int{1, 2, 5, 30, 0, n + 7} {
				if i := firstGreedyDiff(f.s.Greedy(g, depth), eagerGreedy(f.s, g, depth)); i >= 0 {
					t.Errorf("%s: Greedy(%v, %d) differs from the eager loop at step %d", f.name, g, depth, i)
				}
				if i := firstInterfaceDiff(f.s.GreedyInterfaces(g, depth), eagerGreedyInterfaces(f.s, g, depth)); i >= 0 {
					t.Errorf("%s: GreedyInterfaces(%v, %d) differs from the eager loop at step %d", f.name, g, depth, i)
				}
			}
		}
	}

	// The hand-built dataset does tie: once its networks are covered,
	// every remaining IXP adds nothing, and those come in ascending index
	// order.
	steps := tied.Greedy(GroupAll, 0)
	var zeros []int
	for i := 1; i < len(steps); i++ {
		if st := steps[i]; st.Remaining() == steps[i-1].Remaining() {
			if len(zeros) > 0 && st.IXPIndex < zeros[len(zeros)-1] {
				t.Fatalf("zero-gain step %d picks IXP %d after IXP %d: ties must go to the smallest index", i, st.IXPIndex, zeros[len(zeros)-1])
			}
			zeros = append(zeros, st.IXPIndex)
		}
	}
	if len(zeros) < len(steps)/2 {
		t.Fatalf("only %d of %d steps tie at zero gain; the fixture no longer exercises the tie-break", len(zeros), len(steps))
	}
}
