// Command rpecon reproduces Section 5 of the paper: it fits the decay
// parameter b from the Section 4 greedy-offload curve (equation 3),
// evaluates the optimal numbers of directly (ñ, eq. 11) and remotely (m̃,
// eq. 13) reached IXPs, and sweeps the economic-viability condition
// (eq. 14) across decay rates and price ratios.
//
// Usage:
//
//	rpecon [-seed N] [-traffic-seed N] [-leaves N] [-p/-g/-u/-h/-v prices]
package main

import (
	"flag"
	"fmt"
	"math"

	"remotepeering"
	"remotepeering/internal/cli"
)

var fatal = cli.Fataler("rpecon")

func main() {
	common := cli.CommonFlags()
	snapFlags := cli.SnapshotFlags()
	trafficSeed := flag.Int64("traffic-seed", 2, "traffic generation seed")
	pP := flag.Float64("p", 1.0, "normalised transit price p")
	pG := flag.Float64("g", 0.08, "direct peering per-IXP cost g")
	pU := flag.Float64("u", 0.15, "direct peering per-unit cost u")
	pH := flag.Float64("h", 0.02, "remote peering per-IXP cost h")
	pV := flag.Float64("v", 0.45, "remote peering per-unit cost v")
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	w, snap, err := snapFlags.ResolveWorld(common)
	if err != nil {
		fatal(err)
	}
	ds, _, err := cli.Baseline(snap).Traffic(w, remotepeering.TrafficConfig{Seed: *trafficSeed, Intervals: 288, Workers: *common.Workers}, nil)
	if err != nil {
		fatal(err)
	}
	study, err := remotepeering.NewOffloadStudyOptions(w, ds, remotepeering.OffloadOptions{Workers: *common.Workers})
	if err != nil {
		fatal(err)
	}
	defer func() {
		out := cli.MergeSnapshot(snap, w)
		out.Dataset = ds
		if err := snapFlags.SaveSnapshot(out); err != nil {
			fatal(err)
		}
	}()

	fmt.Println("# Section 5 — economic viability of remote peering")
	fmt.Println()
	fmt.Println("## Fitting b (eq. 3) from the greedy offload curves of Figure 9")
	in, out := ds.TransitTotals()
	total := in + out
	fmt.Printf("%-46s %8s %6s\n", "peer group", "b", "R2")
	var bAll float64
	for _, g := range remotepeering.PeerGroups {
		steps := study.Greedy(g, 30)
		// Fit the *offloadable* decay; FitDecayFromGreedy subtracts the
		// non-offloadable floor so the diminishing-marginal-utility
		// component is what the model generalises.
		fit, err := remotepeering.FitDecayFromGreedy(steps, total)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-46s %8.3f %6.3f\n", g.String(), fit.B, fit.R2)
		if g == remotepeering.GroupAll {
			bAll = fit.B
		}
	}
	fmt.Println()

	params := remotepeering.EconParams{P: *pP, G: *pG, U: *pU, H: *pH, V: *pV, B: bAll}
	if err := params.Validate(); err != nil {
		fatal(err)
	}
	fmt.Printf("## Model at fitted b = %.3f with p=%.2f g=%.2f u=%.2f h=%.2f v=%.2f\n",
		bAll, *pP, *pG, *pU, *pH, *pV)
	n := math.Max(0, params.OptimalDirectN())
	m := math.Max(0, params.OptimalRemoteM())
	fmt.Printf("  optimal direct IXPs  ñ = %.2f  (direct offload d̃ = %.2f)   [eq. 11]\n", n, params.DirectOffload())
	fmt.Printf("  optimal remote IXPs  m̃ = %.2f                               [eq. 13]\n", m)
	fmt.Printf("  viability ratio g(p−v)/(h(p−u)) = %.2f vs e^b = %.2f ⇒ viable: %v   [eq. 14]\n",
		params.ViabilityRatio(), math.Exp(params.B), params.RemoteViable())
	fmt.Printf("  viability threshold b* = %.3f\n", params.ViabilityThresholdB())
	br := params.Breakdown(n, m)
	fmt.Printf("  cost breakdown at (ñ, m̃): transit %.3f + direct %.3f+%.3f + remote %.3f+%.3f = %.3f (all-transit: %.3f)\n",
		br.Transit, br.DirectFixed, br.DirectTraffic, br.RemoteFixed, br.RemoteTraffic, br.Total(), params.P)
	fmt.Println()

	fmt.Println("## Viability sweep across decay rates b (eq. 14)")
	fmt.Printf("%8s %10s %8s %8s %8s\n", "b", "viable", "ñ", "m̃", "cost")
	for _, b := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0, 3.0} {
		p := params
		p.B = b
		n := math.Max(0, p.OptimalDirectN())
		m := math.Max(0, p.OptimalRemoteM())
		fmt.Printf("%8.2f %10v %8.2f %8.2f %8.3f\n", b, p.RemoteViable(), n, m, p.TotalCost(n, m))
	}
	fmt.Println()

	fmt.Println("## Viability sweep across g/h (the African-region effect, Section 5.2)")
	fmt.Printf("%8s %12s %10s\n", "g/h", "ratio", "b*")
	for _, gh := range []float64{1.5, 2, 4, 8, 16, 32} {
		p := params
		p.H = p.G / gh
		fmt.Printf("%8.1f %12.2f %10.3f\n", gh, p.ViabilityRatio(), p.ViabilityThresholdB())
	}
}
