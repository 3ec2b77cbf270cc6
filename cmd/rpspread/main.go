// Command rpspread reproduces Section 3 of the paper: it generates the
// synthetic world, runs the four-month looking-glass campaign across the
// 22 studied IXPs, applies the six-filter detector, and prints Table 1 and
// Figures 2, 3, 4a and 4b, plus a ground-truth validation the paper could
// only sample (Section 3.3).
//
// Usage:
//
//	rpspread [-seed N] [-measure-seed N] [-leaves N] [-only table1,fig2,...]
package main

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"time"

	"remotepeering"
	"remotepeering/internal/cli"
	"remotepeering/internal/spread"
)

var fatal = cli.Fataler("rpspread")

func main() {
	common := cli.CommonFlags()
	snapFlags := cli.SnapshotFlags()
	measureSeed := flag.Int64("measure-seed", 2, "measurement-side seed")
	only := flag.String("only", "", "comma-separated subset: table1,fig2,fig3,fig4a,fig4b,validate")
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	show := cli.Selector(*only)

	start := time.Now()
	w, snap, err := snapFlags.ResolveWorld(common)
	if err != nil {
		fatal(err)
	}
	// A snapshot carrying this exact campaign answers without the
	// four-month simulation: its rehydrated report is byte-identical to a
	// re-run. Dark IXPs (an evolved world's outages) are not measured.
	key, err := spread.NewCampaignKey(w, *measureSeed, remotepeering.CampaignConfig{}, remotepeering.DetectorConfig{}, nil)
	if err != nil {
		fatal(err)
	}
	res, _, err := cli.Baseline(snap).Campaign(context.Background(), w, key, *common.Workers, nil)
	if err != nil {
		fatal(err)
	}
	out := cli.MergeSnapshot(snap, w)
	out.Spread = res
	if err := snapFlags.SaveSnapshot(out); err != nil {
		fatal(err)
	}
	rep := res.Report
	fmt.Printf("# spread study: %d observations, %d analyzed interfaces (%.1fs)\n\n",
		res.Observations, len(rep.Analyzed()), time.Since(start).Seconds())

	if show("table1") {
		fmt.Println("## Table 1 — studied IXPs and analyzed interfaces")
		fmt.Printf("%-10s %8s %9s %7s\n", "IXP", "probed", "analyzed", "remote")
		for _, row := range rep.Table1() {
			fmt.Printf("%-10s %8d %9d %7d\n", row.Acronym, row.Probed, row.Analyzed, row.Remote)
		}
		fmt.Println("discards by filter:")
		for _, f := range []remotepeering.Filter{
			remotepeering.FilterSampleSize, remotepeering.FilterTTLSwitch,
			remotepeering.FilterTTLMatch, remotepeering.FilterRTTConsistent,
			remotepeering.FilterLGConsistent, remotepeering.FilterASNChange,
		} {
			fmt.Printf("  %-15s %d\n", f, rep.Discards[f])
		}
		fmt.Println()
	}

	if show("fig2") {
		fmt.Println("## Figure 2 — CDF of minimum RTTs (ms)")
		cdf, err := rep.Figure2CDF()
		if err != nil {
			fatal(err)
		}
		for _, ms := range []float64{0.1, 0.3, 0.5, 1, 2, 5, 10, 20, 50, 100, 200} {
			fmt.Printf("  F(%6.1f ms) = %.4f\n", ms, cdf.At(ms))
		}
		fmt.Println()
	}

	if show("fig3") {
		fmt.Println("## Figure 3 — interface classification per IXP (minimum-RTT ranges)")
		fmt.Printf("%-10s %7s %9s %11s %10s\n", "IXP", "<10ms", "10-20ms", "20-50ms", ">=50ms")
		for _, row := range rep.Figure3() {
			fmt.Printf("%-10s %7d %9d %11d %10d\n", row.Acronym,
				row.Counts[0], row.Counts[1], row.Counts[2], row.Counts[3])
		}
		withRemote, total := rep.IXPsWithRemotePeering()
		fmt.Printf("IXPs with remote peering: %d of %d (%.0f%%); with intercontinental: %d\n\n",
			withRemote, total, 100*float64(withRemote)/float64(total), rep.IXPsWithIntercontinental())
	}

	if show("fig4a") {
		fmt.Println("## Figure 4a — IXP-count distributions")
		all, remote := rep.Figure4a()
		counts := make([]int, 0, len(all))
		for c := range all {
			counts = append(counts, c)
		}
		sort.Ints(counts)
		fmt.Printf("%9s %12s %17s\n", "IXPcount", "identified", "remotely-peering")
		totalNets, remoteNets := 0, 0
		for _, c := range counts {
			fmt.Printf("%9d %12d %17d\n", c, all[c], remote[c])
			totalNets += all[c]
			remoteNets += remote[c]
		}
		fmt.Printf("identified networks: %d, remotely peering: %d\n\n", totalNets, remoteNets)
	}

	if show("fig4b") {
		fmt.Println("## Figure 4b — interface classes of remotely peering networks, by IXP count")
		fr := rep.Figure4b()
		counts := make([]int, 0, len(fr))
		for c := range fr {
			counts = append(counts, c)
		}
		sort.Ints(counts)
		fmt.Printf("%9s %8s %9s %11s %10s\n", "IXPcount", "<10ms", "10-20ms", "20-50ms", ">=50ms")
		for _, c := range counts {
			f := fr[c]
			fmt.Printf("%9d %8.2f %9.2f %11.2f %10.2f\n", c, f[0], f[1], f[2], f[3])
		}
		fmt.Println()
	}

	if show("validate") {
		v := res.Validation
		fmt.Println("## Ground-truth validation (Section 3.3, exhaustive)")
		fmt.Printf("  TP=%d FP=%d TN=%d FN=%d  precision=%.3f recall=%.3f\n",
			v.TruePositives, v.FalsePositives, v.TrueNegatives, v.FalseNegatives,
			v.Precision(), v.Recall())
	}
}
