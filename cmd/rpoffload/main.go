// Command rpoffload reproduces Section 4 of the paper: the traffic offload
// potential of the RedIRIS-analogue NREN. It prints Figures 5a, 5b, 6, 7,
// 8, 9 and 10.
//
// Usage:
//
//	rpoffload [-seed N] [-traffic-seed N] [-leaves N] [-only fig5a,...]
package main

import (
	"flag"
	"fmt"
	"time"

	"remotepeering"
	"remotepeering/internal/cli"
)

var fatal = cli.Fataler("rpoffload")

func main() {
	common := cli.CommonFlags()
	snapFlags := cli.SnapshotFlags()
	trafficSeed := flag.Int64("traffic-seed", 2, "traffic generation seed")
	intervals := flag.Int("intervals", 0, "5-minute intervals (0 = full month)")
	only := flag.String("only", "", "comma-separated subset: fig5a,fig5b,fig6,fig7,fig8,fig9,fig10")
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
	// A snapshot carrying this exact dataset answers without the month of
	// collection.
	ds, _, err := cli.Baseline(snap).Traffic(w, remotepeering.TrafficConfig{Seed: *trafficSeed, Intervals: *intervals, Workers: *common.Workers}, nil)
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
	in, out := ds.TransitTotals()
	fmt.Printf("# offload study: %d transit networks, %.2f Gbps in / %.2f Gbps out, %d potential peers (%.1fs)\n\n",
		len(ds.TransitEntries()), in/1e9, out/1e9, study.PotentialPeerCount(), time.Since(start).Seconds())

	allIXPs := make([]int, len(w.IXPs))
	for i := range allIXPs {
		allIXPs[i] = i
	}

	if show("fig5a") {
		fmt.Println("## Figure 5a — rank-ordered contributions to transit traffic (bps)")
		entries := ds.TransitEntries()
		covered := study.Covered(allIXPs, remotepeering.GroupAll)
		fmt.Printf("%8s %14s %15s %9s\n", "rank", "inbound", "outbound", "offload?")
		for _, r := range []int{1, 2, 5, 10, 30, 100, 300, 1000, 3000, 10000, 20000, len(entries) - 1} {
			if r >= len(entries) {
				continue
			}
			e := entries[r-1]
			mark := ""
			if covered[e.ASN] {
				mark = "yes"
			}
			fmt.Printf("%8d %14.1f %15.1f %9s\n", r, e.AvgInBps, e.AvgOutBps, mark)
		}
		fmt.Println()
	}

	if show("fig5b") {
		fmt.Println("## Figure 5b — transit traffic and offload potential over time (Gbps)")
		// Print a daily profile: one sample per 2 hours over the first week.
		covered := study.Covered(allIXPs, remotepeering.GroupAll)
		fmt.Printf("%10s %10s %12s %11s %13s\n", "interval", "transitIn", "offloadIn", "transitOut", "offloadOut")
		for day := 0; day < 7; day++ {
			for h := 0; h < 24; h += 6 {
				iv := day*288 + h*12
				if iv >= ds.Cfg.Intervals {
					break
				}
				var tIn, tOut, oIn, oOut float64
				for _, e := range ds.TransitEntries() {
					i2, o2 := ds.Rate(e.ASN, iv)
					tIn += i2
					tOut += o2
					if covered[e.ASN] {
						oIn += i2
						oOut += o2
					}
				}
				fmt.Printf("%10d %10.2f %12.2f %11.2f %13.2f\n", iv, tIn/1e9, oIn/1e9, tOut/1e9, oOut/1e9)
			}
		}
		fmt.Println()
	}

	if show("fig6") {
		fmt.Println("## Figure 6 — top 30 contributors to the maximal offload potential (Mbps)")
		fmt.Printf("%-26s %9s %10s %11s %12s\n", "network", "originIn", "destOut", "transientIn", "transientOut")
		for _, c := range study.TopContributors(30) {
			fmt.Printf("%-26s %9.1f %10.1f %11.1f %12.1f\n", c.Name,
				c.OriginInBps/1e6, c.DestOutBps/1e6, c.TransientInBps/1e6, c.TransientOutBps/1e6)
		}
		fmt.Println()
	}

	if show("fig7") {
		fmt.Println("## Figure 7 — offload potential at a single IXP (Gbps), top 10 per peer group")
		top := study.SingleIXP(remotepeering.GroupAll)
		if len(top) > 10 {
			top = top[:10]
		}
		fmt.Printf("%-12s", "IXP")
		for _, g := range remotepeering.PeerGroups {
			fmt.Printf(" %9s", fmt.Sprintf("group%d", int(g)))
		}
		fmt.Println()
		for _, p := range top {
			fmt.Printf("%-12s", p.Acronym)
			for _, g := range remotepeering.PeerGroups {
				gi, go_ := study.Potential([]int{p.IXPIndex}, g)
				fmt.Printf(" %9.2f", (gi+go_)/1e9)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if show("fig8") {
		fmt.Println("## Figure 8 — residual potential at a second IXP (Gbps, all policies)")
		names := []string{"AMS-IX", "LINX", "DE-CIX", "Terremark"}
		idx := make([]int, len(names))
		for i, n := range names {
			_, j, err := w.IXPByAcronym(n)
			if err != nil {
				fatal(err)
			}
			idx[i] = j
		}
		fmt.Printf("%-12s %8s", "IXP", "full")
		for _, n := range names {
			fmt.Printf(" %12s", "after "+n[:min(6, len(n))])
		}
		fmt.Println()
		for i, n := range names {
			gi, go_ := study.Potential([]int{idx[i]}, remotepeering.GroupAll)
			fmt.Printf("%-12s %8.2f", n, (gi+go_)/1e9)
			for j := range names {
				if i == j {
					fmt.Printf(" %12s", "-")
					continue
				}
				fmt.Printf(" %12.2f", study.Residual(idx[j], idx[i], remotepeering.GroupAll)/1e9)
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if show("fig9") {
		fmt.Println("## Figure 9 — remaining transit traffic vs number of reached IXPs (Gbps)")
		fmt.Printf("%6s", "IXPs")
		for _, g := range remotepeering.PeerGroups {
			fmt.Printf(" %16s", fmt.Sprintf("group%d(rem%%)", int(g)))
		}
		fmt.Println()
		var curves [][]remotepeering.GreedyStep
		for _, g := range remotepeering.PeerGroups {
			curves = append(curves, study.Greedy(g, 30))
		}
		total := in + out
		for step := 0; step < 30; step++ {
			fmt.Printf("%6d", step+1)
			for _, curve := range curves {
				if step < len(curve) {
					rem := curve[step].Remaining()
					fmt.Printf(" %8.2f (%4.1f%%)", rem/1e9, 100*rem/total)
				}
			}
			fmt.Println()
		}
		fmt.Println()
	}

	if show("fig10") {
		fmt.Println("## Figure 10 — IP interfaces reachable only through transit (billions)")
		fmt.Printf("start: %.2f B\n", study.TotalInterfaces()/1e9)
		fmt.Printf("%6s", "IXPs")
		for _, g := range remotepeering.PeerGroups {
			fmt.Printf(" %10s", fmt.Sprintf("group%d", int(g)))
		}
		fmt.Println()
		var curves [][]float64
		for _, g := range remotepeering.PeerGroups {
			steps := study.GreedyInterfaces(g, 30)
			vals := make([]float64, len(steps))
			for i, s := range steps {
				vals[i] = s.Remaining
			}
			curves = append(curves, vals)
		}
		for step := 0; step < 30; step++ {
			fmt.Printf("%6d", step+1)
			for _, c := range curves {
				if step < len(c) {
					fmt.Printf(" %10.3f", c[step]/1e9)
				}
			}
			fmt.Println()
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
