// Command rpwhatif runs deterministic what-if scenarios over the synthetic
// world: it expands a scenario×seed grid, re-runs the full reproduction
// pipeline (spread study, traffic collection, offload analysis, economic
// model) in every cell on a perturbed clone of the world, and prints each
// cell's headline numbers diffed against the unperturbed baseline.
//
// Usage:
//
//	rpwhatif [-seed N] [-leaves N] [-workers N] \
//	         [-scenarios "name=op,op;name=op"] [-seeds 0,1] \
//	         [-k N] [-greedy N] [-days N] [-intervals N] [-csv] [-json] \
//	         [-load world.flat] [-save world.flat]
//
// -json emits the same stable rendering rpserve's /v1/whatif embeds, so a
// batch run and a server response diff cleanly. -load evaluates the grid
// over a snapshot world instead of regenerating.
//
// Ops: outage:<IXP>, latency:<all|city|country|continent>:<deltaMs>,
// churn:<IXP>:<join>:<leave>, traffic:<factor>, diurnal:<hours>,
// portprice:<factor>, remoteprice:<factor>.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"remotepeering"
	"remotepeering/internal/cli"
	"remotepeering/internal/lg"
)

var fatal = cli.Fataler("rpwhatif")

// defaultGrid is the showcase campaign run when -scenarios is not given:
// the paper's biggest offload IXP goes dark, a provider latency upgrade
// pulls intercity remotes under the detector threshold, a membership
// surge at LINX, a traffic surge, and a remote-price drop.
const defaultGrid = "ams-outage=outage:AMS-IX;" +
	"fast-pseudowires=latency:city:-3;" +
	"linx-surge=churn:LINX:40:10;" +
	"traffic-surge=traffic:1.5;" +
	"cheap-remote=remoteprice:0.5"

func main() {
	common := cli.CommonFlags()
	measureSeed := flag.Int64("measure-seed", 2, "measurement-side seed")
	trafficSeed := flag.Int64("traffic-seed", 3, "traffic generation seed")
	scenarios := flag.String("scenarios", defaultGrid, "grid spec: ';'-separated \"name=op,op\" scenarios")
	seeds := flag.String("seeds", "0", "comma-separated seed offsets (each scenario runs once per offset)")
	k := flag.Int("k", 5, "IXPs for the offload-coverage metric")
	greedy := flag.Int("greedy", 30, "greedy expansion depth for the decay fit")
	days := flag.Int("days", 0, "campaign length in days (0 = world default)")
	intervals := flag.Int("intervals", 0, "5-minute traffic intervals per cell (0 = full month)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of the text table")
	jsonOut := flag.Bool("json", false, "emit the stable JSON rendering (shared with rpserve /v1/whatif)")
	snapFlags := cli.SnapshotFlags()
	flag.Parse()
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *days < 0 || *days > lg.MaxDays {
		fatal(fmt.Errorf("-days %d: want 0 (world default) to %d", *days, lg.MaxDays))
	}
	if *greedy == 1 {
		fatal(fmt.Errorf("-greedy 1: the decay fit needs a depth of at least 2 (0 = default)"))
	}
	grid, err := remotepeering.ParseScenarioGrid(*scenarios)
	if err != nil {
		fatal(err)
	}
	if grid.Seeds, err = cli.Int64List(*seeds); err != nil {
		fatal(err)
	}

	start := time.Now()
	w, snap, err := snapFlags.ResolveWorld(common)
	if err != nil {
		fatal(err)
	}
	opts := remotepeering.ScenarioOptions{
		MeasureSeed:  *measureSeed,
		TrafficSeed:  *trafficSeed,
		Workers:      *common.Workers,
		CoverageIXPs: *k,
		GreedyIXPs:   *greedy,
		Intervals:    *intervals,
	}
	if *days > 0 {
		opts.Campaign.Duration = time.Duration(*days) * 24 * time.Hour
	}
	// Whatever a loaded snapshot persisted serves as the baseline when its
	// recorded inputs match this grid's.
	opts.Baseline = cli.Baseline(snap)
	report, err := remotepeering.RunScenarios(w, grid, opts)
	if err != nil {
		fatal(err)
	}
	if err := snapFlags.SaveSnapshot(cli.MergeSnapshot(snap, w)); err != nil {
		fatal(err)
	}

	switch {
	case *csvOut:
		if err := report.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
	case *jsonOut:
		if err := report.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		fmt.Print(report.Text())
		fmt.Printf("\n%d cells in %.1fs\n", len(report.Cells), time.Since(start).Seconds())
	}
}
