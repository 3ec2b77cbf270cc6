// Command rpworld generates and inspects the synthetic world: the AS-level
// economy, the 65 IXPs with their memberships and ground-truth remote
// peers, the hazard assignments at the studied IXPs, and the registry view.
// With -ticks it also evolves the world forward through the tick engine —
// membership churn, traffic drift, price walks, occasional outages — and
// with -journal the timeline is durable: an append-only event journal plus
// periodic checkpoints, from which a killed run resumes to byte-identical
// state.
//
// Usage:
//
//	rpworld [-seed N] [-leaves N] [-ixp ACRONYM] [-save world.flat] [-load world.flat]
//	rpworld -seed 1 -ticks 50 -journal evo/ -tick 'joins=3,leaves=2,outage=0.02'
//
// -save persists the generated (or evolved) world as a snapshot for
// rpserve and the other tools' -load flags; -load inspects an existing
// snapshot instead of regenerating. -ticks names an absolute target tick,
// so re-running with the same -journal continues the same timeline: a run
// to 30 then a run to 50 lands on exactly the bytes of one run to 50.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"remotepeering"
	"remotepeering/internal/cli"
)

var fatal = cli.Fataler("rpworld")

func main() {
	common := cli.CommonFlags()
	snapFlags := cli.SnapshotFlags()
	ixp := flag.String("ixp", "", "show membership detail for one IXP acronym")
	ticks := flag.Int("ticks", 0, "evolve the world to this absolute tick (0 = don't tick; with -journal, a lower-or-equal target just recovers)")
	journalDir := flag.String("journal", "", "evolution directory holding the append-only journal and checkpoints; an existing journal resumes its timeline")
	tickSpec := flag.String("tick", "", "evolution regime spec, e.g. seed=7,joins=3,leaves=2,traffic=0.02,outage=0.01,checkpoint=16 (empty = defaults; a resumed journal's recorded regime wins)")
	fsync := flag.String("fsync", "", "journal sync policy: commit (every acked tick durable, the default), checkpoint, or off; overrides the spec's fsync key")
	logLevel := flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
	flag.Parse()
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", *logLevel))
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})))
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	w, _, err := snapFlags.ResolveWorld(common)
	if err != nil {
		fatal(err)
	}

	snap := &remotepeering.Snapshot{World: w}
	if *ticks > 0 || *journalDir != "" {
		if snap, err = evolve(w, *ticks, *journalDir, *tickSpec, *fsync, *common.Workers); err != nil {
			fatal(err)
		}
		w = snap.World
	}
	if err := snapFlags.SaveSnapshot(snap); err != nil {
		fatal(err)
	}

	if *ixp != "" {
		x, xi, err := w.IXPByAcronym(*ixp)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s — %s (%s, %s), subnet %s, peak %.2f Tbps\n",
			x.Acronym, x.FullName, x.City(), x.Country, x.Subnet, x.PeakTrafficTbps)
		fmt.Printf("membership slots: %d, distinct members: %d, remote: %d\n",
			len(x.Members), len(x.MemberASNs()), x.RemoteMemberCount())
		fmt.Printf("LGs: PCH=%v RIPE=%v, inter-site delay: %v\n",
			x.HasPCHLG, x.HasRIPELG, w.InterSiteDelay(xi))
		for _, m := range x.Members {
			if !m.Remote {
				continue
			}
			n := w.Graph.Network(m.ASN)
			fmt.Printf("  remote: AS%-6d %-26s from %-14s via %s (%s)\n",
				m.ASN, n.Name, m.AccessCity, m.Provider, m.IP)
		}
		return
	}

	fmt.Printf("networks: %d  (tier-1s: %d, NRENs: %d)\n", w.Graph.Len(), len(w.Tier1s), len(w.NRENs))
	fmt.Printf("RedIRIS: AS%d (transit from AS%d, AS%d; GÉANT AS%d)\n",
		w.RedIRIS, w.Transit1, w.Transit2, w.Geant)
	fmt.Printf("IXPs: %d total, %d studied; probe-target interfaces: %d\n\n",
		len(w.IXPs), w.NumStudied(), len(w.Ifaces))

	fmt.Printf("%-12s %-14s %8s %8s %7s %5s %5s\n",
		"IXP", "city", "members", "distinct", "remote", "PCH", "RIPE")
	for i, x := range w.IXPs {
		studied := ""
		if i < w.NumStudied() {
			studied = "*"
		}
		fmt.Printf("%-12s %-14s %8d %8d %7d %5v %5v %s\n",
			x.Acronym, x.City(), len(x.Members), len(x.MemberASNs()),
			x.RemoteMemberCount(), x.HasPCHLG, x.HasRIPELG, studied)
	}

	fmt.Println("\nhazards at studied IXPs:")
	counts := map[string]int{}
	for _, r := range w.Ifaces {
		counts[r.Hazard.String()]++
	}
	for _, k := range []string{"none", "blackhole", "flaky", "ttl-switch", "odd-ttl", "misdirect", "congested", "far-site", "asn-churn"} {
		fmt.Printf("  %-12s %d\n", k, counts[k])
	}
}

// evolve runs the living world: build or recover the tick engine, advance
// to the absolute target, narrate each committed tick, print the window's
// newspaper, and hand back the evolved snapshot payload (world + Tick
// section) for -save.
func evolve(w *remotepeering.World, target int, dir, spec, fsync string, workers int) (*remotepeering.Snapshot, error) {
	cfg, err := remotepeering.ParseTickConfig(spec)
	if err != nil {
		return nil, err
	}
	cfg.Pipeline.Workers = workers
	if fsync != "" {
		if cfg.Fsync, err = remotepeering.ParseJournalSyncPolicy(fsync); err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	var eng *remotepeering.TickEngine
	if dir != "" {
		eng, err = remotepeering.OpenTickEngine(ctx, dir, w, cfg)
	} else {
		eng, err = remotepeering.NewTickEngine(ctx, w, cfg)
	}
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	from := eng.Tick()
	if from > 0 {
		slog.Info("recovered journal", "dir", dir, "tick", from)
	}
	results, err := eng.AdvanceTo(ctx, uint64(target))
	for _, r := range results {
		ev := strings.Join(r.Events, " ")
		if ev == "" {
			ev = "(quiet)"
		}
		fmt.Printf("tick %4d  [%-26s] remote=%3d offload=%5.1f%% viable=%-5v %s\n",
			r.Tick, r.Stages, r.Metrics.DetectedRemote, r.Metrics.OffloadedFrac*100,
			r.Metrics.Viable, ev)
	}
	if err != nil {
		// Partial progress is already durable when journalled; report how
		// far the timeline got before failing.
		return nil, fmt.Errorf("advance stopped at tick %d: %w", eng.Tick(), err)
	}
	fmt.Println()
	fmt.Print(eng.Newspaper(int(eng.Tick() - from)).String())

	if err := eng.Close(); err != nil {
		return nil, err
	}
	return &remotepeering.Snapshot{World: eng.World(), Tick: eng.State()}, nil
}
