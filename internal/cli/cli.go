// Package cli holds the command-line plumbing every cmd/rp* tool was
// repeating: the common world flags (-seed, -leaves, -workers), the
// pprof flags (-cpuprofile, -memprofile), the "-only" section selector,
// and the fatal-error exit path.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/worldgen"
)

// Common are the world-generation and profiling flags shared by every
// rp* command.
type Common struct {
	Seed    *int64
	Leaves  *int
	Workers *int
	// CPUProfile and MemProfile are output paths for pprof profiles
	// (empty = off); StartProfiles consumes them. Perf work on the
	// tools attaches evidence through these instead of ad-hoc patches.
	CPUProfile *string
	MemProfile *string
}

// CommonFlags registers -seed, -leaves, -workers, -cpuprofile, and
// -memprofile on the default flag set with the tools' shared defaults
// and help strings.
func CommonFlags() Common {
	return Common{
		Seed:       flag.Int64("seed", 1, "world generation seed"),
		Leaves:     flag.Int("leaves", 0, "leaf network count (0 = paper scale)"),
		Workers:    flag.Int("workers", 0, "worker count (0 = one per CPU; output is identical for any value)"),
		CPUProfile: flag.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		MemProfile: flag.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// StartProfiles starts CPU profiling if -cpuprofile was given and returns
// a stop function that finishes the CPU profile and writes the heap
// profile if -memprofile was given. Call it after flag.Parse and defer
// the stop:
//
//	stop, err := common.StartProfiles()
//	if err != nil { fatal(err) }
//	defer stop()
//
// Note that os.Exit skips deferred calls, so tools should reach their
// fatal path before starting profiles or accept a truncated profile on
// fatal errors (the profile of a failed run is rarely the point).
func (c Common) StartProfiles() (stop func(), err error) {
	var cpuFile *os.File
	if *c.CPUProfile != "" {
		cpuFile, err = os.Create(*c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cli: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cli: cpuprofile: %w", err)
		}
	}
	memPath := *c.MemProfile
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cli: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cli: memprofile:", err)
			}
		}
	}, nil
}

// WorldConfig resolves the common flags into a world configuration. The
// returned type aliases remotepeering.WorldConfig, so it feeds
// GenerateWorld directly.
func (c Common) WorldConfig() worldgen.Config {
	return worldgen.Config{Seed: *c.Seed, LeafNetworks: *c.Leaves, Workers: *c.Workers}
}

// Snapshot holds the -save/-load flags every rp* tool shares: -load
// attaches the world (and whatever heavier artifacts the file carries)
// instead of regenerating, -save persists the run's artifacts for rpserve
// and later runs.
type Snapshot struct {
	Save *string
	Load *string
}

// SnapshotFlags registers -save and -load on the default flag set.
func SnapshotFlags() Snapshot {
	return Snapshot{
		Save: flag.String("save", "", "write a snapshot of this run's artifacts to the given path"),
		Load: flag.String("load", "", "attach the world (and any heavier artifacts) from a snapshot instead of regenerating"),
	}
}

// ResolveWorld returns the tool's world: the snapshot's when -load was
// given (alongside the full snapshot, so tools can reuse its dataset or
// campaign), a freshly generated one otherwise. A loaded snapshot owns
// its memory; the file is unmapped before ResolveWorld returns. When
// loading, the world-shape flags (-seed, -leaves) are ignored — the
// snapshot is the source of truth — and a note goes to stderr if they
// were set to non-defaults, so a surprising combination is at least
// visible.
func (s Snapshot) ResolveWorld(c Common) (*worldgen.World, *snapshot.Snapshot, error) {
	if *s.Load == "" {
		w, err := worldgen.Generate(c.WorldConfig())
		return w, nil, err
	}
	snap, err := snapshot.OpenFile(*s.Load)
	if err != nil {
		return nil, nil, err
	}
	if *c.Seed != 1 || *c.Leaves != 0 {
		fmt.Fprintf(os.Stderr, "note: -load given; ignoring -seed/-leaves (snapshot world has seed %d, %d leaves)\n",
			snap.World.Cfg.Seed, snap.World.Cfg.LeafNetworks)
	}
	return snap.World, snap, nil
}

// Baseline returns the holder of a loaded snapshot's campaign and
// dataset, through which a tool asks for the part it prints: the
// snapshot's own answers when its recorded inputs equal the request's
// exactly (spread.CampaignKey.Matches, netflow.Config.Matches), the
// predicate the server and the what-if engine use too, and anything else
// is computed. Without a snapshot it returns nil, which computes every
// part.
func Baseline(snap *snapshot.Snapshot) *scenario.Baseline {
	if snap == nil {
		return nil
	}
	return scenario.NewBaseline(snap.Spread, snap.Dataset)
}

// MergeSnapshot starts a -save payload from the loaded snapshot's layers
// — so `-load x -save x` never silently strips artifacts a previous tool
// paid for — and the caller overlays whatever this run (re)computed. The
// loaded layers are kept only when the world being saved is the loaded
// world itself (they describe no other world).
func MergeSnapshot(loaded *snapshot.Snapshot, w *worldgen.World) *snapshot.Snapshot {
	out := &snapshot.Snapshot{World: w}
	if loaded != nil && loaded.World == w {
		out.Dataset = loaded.Dataset
		out.Spread = loaded.Spread
	}
	return out
}

// SaveSnapshot writes the snapshot if -save was given, reporting the
// path and content digest to stderr so pipelines can log provenance.
func (s Snapshot) SaveSnapshot(snap *snapshot.Snapshot) error {
	if *s.Save == "" {
		return nil
	}
	digest, err := snapshot.SaveFlatFile(*s.Save, snap)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshot: wrote %s (digest %s)\n", *s.Save, digest)
	return nil
}

// Fataler returns the tool's fatal-error reporter: it prints
// "tool: err" to stderr and exits 1.
func Fataler(tool string) func(error) {
	return func(err error) {
		fmt.Fprintln(os.Stderr, tool+":", err)
		os.Exit(1)
	}
}

// Selector parses a -only comma-separated subset spec into a predicate;
// an empty spec selects every section.
func Selector(spec string) func(section string) bool {
	want := map[string]bool{}
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			want[s] = true
		}
	}
	return func(section string) bool { return len(want) == 0 || want[section] }
}

// Int64List parses a comma-separated integer list ("0,1,2").
func Int64List(spec string) ([]int64, error) {
	var out []int64
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cli: bad integer %q in list", s)
		}
		out = append(out, v)
	}
	return out, nil
}
