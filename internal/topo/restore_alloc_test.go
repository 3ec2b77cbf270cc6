package topo_test

import (
	"reflect"
	"testing"

	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

// denseParts reads a frozen graph's parts through its public surface, in
// the form Restore takes them.
func denseParts(g *topo.Graph) (nets []topo.Network, providers, customers, peers topo.Relation) {
	rels := []*topo.Relation{&providers, &customers, &peers}
	for _, asn := range g.ASNs() {
		nets = append(nets, *g.Network(asn))
		for k, of := range []func(topo.ASN) []topo.ASN{g.Providers, g.Customers, g.Peers} {
			if list := of(asn); len(list) > 0 {
				rels[k].Keys = append(rels[k].Keys, asn)
				rels[k].Lens = append(rels[k].Lens, uint32(len(list)))
				rels[k].List = append(rels[k].List, list...)
			}
		}
	}
	return nets, providers, customers, peers
}

// TestRestoreAllocatesPerGraph pins what restoring a generated world's
// graph allocates: the graph, its id plane, its id index and one offset
// plane per relation, whatever its network count. The networks and the
// lists are adopted, and no map, per-network record or per-list slice is
// built. The restored graph is deeply equal to the one Freeze compacted.
func TestRestoreAllocatesPerGraph(t *testing.T) {
	var counts []float64
	for _, leaves := range []int{300, 3000} {
		w, err := worldgen.Generate(worldgen.Config{Seed: 5, LeafNetworks: leaves})
		if err != nil {
			t.Fatal(err)
		}
		nets, providers, customers, peers := denseParts(w.Graph)
		g, err := topo.Restore(nets, providers, customers, peers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w.Graph) {
			t.Fatalf("%d leaves: the restored graph differs from the frozen one", leaves)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := topo.Restore(nets, providers, customers, peers); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d leaves, %d networks: %.0f allocations", leaves, g.Len(), allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] > 6 {
		t.Errorf("restoring allocated %.0f and %.0f objects for the small and the large world, want the same count, at most 6", counts[0], counts[1])
	}
}
