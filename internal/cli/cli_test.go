package cli

import (
	"reflect"
	"testing"

	"remotepeering/internal/netflow"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/worldgen"
)

func TestSelector(t *testing.T) {
	all := Selector("")
	if !all("anything") {
		t.Fatal("empty spec must select everything")
	}
	some := Selector(" table1 , fig2 ")
	if !some("table1") || !some("fig2") || some("fig3") {
		t.Fatal("subset spec selected the wrong sections")
	}
}

func TestInt64List(t *testing.T) {
	got, err := Int64List(" 0, 1 ,-2 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int64{0, 1, -2}) {
		t.Fatalf("got %v", got)
	}
	if _, err := Int64List("1,x"); err == nil {
		t.Fatal("bad integer should fail")
	}
	if got, err := Int64List(" , "); err != nil || got != nil {
		t.Fatalf("blank list: got %v, %v", got, err)
	}
}

func TestWorldConfig(t *testing.T) {
	seed, leaves, workers := int64(9), 1234, 4
	c := Common{Seed: &seed, Leaves: &leaves, Workers: &workers}
	cfg := c.WorldConfig()
	if cfg.Seed != 9 || cfg.LeafNetworks != 1234 || cfg.Workers != 4 {
		t.Fatalf("unexpected config %+v", cfg)
	}
}

// TestMergeSnapshot pins that -load x -save x keeps the loaded layers
// (for the same world) instead of silently stripping them, and drops
// them when the world being saved is not the loaded one.
func TestMergeSnapshot(t *testing.T) {
	w := &worldgen.World{}
	loaded := &snapshot.Snapshot{
		World:   w,
		Dataset: &netflow.Dataset{},
	}
	out := MergeSnapshot(loaded, w)
	if out.Dataset != loaded.Dataset {
		t.Error("merge over the loaded world must keep its layers")
	}
	other := &worldgen.World{}
	out = MergeSnapshot(loaded, other)
	if out.Dataset != nil {
		t.Error("merge over a different world must not carry foreign layers")
	}
	if out = MergeSnapshot(nil, w); out.World != w || out.Dataset != nil {
		t.Error("merge without a loaded snapshot is world-only")
	}
}
