package snapshot

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/worldgen"
)

// testWorld generates a reduced-scale world shared by the tests.
func testWorld(t testing.TB) *worldgen.World {
	t.Helper()
	w, err := worldgen.Generate(worldgen.Config{Seed: 7, LeafNetworks: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// roundTrip saves s to a file and opens it through OpenFile, which
// unmaps the file once the snapshot has materialized — the file-backed
// sibling of flatRoundTrip's in-memory image. Every file-backed
// round-trip test therefore reads a snapshot whose mapping is gone (a
// collection runs first), pinning that a materialized snapshot owns its
// memory: a view into the file would fault on the first read.
func roundTrip(t testing.TB, s *Snapshot) *Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.flat")
	digest, err := SaveFlatFile(path, s)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if loaded.Digest != digest {
		t.Errorf("digest mismatch: save %s, attach %s", digest, loaded.Digest)
	}
	return loaded
}

// TestWorldRoundTrip pins the strongest world guarantee the format can
// give over a mapped file: the attached World is deeply equal to the
// saved one — graph, adjacency order, dense ids, memberships, interface
// records, and the restored spec table included.
func TestWorldRoundTrip(t *testing.T) {
	w := testWorld(t)
	loaded := roundTrip(t, &Snapshot{World: w}).World

	// Materialise the loaded graph's lazy ASN cache so the comparison
	// sees both sides in the same (warm) state.
	loaded.Graph.ASNs()
	if !reflect.DeepEqual(w, loaded) {
		t.Fatal("loaded world is not deeply equal to the saved world")
	}
}

// TestWorldRoundTripPerturbed pins that a perturbed world (pseudowire
// shifts, membership surgery) snapshots faithfully too — the serve layer
// saves worlds that scenario ops have already touched.
func TestWorldRoundTripPerturbed(t *testing.T) {
	w := testWorld(t).Clone()
	w.PseudowireDelta[1] = -3 * time.Millisecond
	if err := w.RemoveIXPMembers(3); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, &Snapshot{World: w}).World
	loaded.Graph.ASNs()
	w.Graph.ASNs()
	if !reflect.DeepEqual(w, loaded) {
		t.Fatal("loaded perturbed world differs from the saved one")
	}
}

// TestDatasetRoundTrip pins dataset equivalence: entries round-trip
// exactly, derived tables rebuild bit-identically, and the loaded dataset
// synthesises the same series bytes as the live one.
func TestDatasetRoundTrip(t *testing.T) {
	w := testWorld(t)
	ds, err := netflow.Collect(w, netflow.Config{Seed: 11, Intervals: 288})
	if err != nil {
		t.Fatal(err)
	}
	liveIn, liveOut := ds.SeriesTotal(nil)

	loaded := roundTrip(t, &Snapshot{World: w, Dataset: ds})
	lds := loaded.Dataset
	if lds == nil {
		t.Fatal("loaded snapshot has no dataset")
	}
	if !reflect.DeepEqual(ds.Entries, lds.Entries) {
		t.Error("entries differ after round trip")
	}
	if !reflect.DeepEqual(ds.Cfg, lds.Cfg) {
		t.Errorf("config differs after round trip: %+v vs %+v", ds.Cfg, lds.Cfg)
	}
	in1, out1 := ds.TransitTotals()
	in2, out2 := lds.TransitTotals()
	if in1 != in2 || out1 != out2 {
		t.Errorf("transit totals differ: (%v,%v) vs (%v,%v)", in1, out1, in2, out2)
	}
	qIn, qOut := lds.SeriesTotal(nil)
	if !reflect.DeepEqual(liveIn, qIn) || !reflect.DeepEqual(liveOut, qOut) {
		t.Error("SeriesTotal over the loaded dataset differs from live")
	}
	// Transient accounting rebuilt in the same fold order.
	for _, e := range ds.TransitEntries()[:50] {
		a1, b1, c1 := ds.Transient(e.ASN)
		a2, b2, c2 := lds.Transient(e.ASN)
		if a1 != a2 || b1 != b2 || c1 != c2 {
			t.Fatalf("transient accounting differs for ASN %d", e.ASN)
		}
	}
}

// TestSpreadRoundTrip pins campaign equivalence: the rehydrated Result
// carries the same observations and reproduces the detector report and
// the ground-truth validation byte-for-byte.
func TestSpreadRoundTrip(t *testing.T) {
	w := testWorld(t)
	opts := spread.Options{
		Seed: 5,
		IXPs: []int{0, 2},
		Campaign: lg.Config{
			Duration:   10 * 24 * time.Hour,
			PCHRounds:  4,
			RIPERounds: 3,
		},
	}
	res, err := spread.Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}

	loaded := roundTrip(t, &Snapshot{World: w, Spread: res})
	lres := loaded.Spread
	if lres == nil {
		t.Fatal("loaded snapshot has no spread result")
	}
	if !reflect.DeepEqual(res.Raw, lres.Raw) {
		t.Error("raw observations differ after round trip")
	}
	if !reflect.DeepEqual(res.Report, lres.Report) {
		t.Error("detector report differs after round trip")
	}
	if res.Validation != lres.Validation {
		t.Errorf("validation differs: %+v vs %+v", res.Validation, lres.Validation)
	}
	if res.Observations != lres.Observations {
		t.Errorf("observation count differs: %d vs %d", res.Observations, lres.Observations)
	}
	// Ground truth answers identically for every probed interface.
	for _, o := range res.Raw {
		if res.Truth(o.IXPIndex, o.Target) != lres.Truth(o.IXPIndex, o.Target) {
			t.Fatalf("truth differs for IXP %d target %s", o.IXPIndex, o.Target)
		}
	}
}

// TestIntegrityFailures pins the typed-error contract of OpenFile on
// real files: retired containers (the RPSNAP1 stream, flat version 2)
// land on ErrVersion with regeneration advice, foreign files on
// ErrBadMagic, and a byte flipped anywhere in a flat file on ErrCorrupt
// or ErrTruncated — never success, never a panic.
func TestIntegrityFailures(t *testing.T) {
	w := testWorld(t)
	good := flatImage(t, &Snapshot{World: w})
	dir := t.TempDir()

	open := func(name string, data []byte) error {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(path)
		if err == nil {
			t.Errorf("%s: open succeeded", name)
		}
		if s != nil {
			t.Errorf("%s: got a non-nil snapshot alongside the error", name)
		}
		return err
	}

	if _, err := OpenFile(filepath.Join(dir, "missing.flat")); err == nil {
		t.Error("opening a missing file should fail")
	}
	if err := open("text file", []byte("hello, not a snapshot")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("text file: err = %v, want ErrBadMagic", err)
	}

	// A retired RPSNAP1 stream (magic + version 1 + a world section
	// header) and a flat file from before the content-only digest are
	// both snapshots this build refuses by version, with advice.
	v1 := append([]byte("RPSNAP1\n\x00\x01\x05world"), make([]byte, 64)...)
	v2 := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(v2[8:], 2)
	refixDirCRC(v2)
	for name, img := range map[string][]byte{"v1.rpsnap": v1, "v2.flat": v2} {
		err := open(name, img)
		if !errors.Is(err, ErrVersion) {
			t.Errorf("%s: err = %v, want ErrVersion", name, err)
		} else if !strings.Contains(err.Error(), "regenerate") {
			t.Errorf("%s: version error %q gives no regeneration advice", name, err)
		}
	}

	// Flip one byte at several depths — magic, header, directory, payload
	// — and the open must fail typed.
	for _, off := range []int{0, 9, flatHeaderSize + 30, flatPayloadBase + 20, len(good) / 3, len(good) / 2, len(good) - 10} {
		flipped := append([]byte(nil), good...)
		flipped[off] ^= 0x40
		err := open("flipped.flat", flipped)
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) &&
			!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
			t.Errorf("flip at %d: err = %v, want a typed integrity error", off, err)
		}
	}
}

// TestSaveFileAtomic pins SaveFlatFile and that the digest is stable
// across processes (same artifacts → same bytes → same digest): two saves
// of the same world agree, the file on disk hashes to the returned digest,
// and no temp file outlives the rename.
func TestSaveFileAtomic(t *testing.T) {
	w := testWorld(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.flat")
	d1, err := SaveFlatFile(path, &Snapshot{World: w})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := SaveFlatFile(filepath.Join(dir, "again.flat"), &Snapshot{World: w})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("digest not deterministic: %s vs %s", d1, d2)
	}
	if onDisk, err := DigestFile(path); err != nil || onDisk != d1 {
		t.Errorf("file digest %s (%v) differs from save digest %s", onDisk, err, d1)
	}
	loaded, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Digest != d1 {
		t.Errorf("opened digest %s differs from save digest %s", loaded.Digest, d1)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("directory holds %d files after two saves, want 2 (a temp file leaked?)", len(ents))
	}
}
