package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/stats"
	"remotepeering/internal/topo"
	"remotepeering/internal/worldgen"
)

// flatImage renders s as an in-memory flat image.
func flatImage(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFlat(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flatRoundTrip encodes s as an in-memory image, attaches it, and
// materializes.
func flatRoundTrip(t testing.TB, s *Snapshot) *Snapshot {
	t.Helper()
	a, err := AttachBytes(flatImage(t, s))
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// refixDirCRC recomputes the directory checksum after a test mutated the
// header or directory bytes, so the mutation under test is the one that
// trips, not the checksum.
func refixDirCRC(img []byte) {
	count := int(binary.LittleEndian.Uint32(img[12:]))
	dirEnd := flatHeaderSize + count*flatDirEntSize
	binary.LittleEndian.PutUint32(img[dirEnd:], crc32.ChecksumIEEE(img[:dirEnd]))
}

// TestFlatWorldRoundTrip pins the strongest world guarantee over an
// in-memory image: the materialized World is deeply equal to the saved
// one — including the dense ids the restored graph assigns.
func TestFlatWorldRoundTrip(t *testing.T) {
	w := testWorld(t)
	got := flatRoundTrip(t, &Snapshot{World: w}).World
	got.Graph.ASNs()
	if !reflect.DeepEqual(w, got) {
		t.Fatal("attached world is not deeply equal to the saved world")
	}
}

// TestFlatFullRoundTrip drives every section group through one in-memory
// image at once and pins the analyses byte-for-byte against the live
// objects — the all-at-once counterpart of the per-artifact tests.
func TestFlatFullRoundTrip(t *testing.T) {
	w := testWorld(t)
	ds, err := netflow.Collect(w, netflow.Config{Seed: 11, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	liveIn, liveOut := ds.SeriesTotal(nil)
	res, err := spread.Run(w, spread.Options{
		Seed: 5,
		IXPs: []int{0, 2},
		Campaign: lg.Config{
			Duration:   10 * 24 * time.Hour,
			PCHRounds:  4,
			RIPERounds: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	loaded := flatRoundTrip(t, &Snapshot{World: w, Dataset: ds, Spread: res})

	lds := loaded.Dataset
	if lds == nil {
		t.Fatal("attached snapshot has no dataset")
	}
	if !reflect.DeepEqual(ds.Entries, lds.Entries) {
		t.Error("entries differ through the flat format")
	}
	gotIn, gotOut := lds.SeriesTotal(nil)
	if !reflect.DeepEqual(liveIn, gotIn) || !reflect.DeepEqual(liveOut, gotOut) {
		t.Error("series over the attached dataset differ from the live synthesis")
	}

	lres := loaded.Spread
	if lres == nil {
		t.Fatal("attached snapshot has no spread result")
	}
	if !reflect.DeepEqual(res.Raw, lres.Raw) {
		t.Error("raw observations differ through the flat format")
	}
	if !reflect.DeepEqual(res.Report, lres.Report) {
		t.Error("detector report differs through the flat format")
	}
	if res.Validation != lres.Validation {
		t.Errorf("validation differs: %+v vs %+v", res.Validation, lres.Validation)
	}
	for _, o := range res.Raw[:min(500, len(res.Raw))] {
		if res.Truth(o.IXPIndex, o.Target) != lres.Truth(o.IXPIndex, o.Target) {
			t.Fatalf("truth differs for IXP %d target %s", o.IXPIndex, o.Target)
		}
	}
}

// TestFlatDigestsAgree pins the digest semantics: WriteFlat, SaveFlatFile,
// and the materialized snapshot all name the same content digest — the
// serve tier's cache key is path-independent — and Sniff tells snapshot
// files from foreign ones.
func TestFlatDigestsAgree(t *testing.T) {
	w := testWorld(t)
	s := &Snapshot{World: w}
	img := flatImage(t, s)
	var buf bytes.Buffer
	wDigest, err := WriteFlat(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.flat")
	fDigest, err := SaveFlatFile(path, s)
	if err != nil {
		t.Fatal(err)
	}
	if wDigest != fDigest {
		t.Errorf("WriteFlat digest %s != SaveFlatFile digest %s", wDigest, fDigest)
	}
	a, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Size() != len(img) {
		t.Errorf("attached size %d, image size %d", a.Size(), len(img))
	}
	got, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != wDigest {
		t.Errorf("materialized digest %s != write digest %s", got.Digest, wDigest)
	}

	ok, err := Sniff(path)
	if err != nil || !ok {
		t.Errorf("Sniff(flat file) = %v, %v; want true", ok, err)
	}
	foreign := filepath.Join(t.TempDir(), "README.txt")
	if err := os.WriteFile(foreign, []byte("not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err = Sniff(foreign)
	if err != nil || ok {
		t.Errorf("Sniff(foreign file) = %v, %v; want false", ok, err)
	}
}

// TestDigestIgnoresSeriesQueries pins the content address against query
// history: a (world, dataset) image hashes the same before and after the
// dataset answered series queries, because a snapshot carries no series.
func TestDigestIgnoresSeriesQueries(t *testing.T) {
	w := testWorld(t)
	ds, err := netflow.Collect(w, netflow.Config{Seed: 11, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{World: w, Dataset: ds}
	before, err := WriteFlat(&bytes.Buffer{}, s)
	if err != nil {
		t.Fatal(err)
	}
	ds.SeriesTotal(nil)
	ds.SeriesTotalSet(nil)
	after, err := WriteFlat(&bytes.Buffer{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("digest %s before series queries, %s after", before[:16], after[:16])
	}
}

// TestFlatIntegrityFailures pins the typed-error contract of the attach
// path: every structural corruption lands on the right sentinel and never
// panics, whether it is caught at attach (header/directory) or deferred
// to materialize (payload checksums).
func TestFlatIntegrityFailures(t *testing.T) {
	w := testWorld(t)
	good := flatImage(t, &Snapshot{World: w})

	attachErr := func(name string, img []byte, want error) {
		t.Helper()
		a, err := AttachBytes(img)
		if !errors.Is(err, want) {
			t.Errorf("%s: attach err = %v, want %v", name, err, want)
		}
		if a != nil {
			t.Errorf("%s: got a non-nil attachment alongside the error", name)
		}
	}
	materializeErr := func(name string, img []byte, want error) {
		t.Helper()
		a, err := AttachBytes(img)
		if err != nil {
			t.Errorf("%s: attach failed early: %v", name, err)
			return
		}
		if _, err := a.Snapshot(); !errors.Is(err, want) {
			t.Errorf("%s: materialize err = %v, want %v", name, err, want)
		}
	}

	attachErr("empty file", nil, ErrTruncated)
	attachErr("half a magic", good[:4], ErrTruncated)
	attachErr("header cut", good[:10], ErrTruncated)
	attachErr("directory cut", good[:flatHeaderSize+10], ErrTruncated)

	garbage := append([]byte("definitely not a snapshot file, "), good...)
	attachErr("text file", garbage, ErrBadMagic)

	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(future[8:], FlatVersion+1)
	refixDirCRC(future)
	attachErr("future version", future, ErrVersion)

	dirFlip := append([]byte(nil), good...)
	dirFlip[flatHeaderSize+1] ^= 0x40 // inside the first entry's name
	attachErr("directory flip", dirFlip, ErrCorrupt)

	misaligned := append([]byte(nil), good...)
	off := binary.LittleEndian.Uint64(misaligned[flatHeaderSize+flatNameSize:])
	binary.LittleEndian.PutUint64(misaligned[flatHeaderSize+flatNameSize:], off+1)
	refixDirCRC(misaligned)
	attachErr("misaligned offset", misaligned, ErrCorrupt)

	oob := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(oob[flatHeaderSize+flatNameSize+8:], uint64(len(good))+1)
	refixDirCRC(oob)
	attachErr("section past EOF", oob, ErrTruncated)

	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(huge[flatHeaderSize+flatNameSize+8:], ^uint64(0)-8)
	refixDirCRC(huge)
	attachErr("near-2^64 section length", huge, ErrTruncated)

	// Payload corruption is deferred: attach succeeds, materialize trips
	// the section checksum.
	for _, at := range []int{flatPayloadBase + 3, len(good) - 10} {
		flipped := append([]byte(nil), good...)
		flipped[at] ^= 0x40
		materializeErr("payload flip", flipped, ErrCorrupt)
	}

	// Truncating mid-payload is caught at attach by the directory bounds.
	attachErr("payload cut", good[:len(good)-1], ErrTruncated)
}

// withSections returns img with extra sections appended after its
// payloads, laid out the way a writer that knew them would have: the
// count is bumped, one directory entry per section is spliced in, and
// the existing payloads shift to the new payload base.
func withSections(img []byte, extra ...flatSection) []byte {
	count := int(binary.LittleEndian.Uint32(img[12:]))
	oldDirEnd := flatHeaderSize + count*flatDirEntSize
	newDirEnd := oldDirEnd + len(extra)*flatDirEntSize
	oldBase := alignUp(oldDirEnd+4, flatPayloadBase)
	newBase := alignUp(newDirEnd+4, flatPayloadBase)
	shift := uint64(newBase - oldBase)

	out := make([]byte, newBase, newBase+len(img))
	copy(out, img[:oldDirEnd])
	binary.LittleEndian.PutUint32(out[12:], uint32(count+len(extra)))
	for i := 0; i < count; i++ {
		at := flatHeaderSize + i*flatDirEntSize + flatNameSize
		binary.LittleEndian.PutUint64(out[at:], binary.LittleEndian.Uint64(out[at:])+shift)
	}
	out = append(out, img[oldBase:]...)
	for k, sec := range extra {
		off := alignUp(len(out), flatAlign)
		out = sec.put(append(out, make([]byte, off-len(out))...))
		ent := out[oldDirEnd+k*flatDirEntSize:]
		copy(ent[:flatNameSize], sec.name)
		binary.LittleEndian.PutUint64(ent[flatNameSize:], uint64(off))
		binary.LittleEndian.PutUint64(ent[flatNameSize+8:], uint64(len(out)-off))
		binary.LittleEndian.PutUint32(ent[flatNameSize+16:], crc32.ChecksumIEEE(out[off:]))
	}
	refixDirCRC(out)
	return out
}

// coneSections are customer-cone tables in the layout files carried
// while the format persisted them: dense ids, prefix offsets into the
// concatenated rows, and the rows.
func coneSections() []flatSection {
	return []flatSection{
		payloadSection("cones.ids", appendU32s(nil, []uint32{0, 3})),
		payloadSection("cones.offs", appendU32s(nil, []uint32{0, 1, 3})),
		payloadSection("cones.data", appendU32s(nil, []uint32{0, 3, 7})),
	}
}

// TestFlatUnknownSectionSkipped pins forward tolerance: an extra section
// a future writer might add is listed but ignored by materialize.
func TestFlatUnknownSectionSkipped(t *testing.T) {
	w := testWorld(t)
	img := withSections(flatImage(t, &Snapshot{World: w}), payloadSection("future.section", []byte("future payload")))

	a, err := AttachBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(a.Sections(), "future.section") {
		t.Error("extra section not listed")
	}
	got, err := a.Snapshot()
	if err != nil {
		t.Fatalf("materialize with unknown section: %v", err)
	}
	got.World.Graph.ASNs()
	if !reflect.DeepEqual(w, got.World) {
		t.Error("world differs when an unknown section is present")
	}
}

// TestFlatConeSectionsIgnored pins that a file written while snapshots
// persisted customer cones still attaches: its cones.ids, cones.offs and
// cones.data sections are listed and ignored, and the world and dataset
// materialize deeply equal to the saved ones.
func TestFlatConeSectionsIgnored(t *testing.T) {
	w := testWorld(t)
	ds, err := netflow.Collect(w, netflow.Config{Seed: 11, Intervals: 96})
	if err != nil {
		t.Fatal(err)
	}
	img := withSections(flatImage(t, &Snapshot{World: w, Dataset: ds}), coneSections()...)

	a, err := AttachBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range coneSections() {
		if !slices.Contains(a.Sections(), sec.name) {
			t.Errorf("section %q not listed", sec.name)
		}
	}
	got, err := a.Snapshot()
	if err != nil {
		t.Fatalf("materialize with cone sections: %v", err)
	}
	got.World.Graph.ASNs()
	if !reflect.DeepEqual(w, got.World) {
		t.Error("world differs when cone sections are present")
	}
	if !reflect.DeepEqual(ds, got.Dataset) {
		t.Error("dataset differs when cone sections are present")
	}
}

// TestFlatClosedAttachment pins the use-after-close surface: materialize
// on a closed attachment errors instead of faulting, and Close is
// idempotent.
func TestFlatClosedAttachment(t *testing.T) {
	w := testWorld(t)
	path := filepath.Join(t.TempDir(), "world.flat")
	if _, err := SaveFlatFile(path, &Snapshot{World: w}); err != nil {
		t.Fatal(err)
	}
	a, err := Attach(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := a.Snapshot(); err == nil {
		t.Error("materialize after Close should fail")
	}
}

// TestFlatRefusesPartialRaw pins that a campaign whose Raw holds only its
// re-simulated IXPs (a run through Reuse) is refused with a typed error
// rather than persisted as if it were the whole campaign.
func TestFlatRefusesPartialRaw(t *testing.T) {
	w := testWorld(t)
	opts := spread.Options{
		Seed:     5,
		IXPs:     []int{0, 2},
		Campaign: lg.Config{Duration: 10 * 24 * time.Hour, PCHRounds: 4, RIPERounds: 3},
	}
	full, err := spread.Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Reuse = &spread.Reuse{From: full, Dirty: func(idx int) bool { return idx == 2 }}
	spliced, err := spread.Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteFlat(&buf, &Snapshot{World: w, Spread: spliced}); !errors.Is(err, spread.ErrPartialRaw) {
		t.Fatalf("WriteFlat of a spliced campaign: %v, want ErrPartialRaw", err)
	}
}

// TestFlatUncomputableDatasetCorrupt pins that a well-formed image whose
// dataset section carries a config no dataset can be computed from — a
// NaN or infinite total, a phase past a time.Duration, a negative
// interval length — fails to materialize with ErrCorrupt instead of
// yielding a dataset whose totals, series and p95 are NaN.
func TestFlatUncomputableDatasetCorrupt(t *testing.T) {
	w := testWorld(t)
	for _, mutate := range []func(*netflow.Config){
		func(c *netflow.Config) { c.TotalInboundBps = math.NaN() },
		func(c *netflow.Config) { c.TotalOutboundBps = math.Inf(1) },
		func(c *netflow.Config) { c.PhaseHours = math.NaN() },
		func(c *netflow.Config) { c.PhaseHours = 1e300 },
		func(c *netflow.Config) { c.IntervalLength = -time.Minute },
	} {
		ds, err := netflow.Collect(w, netflow.Config{Seed: 11, Intervals: 24})
		if err != nil {
			t.Fatal(err)
		}
		mutate(&ds.Cfg)
		a, err := AttachBytes(flatImage(t, &Snapshot{World: w, Dataset: ds}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Snapshot(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("config %+v: materialize err = %v, want ErrCorrupt", ds.Cfg, err)
		}
	}
}

// TestWorldEncoderNeverRegrows pins a checkpoint's allocation: the world
// payload's size is computed from the world without encoding it, so
// neither encoding the world alone nor encoding a file image, into which
// the world, the AS-id plane and the dataset append in place, ever
// regrows its buffer; the image is allocated once, at the file's size.
// Addresses append in place too, so a save allocates per section, not
// per address. It holds for a generated world and for a churned clone,
// whose member lists and interface table changed. A campaign's
// observation rows are written into the image as well: a save with a
// campaign allocates no second buffer the size of its rows.
func TestWorldEncoderNeverRegrows(t *testing.T) {
	w := testWorld(t)
	churned := w.Clone()
	x := churned.IXPs[1]
	churned.RemoveMemberships(1, map[topo.ASN]bool{x.Members[0].ASN: true, x.Members[3].ASN: true})
	member := map[topo.ASN]bool{}
	for _, m := range x.Members {
		member[m.ASN] = true
	}
	src := stats.NewSource(9)
	joins := 0
	for _, asn := range churned.Graph.ASNs() {
		if joins == 3 {
			break
		}
		if !member[asn] {
			if err := churned.AddDirectMembership(1, asn, src); err != nil {
				t.Fatal(err)
			}
			joins++
		}
	}
	for name, w := range map[string]*worldgen.World{"generated": w, "churned": churned} {
		payload := encodeWorld(w)
		if size := worldSize(w); len(payload) != size || cap(payload) != size {
			t.Errorf("%s: world payload of %d bytes in a %d-byte buffer; worldSize says %d", name, len(payload), cap(payload), size)
		}
		ds, err := netflow.Collect(w, netflow.Config{Seed: 11, Intervals: 24})
		if err != nil {
			t.Fatal(err)
		}
		s := &Snapshot{World: w, Dataset: ds, Tick: &TickState{Tick: 8, Seed: 7}}
		img, err := encodeFlat(s)
		if err != nil {
			t.Fatal(err)
		}
		if cap(img) != len(img) {
			t.Errorf("%s: file image of %d bytes in a %d-byte buffer", name, len(img), cap(img))
		}
		if got := img[flatPayloadBase : flatPayloadBase+len(payload)]; !bytes.Equal(got, payload) {
			t.Errorf("%s: the image's world section differs from the world payload", name)
		}
		if allocs := testing.AllocsPerRun(3, func() { encodeFlat(s) }); allocs > 40 {
			t.Errorf("%s: encoding the file image made %.0f allocations, want at most 40", name, allocs)
		}
	}

	res, err := spread.Run(w, spread.Options{
		Seed:     5,
		IXPs:     []int{0},
		Campaign: lg.Config{Duration: 2 * 24 * time.Hour, PCHRounds: 1, RIPERounds: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &Snapshot{World: w, Spread: res}
	img, err := encodeFlat(s)
	if err != nil {
		t.Fatal(err)
	}
	if cap(img) != len(img) {
		t.Errorf("campaign: file image of %d bytes in a %d-byte buffer", len(img), cap(img))
	}
	rows := obsRowSize * len(res.Raw)
	extra := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encodeFlat(s)
		runtime.ReadMemStats(&after)
		extra = min(extra, after.TotalAlloc-before.TotalAlloc-uint64(len(img)))
	}
	if extra >= uint64(rows) {
		t.Errorf("campaign: encoding a %d-byte image allocated %d bytes beside it, at least its %d bytes of observation rows",
			len(img), extra, rows)
	}
}
