package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/spread"
	"remotepeering/internal/worldgen"
)

// fuzzSeeds builds one small-but-complete snapshot, a world-only one, a
// world+dataset one carrying the cone sections files held while the
// format persisted cones, and two world-only ones whose world section
// breaks the graph's order (its first two networks swapped, its first
// provider key written twice), and renders them as flat images, once per
// process — the corpus seeds and the oracle images the fuzz body mutates.
var fuzzSeeds = sync.OnceValue(func() (seeds struct{ full, world, cones, disordered, repeatedKey []byte }) {
	w, err := worldgen.Generate(worldgen.Config{Seed: 13, LeafNetworks: 80})
	if err != nil {
		panic(err)
	}
	ds, err := netflow.Collect(w, netflow.Config{Seed: 17, Intervals: 24})
	if err != nil {
		panic(err)
	}
	res, err := spread.Run(w, spread.Options{
		Seed: 19,
		IXPs: []int{0, 1},
		Campaign: lg.Config{
			Duration:   2 * 24 * time.Hour,
			PCHRounds:  1,
			RIPERounds: 1,
		},
	})
	if err != nil {
		panic(err)
	}
	image := func(s *Snapshot) []byte {
		var b bytes.Buffer
		if _, err := WriteFlat(&b, s); err != nil {
			panic(err)
		}
		return b.Bytes()
	}
	seeds.full = image(&Snapshot{World: w, Dataset: ds, Spread: res})
	seeds.world = image(&Snapshot{World: w})
	seeds.cones = withSections(image(&Snapshot{World: w, Dataset: ds}), coneSections()...)
	worldImage := func(payload []byte) []byte {
		var plane []byte
		for _, a := range w.Graph.ASNs() {
			plane = binary.LittleEndian.AppendUint32(plane, uint32(a))
		}
		img, err := layoutFlat([]flatSection{payloadSection(flatWorld, payload), payloadSection(flatASNs, plane)})
		if err != nil {
			panic(err)
		}
		return img
	}
	seeds.disordered = worldImage(swapFirstNetworks(encodeWorld(w)))
	seeds.repeatedKey = worldImage(repeatFirstProviderKey(encodeWorld(w)))
	return seeds
})

// networkBounds returns where a world payload's network records start,
// one offset per network, followed by the end of the last one, which is
// where the provider relation starts.
func networkBounds(payload []byte) []int {
	d := &dec{buf: payload}
	d.varint()
	d.intv()
	d.f64()
	d.intv()
	n := d.uvarint()
	bounds := []int{d.off}
	for i := uint64(0); i < n; i++ {
		d.uvarint()
		d.str()
		d.u8()
		d.str()
		d.u8()
		d.intv()
		d.varint()
		bounds = append(bounds, d.off)
	}
	return bounds
}

// swapFirstNetworks returns the world payload with its first two network
// records swapped, so the networks no longer ascend.
func swapFirstNetworks(payload []byte) []byte {
	b := networkBounds(payload)
	out := append([]byte(nil), payload[:b[0]]...)
	out = append(out, payload[b[1]:b[2]]...)
	out = append(out, payload[b[0]:b[1]]...)
	return append(out, payload[b[2]:]...)
}

// repeatFirstProviderKey returns the world payload with the provider
// relation's first key, its length and its list written twice.
func repeatFirstProviderKey(payload []byte) []byte {
	b := networkBounds(payload)
	rels := b[len(b)-1]
	d := &dec{buf: payload, off: rels}
	count := d.uvarint()
	first := d.off
	d.uvarint()
	for n := d.uvarint(); n > 0; n-- {
		d.uvarint()
	}
	out := binary.AppendUvarint(append([]byte(nil), payload[:rels]...), count+1)
	out = append(out, payload[first:d.off]...)
	return append(out, payload[first:]...)
}

// TestFlatWorldOrderCorrupt pins the order the world section's graph must
// come in, the order its dense form holds it: a file whose networks do not
// ascend, or whose relation repeats a key, fails to materialize with
// ErrCorrupt.
func TestFlatWorldOrderCorrupt(t *testing.T) {
	seeds := fuzzSeeds()
	for name, img := range map[string][]byte{"networks out of order": seeds.disordered, "repeated provider key": seeds.repeatedKey} {
		a, err := AttachBytes(img)
		if err != nil {
			t.Fatalf("%s: attach: %v", name, err)
		}
		if _, err := a.Snapshot(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: materialize err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzReadSnapshot pins the decoder contract: arbitrary input produces
// either a valid snapshot or a typed error — never a panic, never an
// untyped error. The flat directory/offset arithmetic and the
// hand-rolled bounds checks of the varint payloads inside it are exactly
// the code this exercises.
func FuzzReadSnapshot(f *testing.F) {
	seeds := fuzzSeeds()
	full, world := seeds.full, seeds.world
	f.Add(full)
	f.Add(world)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])
	f.Add(full[:flatHeaderSize+10]) // directory cut
	f.Add(world[:len(world)/2])
	// Flips in the version, the section count, a directory name, the
	// first payload, and two deeper payload offsets.
	for _, at := range []int{9, 13, flatHeaderSize + 1, flatPayloadBase + 3, len(full) / 3, len(full) - 5} {
		mut := append([]byte(nil), full...)
		mut[at] ^= 0x40
		f.Add(mut)
	}
	worldFlip := append([]byte(nil), world...)
	worldFlip[flatPayloadBase+7] ^= 0x40
	f.Add(worldFlip)
	// A retired flat version with a valid directory CRC.
	old := append([]byte(nil), world...)
	binary.LittleEndian.PutUint16(old[8:], FlatVersion-1)
	refixDirCRC(old)
	f.Add(old)
	f.Add([]byte("RPSNAP1\n"))
	f.Add([]byte("RPSNAP2\n"))
	f.Add([]byte{})
	f.Add(seeds.cones)
	f.Add(seeds.disordered)
	f.Add(seeds.repeatedKey)

	typed := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("untyped decode error: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := AttachBytes(data)
		typed(t, err)
		if err != nil {
			return
		}
		s, err := a.Snapshot()
		typed(t, err)
		if err == nil && (s == nil || s.World == nil) {
			t.Error("Attach materialized success without a world")
		}
	})
}
