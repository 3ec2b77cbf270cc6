// Attach: the read side of the flat format. Attach maps a flat snapshot
// into the address space and validates only the fixed-size header and
// section directory — microseconds of work independent of file size. The
// expensive part, materializing the *World and rehydrating the analyses,
// happens on the first Snapshot() call, and it decodes every section by
// copy: the materialized Snapshot shares no memory with the mapping, so a
// caller can Close the attachment as soon as it has materialized
// (OpenFile does exactly that). Scenario clones over an attached world
// stay copy-on-write: the ops' dirty-stage masks decide which sections a
// cell rebuilds, exactly as they do over a freshly generated world.
//
// Materializing builds, per section: the world's frozen AS graph in its
// dense form (one network slice, one offset plane and one ASN list per
// relation, one id index; no map, per-network record or sort), its IXPs
// and probe-target records, and the IXP spec table; the dataset's entries,
// whose AS paths are windows of one array, with the traffic ranking
// netflow.Rehydrate derives from them; the campaign's observation stream
// in one slice, its ground truth and the detector report; and the tick
// state.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"
	"sync"

	"remotepeering/internal/spread"
	"remotepeering/internal/topo"
)

// Attached is a flat snapshot mapped (or held) in memory. The zero value
// is not usable; obtain one from Attach or AttachBytes.
//
// Lifetime: a materialized Snapshot owns its memory, so Close may come
// any time after Snapshot returns; only a later Snapshot call on a
// closed, never-materialized attachment fails.
type Attached struct {
	data  []byte
	unmap func() error
	dir   []flatDirEnt

	once sync.Once
	snap *Snapshot
	err  error
}

type flatDirEnt struct {
	name string
	off  int
	n    int
	crc  uint32
}

// Attach maps the flat snapshot at path and validates its header and
// section directory. It does not read the section payloads: attach cost
// is O(directory), not O(file). All failure paths return typed errors
// (ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt) — never a panic.
func Attach(path string) (*Attached, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		return nil, fmt.Errorf("%w: empty file", ErrTruncated)
	}
	if size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("snapshot: %s does not fit in memory", path)
	}
	data, unmap, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("snapshot: map %s: %w", path, err)
	}
	a, err := attach(data, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	return a, nil
}

// AttachBytes attaches an in-memory flat snapshot image (network
// transports, tests, fuzzing). The bytes are adopted and must not be
// mutated afterwards.
func AttachBytes(data []byte) (*Attached, error) {
	return attach(data, nil)
}

func attach(data []byte, unmap func() error) (*Attached, error) {
	if len(data) < len(magic) {
		if bytes.HasPrefix(magic, data) {
			return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrTruncated, len(data))
		}
		return nil, ErrBadMagic
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		if bytes.HasPrefix(data, magicFamily) {
			return nil, fmt.Errorf("%w: retired snapshot container %q; regenerate it from its seed",
				ErrVersion, bytes.TrimRight(data[:len(magic)], "\n"))
		}
		return nil, ErrBadMagic
	}
	if len(data) < flatHeaderSize {
		return nil, fmt.Errorf("%w: missing flat header", ErrTruncated)
	}
	if ver := binary.LittleEndian.Uint16(data[8:]); ver != FlatVersion {
		return nil, fmt.Errorf("%w: file has flat version %d, this build reads only %d (regenerate older files from their seeds)",
			ErrVersion, ver, FlatVersion)
	}
	count := int64(binary.LittleEndian.Uint32(data[12:]))
	dirEnd := int64(flatHeaderSize) + count*flatDirEntSize
	if dirEnd+4 > int64(len(data)) {
		return nil, fmt.Errorf("%w: directory of %d sections wants %d bytes, file has %d",
			ErrTruncated, count, dirEnd+4, len(data))
	}
	if got, want := crc32.ChecksumIEEE(data[:dirEnd]), binary.LittleEndian.Uint32(data[dirEnd:]); got != want {
		return nil, fmt.Errorf("%w: directory checksum mismatch", ErrCorrupt)
	}
	dir := make([]flatDirEnt, count)
	seen := make(map[string]bool, count)
	for i := range dir {
		ent := data[flatHeaderSize+i*flatDirEntSize:]
		name := string(bytes.TrimRight(ent[:flatNameSize], "\x00"))
		off := binary.LittleEndian.Uint64(ent[flatNameSize:])
		n := binary.LittleEndian.Uint64(ent[flatNameSize+8:])
		if name == "" {
			return nil, fmt.Errorf("%w: directory entry %d has an empty name", ErrCorrupt, i)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		seen[name] = true
		if off%flatAlign != 0 {
			return nil, fmt.Errorf("%w: section %q offset %d is not %d-byte aligned", ErrCorrupt, name, off, flatAlign)
		}
		// Overflow-safe bounds: compare in uint64 against the file size.
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %q wants [%d, %d+%d), file has %d bytes",
				ErrTruncated, name, off, off, n, len(data))
		}
		if off < uint64(dirEnd)+4 {
			return nil, fmt.Errorf("%w: section %q overlaps the directory", ErrCorrupt, name)
		}
		dir[i] = flatDirEnt{name: name, off: int(off), n: int(n), crc: binary.LittleEndian.Uint32(ent[flatNameSize+16:])}
	}
	return &Attached{data: data, unmap: unmap, dir: dir}, nil
}

// OpenFile attaches the snapshot at path, materializes it, and releases
// the mapping: the returned Snapshot owns its memory.
func OpenFile(path string) (*Snapshot, error) {
	a, err := Attach(path)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return a.Snapshot()
}

// Sections lists the attached file's section names in directory order.
func (a *Attached) Sections() []string {
	names := make([]string, len(a.dir))
	for i, e := range a.dir {
		names[i] = e.name
	}
	return names
}

// Size returns the mapped file size in bytes.
func (a *Attached) Size() int { return len(a.data) }

// Close releases the mapping. A Snapshot already materialized from the
// attachment stays valid: it holds copies, not views.
func (a *Attached) Close() error {
	unmap := a.unmap
	a.unmap = nil
	a.data = nil
	if unmap != nil {
		return unmap()
	}
	return nil
}

// section returns the named payload, verifying its CRC lazily: a section
// is checked the first (and only) time materialization consumes it.
func (a *Attached) section(name string) ([]byte, bool, error) {
	for _, e := range a.dir {
		if e.name != name {
			continue
		}
		payload := a.data[e.off : e.off+e.n]
		if crc32.ChecksumIEEE(payload) != e.crc {
			return nil, true, fmt.Errorf("%w: section %q checksum mismatch", ErrCorrupt, name)
		}
		return payload, true, nil
	}
	return nil, false, nil
}

// need is section for sections the format requires once their group is
// present.
func (a *Attached) need(name string) ([]byte, error) {
	payload, ok, err := a.section(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: no %q section", ErrTruncated, name)
	}
	return payload, nil
}

func (a *Attached) has(name string) bool {
	for _, e := range a.dir {
		if e.name == name {
			return true
		}
	}
	return false
}

// Snapshot materializes the attached file into a fully-rehydrated
// *Snapshot, once; further calls return the same value. Reports computed
// from it are byte-identical to reports computed from the live objects —
// pinned by snapshot_equiv_test.go.
func (a *Attached) Snapshot() (*Snapshot, error) {
	a.once.Do(func() { a.snap, a.err = a.materialize() })
	return a.snap, a.err
}

func (a *Attached) materialize() (*Snapshot, error) {
	if a.data == nil {
		return nil, fmt.Errorf("snapshot: attachment is closed")
	}
	worldPayload, err := a.need(flatWorld)
	if err != nil {
		return nil, err
	}
	w, err := decodeWorld(worldPayload)
	if err != nil {
		return nil, err
	}

	// The persisted dense-id plane must be exactly the restored graph's
	// universe in ascending order: the ids the frozen graph assigns.
	plane, err := a.need(flatASNs)
	if err != nil {
		return nil, err
	}
	asns := w.Graph.ASNs()
	if len(plane) != 4*len(asns) {
		return nil, fmt.Errorf("%w: asn.ids has %d bytes, world has %d networks", ErrCorrupt, len(plane), len(asns))
	}
	for i, asn := range asns {
		if id := topo.ASN(binary.LittleEndian.Uint32(plane[4*i:])); id != asn {
			return nil, fmt.Errorf("%w: asn.ids[%d] = %d, world universe has %d", ErrCorrupt, i, id, asn)
		}
	}
	if err := w.RestoreSpecTable(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	s := &Snapshot{World: w, Digest: digestOf(a.data)}

	if payload, ok, err := a.section(flatDataset); err != nil {
		return nil, err
	} else if ok {
		if s.Dataset, err = decodeDataset(payload, w); err != nil {
			return nil, err
		}
	}

	if a.has(flatSpreadCfg) || a.has(flatObsRows) {
		sp, err := a.materializeSpread(s)
		if err != nil {
			return nil, err
		}
		s.Spread = sp
	}

	if payload, ok, err := a.section(flatTick); err != nil {
		return nil, err
	} else if ok {
		if s.Tick, err = decodeTick(payload); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// materializeSpread rebuilds the measurement campaign from the flat
// observation and ground-truth tables: one slice allocation for the
// observation stream, strings shared from the interned table.
func (a *Attached) materializeSpread(s *Snapshot) (*spread.Result, error) {
	cfgRaw, err := a.need(flatSpreadCfg)
	if err != nil {
		return nil, err
	}
	d := &dec{buf: cfgRaw}
	seed, campaign, detector, err := decodeSpreadCfg(d)
	if err != nil {
		return nil, err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes in spread.cfg section", ErrCorrupt, len(d.buf)-d.off)
	}

	strsRaw, err := a.need(flatObsStrs)
	if err != nil {
		return nil, err
	}
	ds := &dec{buf: strsRaw}
	table := decodeStringTable(ds)
	if ds.err != nil {
		return nil, ds.err
	}
	if ds.off != len(ds.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes in obs.strs section", ErrCorrupt, len(ds.buf)-ds.off)
	}
	rowsRaw, err := a.need(flatObsRows)
	if err != nil {
		return nil, err
	}
	raw, err := decodeObsRows(rowsRaw, table)
	if err != nil {
		return nil, err
	}

	ixpsRaw, err := a.need(flatTruthIXPs)
	if err != nil {
		return nil, err
	}
	toffsRaw, err := a.need(flatTruthOffs)
	if err != nil {
		return nil, err
	}
	taddrsRaw, err := a.need(flatTruthAddrs)
	if err != nil {
		return nil, err
	}
	tixps, err := decodeU32s(ixpsRaw, flatTruthIXPs)
	if err != nil {
		return nil, err
	}
	toffs, err := decodeU32s(toffsRaw, flatTruthOffs)
	if err != nil {
		return nil, err
	}
	if len(taddrsRaw)%truthRowSize != 0 {
		return nil, fmt.Errorf("%w: truth.addrs length %d is not a multiple of %d", ErrCorrupt, len(taddrsRaw), truthRowSize)
	}
	nRows := uint32(len(taddrsRaw) / truthRowSize)
	if len(toffs) != len(tixps)+1 {
		return nil, fmt.Errorf("%w: truth.offs has %d offsets for %d IXPs", ErrCorrupt, len(toffs), len(tixps))
	}
	if len(tixps) > 0 && toffs[0] != 0 {
		return nil, fmt.Errorf("%w: truth.offs does not start at 0", ErrCorrupt)
	}
	ixps := make([]int, len(tixps))
	remote := make([][]netip.Addr, len(tixps))
	for k := range tixps {
		ixps[k] = int(int32(tixps[k]))
		lo, hi := toffs[k], toffs[k+1]
		if lo > hi || hi > nRows {
			return nil, fmt.Errorf("%w: truth.offs row %d spans [%d, %d) of %d rows", ErrCorrupt, k, lo, hi, nRows)
		}
		ips, err := decodeTruthAddrs(taddrsRaw, lo, hi)
		if err != nil {
			return nil, err
		}
		remote[k] = ips
	}
	res, err := spread.Rehydrate(s.World, seed, campaign, detector, raw, ixps, remote)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return res, nil
}
