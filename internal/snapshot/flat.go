// The flat snapshot format — the repo's one on-disk container: an
// offset-indexed, page-aligned, little-endian section layout, mapped and
// decoded section by section.
//
// A fixed-size directory sits at the front of the file, and the
// row-shaped artifacts are laid out as fixed-width arrays:
//
//	offset 0      magic "RPSNAP2\n"
//	offset 8      u16 version (=3), u16 reserved (=0)
//	offset 12     u32 section count n
//	offset 16     n × 48-byte directory entries:
//	                name [24]byte (NUL-padded)
//	                off  u64  — absolute file offset, 64-byte aligned
//	                len  u64  — payload length in bytes
//	                crc  u32  — CRC-32 (IEEE) of the payload
//	                pad  u32  (=0)
//	offset 16+48n u32 CRC-32 (IEEE) of bytes [0, 16+48n)
//	...           zero padding to the next 4096-byte boundary
//	payloads      each starting on a 64-byte boundary, zero-padded between
//
// All integers are little-endian. Array sections carry raw fixed-width
// elements (u32/i32, fixed rows) with no per-element framing. The
// pointer-rich structures (the world graph, the dataset entry table, the
// campaign config) are varint payloads (codec.go); the dense AS-id plane
// and the spread observation and ground-truth tables are arrays. Every
// section is decoded by copy, so a materialized Snapshot shares no
// memory with the file.
//
// A snapshot persists what a world is, never what a query computed from
// it: traffic series and customer cones are pure functions of the world
// and dataset, rebuilt on demand, so a world's bytes, and hence its
// digest, never depend on which queries ran before the save. A file from
// an older writer may still carry series.in/series.out or
// cones.ids/cones.offs/cones.data sections; Attach lists them and
// ignores them, as it does every section it does not know.
//
// Attach (attach.go) validates only the header and directory up front;
// each section's CRC is verified the first time the section is
// materialized, keeping attach time independent of file size.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"time"

	"remotepeering/internal/lg"
	"remotepeering/internal/spread"
)

// magic identifies a flat snapshot file.
var magic = []byte("RPSNAP2\n")

// magicFamily is the prefix every snapshot container this repo has ever
// written starts with — the retired RPSNAP1 stream included — so a file
// from an older build is recognised as a snapshot and refused with
// ErrVersion rather than mistaken for a foreign file.
var magicFamily = []byte("RPSNAP")

// FlatVersion is the flat format's version. Attach reads exactly this
// version: version 3 stopped writing the Workers knobs into the world and
// dataset payloads, so older files are refused with ErrVersion and must be
// regenerated from their seeds.
const FlatVersion uint16 = 3

// Flat section names. The world/dataset/spread.cfg/obs.strs payloads are
// varint encodings (codec.go); the rest are fixed-width arrays.
const (
	flatWorld      = "world"       // varint world payload
	flatDataset    = "dataset"     // varint dataset payload
	flatASNs       = "asn.ids"     // u32[] dense-id → ASN plane, ascending
	flatSpreadCfg  = "spread.cfg"  // varint seed+campaign+detector config
	flatObsStrs    = "obs.strs"    // varint string table (acronyms, families)
	flatObsRows    = "obs.rows"    // 48-byte fixed observation rows
	flatTruthIXPs  = "truth.ixps"  // i32[] studied-IXP indices, ascending
	flatTruthOffs  = "truth.offs"  // u32[len(ixps)+1] prefix offsets into truth.addrs
	flatTruthAddrs = "truth.addrs" // 20-byte fixed address rows
	flatTick       = "tick"        // JSON TickState (evolution layer)
)

const (
	flatHeaderSize  = 16
	flatDirEntSize  = 48
	flatNameSize    = 24
	flatPayloadBase = 4096 // first payload starts on a page boundary
	flatAlign       = 64   // every payload starts on a cache-line boundary
)

// obsRowSize is the fixed width of one observation row in obs.rows:
//
//	offset 0   i64 sentAt (ns)
//	offset 8   i64 rtt (ns)
//	offset 16  [16]byte target address bytes (leading ipLen significant)
//	offset 32  i32 ixpIndex
//	offset 36  u32 acronym string-table index
//	offset 40  u32 family string-table index
//	offset 44  u8  ttl
//	offset 45  u8  timedOut (0/1)
//	offset 46  u8  ipLen (0, 4, or 16 — netip.Addr.MarshalBinary lengths)
//	offset 47  u8  pad (=0)
const obsRowSize = 48

// truthRowSize is the fixed width of one ground-truth address row in
// truth.addrs: [16]byte address, u8 ipLen, [3]byte pad.
const truthRowSize = 20

// --- flat array codecs ---

func appendU32s(buf []byte, xs []uint32) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, x)
	}
	return buf
}

// decodeU32s copies a u32 array section out of the file. A payload whose
// length is not a multiple of 4 is corrupt.
func decodeU32s(b []byte, section string) ([]uint32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: section %q length %d is not a multiple of 4", ErrCorrupt, section, len(b))
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, nil
}

// putRowAddr packs a netip.Addr's canonical binary image (the bytes
// netip.Addr.MarshalBinary yields: empty for the zero Addr, 4 for v4, 16
// for v6) into a fixed-width row's 16-byte address field, in place, and
// returns the image's length.
func putRowAddr(field []byte, a netip.Addr) uint8 {
	ip, _ := a.AppendBinary(field[:0:16])
	copy(field[:16], ip)
	return uint8(len(ip))
}

// decodeRowAddr rebuilds a netip.Addr from a fixed-width row's address
// field. ipLen must be one of MarshalBinary's lengths.
func decodeRowAddr(ip []byte, ipLen uint8) (netip.Addr, error) {
	switch ipLen {
	case 0:
		return netip.Addr{}, nil
	case 4, 16:
		var a netip.Addr
		if err := a.UnmarshalBinary(ip[:ipLen]); err != nil {
			return netip.Addr{}, fmt.Errorf("%w: bad address bytes: %v", ErrCorrupt, err)
		}
		return a, nil
	default:
		return netip.Addr{}, fmt.Errorf("%w: address length %d (want 0, 4, or 16)", ErrCorrupt, ipLen)
	}
}

// internObs interns every observation's acronym and family into table,
// in first-appearance order, so the obs.strs table that precedes the rows
// in the file is complete before they are written.
func internObs(raw []lg.Observation, table *stringTable) {
	for i := range raw {
		table.ref(raw[i].Acronym)
		table.ref(raw[i].Family)
	}
}

// appendObsRows appends the raw observation stream to out as fixed-width
// rows, packed in place. Every acronym and family must already be
// interned in table (internObs).
func appendObsRows(out []byte, raw []lg.Observation, table *stringTable) []byte {
	base := len(out)
	out = slices.Grow(out, len(raw)*obsRowSize)[:base+len(raw)*obsRowSize]
	for i := range raw {
		o := &raw[i]
		row := out[base+i*obsRowSize : base+(i+1)*obsRowSize]
		clear(row)
		binary.LittleEndian.PutUint64(row[0:], uint64(o.SentAt))
		binary.LittleEndian.PutUint64(row[8:], uint64(o.RTT))
		row[46] = putRowAddr(row[16:32], o.Target)
		binary.LittleEndian.PutUint32(row[32:], uint32(int32(o.IXPIndex)))
		binary.LittleEndian.PutUint32(row[36:], uint32(table.ref(o.Acronym)))
		binary.LittleEndian.PutUint32(row[40:], uint32(table.ref(o.Family)))
		row[44] = o.TTL
		if o.TimedOut {
			row[45] = 1
		}
	}
	return out
}

// decodeObsRows is appendObsRows' inverse: one slice allocation for the
// whole stream, strings shared from the decoded table.
func decodeObsRows(b []byte, table []string) ([]lg.Observation, error) {
	if len(b)%obsRowSize != 0 {
		return nil, fmt.Errorf("%w: obs.rows length %d is not a multiple of %d", ErrCorrupt, len(b), obsRowSize)
	}
	raw := make([]lg.Observation, len(b)/obsRowSize)
	for i := range raw {
		row := b[i*obsRowSize:]
		o := &raw[i]
		o.SentAt = time.Duration(binary.LittleEndian.Uint64(row[0:]))
		o.RTT = time.Duration(binary.LittleEndian.Uint64(row[8:]))
		target, err := decodeRowAddr(row[16:32], row[46])
		if err != nil {
			return nil, err
		}
		o.Target = target
		o.IXPIndex = int(int32(binary.LittleEndian.Uint32(row[32:])))
		acr := binary.LittleEndian.Uint32(row[36:])
		fam := binary.LittleEndian.Uint32(row[40:])
		if uint64(acr) >= uint64(len(table)) || uint64(fam) >= uint64(len(table)) {
			return nil, fmt.Errorf("%w: obs.rows row %d references string %d/%d beyond table size %d",
				ErrCorrupt, i, acr, fam, len(table))
		}
		o.Acronym = table[acr]
		o.Family = table[fam]
		o.TTL = row[44]
		o.TimedOut = row[45] != 0
	}
	return raw, nil
}

// encodeTruthAddrs appends one IXP's remote-address list as fixed rows,
// each packed in place.
func encodeTruthAddrs(buf []byte, ips []netip.Addr) []byte {
	for _, a := range ips {
		buf = append(buf, make([]byte, truthRowSize)...)
		row := buf[len(buf)-truthRowSize:]
		row[16] = putRowAddr(row[:16], a)
	}
	return buf
}

// decodeTruthAddrs unpacks rows [lo, hi) of truth.addrs.
func decodeTruthAddrs(b []byte, lo, hi uint32) ([]netip.Addr, error) {
	ips := make([]netip.Addr, 0, hi-lo)
	for r := lo; r < hi; r++ {
		row := b[int(r)*truthRowSize:]
		a, err := decodeRowAddr(row[:16], row[16])
		if err != nil {
			return nil, err
		}
		ips = append(ips, a)
	}
	return ips, nil
}

// --- writer ---

// flatSection is one section of the file: put appends its payload, size
// bytes, to the file image.
type flatSection struct {
	name string
	size int
	put  func(out []byte) []byte
}

// payloadSection is a section whose payload is already encoded.
func payloadSection(name string, payload []byte) flatSection {
	return flatSection{name, len(payload), func(out []byte) []byte { return append(out, payload...) }}
}

// flatSections assembles the section list for a snapshot, in the fixed
// file order. The world and dataset payloads are varint encodings; the
// row-shaped artifacts are flattened. The world, the AS-id plane, the
// dataset and the observation rows are encoded straight into the file
// image.
func flatSections(s *Snapshot) ([]flatSection, error) {
	if s == nil || s.World == nil {
		return nil, fmt.Errorf("snapshot: nil snapshot or world")
	}
	w := s.World
	// The dense AS-id plane, u32 per id in ascending-id (= ascending ASN)
	// order — the attach path restores the index from this instead of
	// re-sorting the universe.
	asns := w.Graph.ASNs()
	secs := []flatSection{
		{flatWorld, worldSize(w), func(out []byte) []byte { return appendWorld(out, w) }},
		{flatASNs, 4 * len(asns), func(out []byte) []byte {
			for _, a := range asns {
				out = binary.LittleEndian.AppendUint32(out, uint32(a))
			}
			return out
		}},
	}

	if ds := s.Dataset; ds != nil {
		secs = append(secs, flatSection{flatDataset, datasetSize(ds), func(out []byte) []byte { return appendDataset(out, ds) }})
	}

	if s.Spread != nil {
		if len(s.Spread.Raw) != s.Spread.Observations {
			return nil, spread.ErrPartialRaw
		}
		var cfg enc
		encodeSpreadCfg(&cfg, s.Spread)
		raw := s.Spread.Raw
		var table stringTable
		internObs(raw, &table)
		var strs enc
		table.encode(&strs)

		ixps, remote := s.Spread.RemoteTruth()
		tixps := make([]byte, 0, 4*len(ixps))
		toffs := make([]uint32, 1, len(ixps)+1)
		total := 0
		for k, idx := range ixps {
			tixps = binary.LittleEndian.AppendUint32(tixps, uint32(int32(idx)))
			total += len(remote[k])
			toffs = append(toffs, uint32(total))
		}
		taddrs := make([]byte, 0, truthRowSize*total)
		for _, ips := range remote {
			taddrs = encodeTruthAddrs(taddrs, ips)
		}
		secs = append(secs,
			payloadSection(flatSpreadCfg, cfg.buf),
			payloadSection(flatObsStrs, strs.buf),
			flatSection{flatObsRows, obsRowSize * len(raw), func(out []byte) []byte { return appendObsRows(out, raw, &table) }},
			payloadSection(flatTruthIXPs, tixps),
			payloadSection(flatTruthOffs, appendU32s(make([]byte, 0, 4*len(toffs)), toffs)),
			payloadSection(flatTruthAddrs, taddrs))
	}

	if s.Tick != nil {
		secs = append(secs, payloadSection(flatTick, encodeTick(s.Tick)))
	}
	return secs, nil
}

// alignUp rounds n up to the next multiple of a (a power of two).
func alignUp(n, a int) int { return (n + a - 1) &^ (a - 1) }

// encodeFlat renders the complete file image.
func encodeFlat(s *Snapshot) ([]byte, error) {
	secs, err := flatSections(s)
	if err != nil {
		return nil, err
	}
	return layoutFlat(secs)
}

// layoutFlat lays the sections out as a file image. It allocates the
// image once, at its size, and each section appends its payload in place.
func layoutFlat(secs []flatSection) ([]byte, error) {
	dirEnd := flatHeaderSize + len(secs)*flatDirEntSize
	// Payloads start at the first page boundary past the directory (and
	// its trailing CRC), each aligned to 64 bytes.
	base := alignUp(dirEnd+4, flatPayloadBase)
	size := base
	for _, sec := range secs {
		size = alignUp(size, flatAlign) + sec.size
	}

	out := make([]byte, base, size)
	copy(out, magic)
	binary.LittleEndian.PutUint16(out[8:], FlatVersion)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(secs)))
	for i, sec := range secs {
		if len(sec.name) > flatNameSize {
			return nil, fmt.Errorf("snapshot: flat section name %q too long", sec.name)
		}
		off := alignUp(len(out), flatAlign)
		out = sec.put(append(out, make([]byte, off-len(out))...))
		ent := out[flatHeaderSize+i*flatDirEntSize:]
		copy(ent[:flatNameSize], sec.name)
		binary.LittleEndian.PutUint64(ent[flatNameSize:], uint64(off))
		binary.LittleEndian.PutUint64(ent[flatNameSize+8:], uint64(len(out)-off))
		binary.LittleEndian.PutUint32(ent[flatNameSize+16:], crc32.ChecksumIEEE(out[off:]))
	}
	binary.LittleEndian.PutUint32(out[dirEnd:], crc32.ChecksumIEEE(out[:dirEnd]))
	return out, nil
}

// WriteFlat encodes the snapshot and returns the image's SHA-256 content
// digest — SaveFlatFile over an arbitrary writer (in-memory fixtures,
// fuzz corpora).
func WriteFlat(w io.Writer, s *Snapshot) (digest string, err error) {
	out, err := encodeFlat(s)
	if err != nil {
		return "", err
	}
	digest = digestOf(out)
	if _, err := w.Write(out); err != nil {
		return "", err
	}
	return digest, nil
}

// SaveFlatFile writes the snapshot atomically (temp file + rename), so a
// crash mid-save never leaves a truncated snapshot under the target path,
// and returns its content digest.
func SaveFlatFile(path string, s *Snapshot) (digest string, err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-flat-*")
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if digest, err = WriteFlat(tmp, s); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return digest, nil
}

// Sniff reports whether the file at path is a snapshot at all: it starts
// with the snapshot magic family, current container or retired. The
// catalog scanner uses it to skip foreign files; whether this build reads
// a snapshot is Attach's call (a retired one lands on ErrVersion).
func Sniff(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, len(magicFamily))
	n, _ := io.ReadFull(f, hdr)
	return n == len(hdr) && bytes.Equal(hdr, magicFamily), nil
}

// DigestFile computes the file's content digest — the same hex SHA-256
// of the complete file image SaveFlatFile returns and Attach stamps — by
// streaming, without decoding or holding the file in memory. It is how
// the catalog names worlds it has not attached yet.
func DigestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("snapshot: digest %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
