// The varint payload codec inside the flat container: the world, dataset,
// spread.cfg, and obs.strs sections are byte strings written by enc and
// read back by dec. The encoding is deterministic — equal artifacts
// produce equal bytes — which is what makes a snapshot's SHA-256 digest
// usable as a content address (the serve layer keys its result cache on
// it).
//
// Integrity failures map to typed sentinel errors so callers can tell a
// wrong file apart from a damaged one:
//
//	ErrBadMagic  — not a snapshot file at all
//	ErrVersion   — a snapshot this build does not read: a future format,
//	               or a retired one that must be regenerated from its seed
//	ErrTruncated — the file ends mid-structure
//	ErrCorrupt   — a section's payload fails its checksum, or decodes
//	               inconsistently after passing it
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
)

// Typed integrity errors. Attach never panics and never returns a
// silently-wrong artifact: every malformed input lands on one of these.
var (
	ErrBadMagic  = errors.New("snapshot: not a snapshot file (bad magic)")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrTruncated = errors.New("snapshot: truncated file")
	ErrCorrupt   = errors.New("snapshot: corrupt section")
)

// enc is the append-only payload encoder. All integers are varint or
// uvarint (LEB128 via encoding/binary), floats are IEEE-754 bit images,
// and byte strings are length-prefixed.
type enc struct {
	buf []byte
}

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) u8(v uint8)       { e.buf = append(e.buf, v) }
func (e *enc) boolv(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) f64(v float64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *enc) str(s string)  { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) intv(v int)    { e.varint(int64(v)) }

// addr encodes a netip.Addr via its canonical binary form (the bytes of
// MarshalBinary, appended in place), which round-trips exactly for both
// families (every address in the generated world is v4, but the codec
// does not rely on that). The invalid zero Addr encodes as empty and
// decodes back to zero.
func (e *enc) addr(a netip.Addr) {
	e.uvarint(uint64(addrLen(a)))
	e.buf, _ = a.AppendBinary(e.buf)
}

// prefix encodes a netip.Prefix the same way.
func (e *enc) prefix(p netip.Prefix) {
	e.uvarint(uint64(prefixLen(p)))
	e.buf, _ = p.AppendBinary(e.buf)
}

// addrLen is the length of a's canonical binary form: 0, 4, or 16 bytes
// plus the zone.
func addrLen(a netip.Addr) int { return a.BitLen()/8 + len(a.Zone()) }

// prefixLen is the length of p's canonical binary form: its address's
// without the zone, and the bit count.
func prefixLen(p netip.Prefix) int { return p.Addr().BitLen()/8 + 1 }

// uvarintLen is the length of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of v's varint: the uvarint of its zig-zag
// encoding.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// prefixedLen is the encoded length of an n-byte string: its uvarint
// length prefix and the bytes.
func prefixedLen(n int) int { return uvarintLen(uint64(n)) + n }

// dec is the payload decoder. The first failure latches into err; every
// subsequent read returns zero values, so decode paths read linearly and
// check the error once. A latched failure is reported as ErrCorrupt: the
// section's checksum already passed, so a short or malformed payload
// means inconsistent bytes, not a short file.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload decode overran at offset %d", ErrCorrupt, d.off)
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) boolv() bool { return d.u8() != 0 }

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *dec) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *dec) str() string { return string(d.bytes()) }
func (d *dec) intv() int   { return int(d.varint()) }

// fits guards count-prefixed allocations: a corrupt count that implies
// more payload than the section holds fails decoding instead of
// attempting a huge allocation. elemSize is the minimum encoded size of
// one element.
func (d *dec) fits(count uint64, elemSize int) bool {
	if count > uint64(len(d.buf)-d.off)/uint64(elemSize) {
		d.fail()
		return false
	}
	return true
}

func (d *dec) addr() netip.Addr {
	b := d.bytes()
	if d.err != nil {
		return netip.Addr{}
	}
	var a netip.Addr
	if err := a.UnmarshalBinary(b); err != nil {
		d.fail()
		return netip.Addr{}
	}
	return a
}

func (d *dec) prefix() netip.Prefix {
	b := d.bytes()
	if d.err != nil {
		return netip.Prefix{}
	}
	var p netip.Prefix
	if err := p.UnmarshalBinary(b); err != nil {
		d.fail()
		return netip.Prefix{}
	}
	return p
}

// stringTable interns repeated strings (LG families, IXP acronyms) inside
// a section: the table is emitted once, rows reference indices. Intern
// order is first-appearance order, so the encoding stays deterministic.
type stringTable struct {
	byVal map[string]uint64
	vals  []string
}

func (t *stringTable) ref(s string) uint64 {
	if t.byVal == nil {
		t.byVal = make(map[string]uint64)
	}
	if i, ok := t.byVal[s]; ok {
		return i
	}
	i := uint64(len(t.vals))
	t.byVal[s] = i
	t.vals = append(t.vals, s)
	return i
}

func (t *stringTable) encode(e *enc) {
	e.uvarint(uint64(len(t.vals)))
	for _, s := range t.vals {
		e.str(s)
	}
}

func decodeStringTable(d *dec) []string {
	n := d.uvarint()
	if d.err != nil || !d.fits(n, 1) {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}
