// Package packet implements Ethernet II frames, IPv4 headers, and ICMPv4
// echo and error messages as wire bytes. The design follows the layered
// decode/encode style popularised by gopacket — each protocol is a Layer
// that can parse itself from bytes and serialize itself in front of a
// payload — but is self-contained and stdlib-only.
//
// The simulator no longer uses it: internal/netsim exchanges frames as
// small values (TTL, addresses, ICMP type, ident and seq), because nothing
// the detector observes depends on wire bytes or checksums. No package in
// the module imports this one; ROADMAP item 6 tracks its deletion.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes used by the simulator.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the MAC in canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether the MAC is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// MACFromUint64 derives a locally administered unicast MAC from an integer,
// used by the simulator to hand out unique addresses.
func MACFromUint64(v uint64) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	m[1] = byte(v >> 32)
	m[2] = byte(v >> 24)
	m[3] = byte(v >> 16)
	m[4] = byte(v >> 8)
	m[5] = byte(v)
	return m
}

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst  MAC
	Src  MAC
	Type EtherType
}

// ethernetHeaderLen is the length of an Ethernet II header.
const ethernetHeaderLen = 14

// Marshal prepends the Ethernet header to payload and returns the frame.
func (e *Ethernet) Marshal(payload []byte) []byte {
	buf := make([]byte, ethernetHeaderLen+len(payload))
	copy(buf[0:6], e.Dst[:])
	copy(buf[6:12], e.Src[:])
	binary.BigEndian.PutUint16(buf[12:14], uint16(e.Type))
	copy(buf[ethernetHeaderLen:], payload)
	return buf
}

// Errors returned by decoders.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrBadChecksum = errors.New("packet: bad checksum")
	ErrBadVersion  = errors.New("packet: bad IP version")
)

// UnmarshalEthernet parses frame and returns the header and payload. The
// payload aliases the input slice.
func UnmarshalEthernet(frame []byte) (Ethernet, []byte, error) {
	if len(frame) < ethernetHeaderLen {
		return Ethernet{}, nil, fmt.Errorf("%w: ethernet frame %d bytes", ErrTruncated, len(frame))
	}
	var e Ethernet
	copy(e.Dst[:], frame[0:6])
	copy(e.Src[:], frame[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(frame[12:14]))
	return e, frame[ethernetHeaderLen:], nil
}

// IPProtocol identifies the payload of an IPv4 packet.
type IPProtocol uint8

// Protocol numbers used by the simulator.
const (
	ProtoICMP IPProtocol = 1
	ProtoTCP  IPProtocol = 6
	ProtoUDP  IPProtocol = 17
)

// IPv4 is an IPv4 header without options (IHL is fixed at 5, which is all
// the simulator ever emits; packets carrying options are rejected on
// decode, matching the behaviour of minimal router implementations).
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment word
	FragOff  uint16
	TTL      uint8
	Protocol IPProtocol
	Src      netip.Addr
	Dst      netip.Addr
}

// ipv4HeaderLen is the length of an optionless IPv4 header.
const ipv4HeaderLen = 20

// Marshal prepends the IPv4 header (with correct checksum and total length)
// to payload.
func (h *IPv4) Marshal(payload []byte) ([]byte, error) {
	if !h.Src.Is4() || !h.Dst.Is4() {
		return nil, fmt.Errorf("packet: IPv4 marshal requires v4 addresses, got %v -> %v", h.Src, h.Dst)
	}
	total := ipv4HeaderLen + len(payload)
	if total > 0xffff {
		return nil, fmt.Errorf("packet: IPv4 payload too large (%d bytes)", len(payload))
	}
	buf := make([]byte, total)
	buf[0] = 0x45 // version 4, IHL 5
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	frag := uint16(h.Flags)<<13 | (h.FragOff & 0x1fff)
	binary.BigEndian.PutUint16(buf[6:8], frag)
	buf[8] = h.TTL
	buf[9] = uint8(h.Protocol)
	src := h.Src.As4()
	dst := h.Dst.As4()
	copy(buf[12:16], src[:])
	copy(buf[16:20], dst[:])
	binary.BigEndian.PutUint16(buf[10:12], checksum(buf[:ipv4HeaderLen]))
	copy(buf[ipv4HeaderLen:], payload)
	return buf, nil
}

// UnmarshalIPv4 parses pkt, verifying version, length, and header checksum.
// The returned payload aliases the input.
func UnmarshalIPv4(pkt []byte) (IPv4, []byte, error) {
	if len(pkt) < ipv4HeaderLen {
		return IPv4{}, nil, fmt.Errorf("%w: IPv4 packet %d bytes", ErrTruncated, len(pkt))
	}
	if pkt[0]>>4 != 4 {
		return IPv4{}, nil, fmt.Errorf("%w: version %d", ErrBadVersion, pkt[0]>>4)
	}
	ihl := int(pkt[0]&0x0f) * 4
	if ihl != ipv4HeaderLen {
		return IPv4{}, nil, fmt.Errorf("packet: unsupported IPv4 header length %d", ihl)
	}
	total := int(binary.BigEndian.Uint16(pkt[2:4]))
	if total < ipv4HeaderLen || total > len(pkt) {
		return IPv4{}, nil, fmt.Errorf("%w: IPv4 total length %d of %d", ErrTruncated, total, len(pkt))
	}
	if checksum(pkt[:ipv4HeaderLen]) != 0 {
		return IPv4{}, nil, fmt.Errorf("%w: IPv4 header", ErrBadChecksum)
	}
	var h IPv4
	h.TOS = pkt[1]
	h.ID = binary.BigEndian.Uint16(pkt[4:6])
	frag := binary.BigEndian.Uint16(pkt[6:8])
	h.Flags = uint8(frag >> 13)
	h.FragOff = frag & 0x1fff
	h.TTL = pkt[8]
	h.Protocol = IPProtocol(pkt[9])
	h.Src = netip.AddrFrom4([4]byte(pkt[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(pkt[16:20]))
	return h, pkt[ipv4HeaderLen:total], nil
}

// DecrementTTL rewrites the TTL in a marshalled IPv4 packet in place,
// updating the header checksum incrementally (RFC 1624 style full
// recompute; the packet is small). It returns the new TTL and an error if
// the TTL was already zero.
func DecrementTTL(pkt []byte) (uint8, error) {
	if len(pkt) < ipv4HeaderLen {
		return 0, fmt.Errorf("%w: IPv4 packet %d bytes", ErrTruncated, len(pkt))
	}
	if pkt[8] == 0 {
		return 0, errors.New("packet: TTL already zero")
	}
	pkt[8]--
	pkt[10], pkt[11] = 0, 0
	binary.BigEndian.PutUint16(pkt[10:12], checksum(pkt[:ipv4HeaderLen]))
	return pkt[8], nil
}

// ICMPType is the ICMPv4 message type.
type ICMPType uint8

// ICMP message types used by the simulator.
const (
	ICMPEchoReply   ICMPType = 0
	ICMPUnreachable ICMPType = 3
	ICMPEchoRequest ICMPType = 8
	ICMPTimeExceed  ICMPType = 11
)

// ICMPEcho is an ICMP echo request or reply.
type ICMPEcho struct {
	Type    ICMPType // ICMPEchoRequest or ICMPEchoReply
	Code    uint8
	IDent   uint16
	Seq     uint16
	Payload []byte
}

// icmpEchoHeaderLen is the length of the echo header before the payload.
const icmpEchoHeaderLen = 8

// Marshal serializes the echo message with a correct checksum.
func (m *ICMPEcho) Marshal() []byte {
	buf := make([]byte, icmpEchoHeaderLen+len(m.Payload))
	buf[0] = uint8(m.Type)
	buf[1] = m.Code
	binary.BigEndian.PutUint16(buf[4:6], m.IDent)
	binary.BigEndian.PutUint16(buf[6:8], m.Seq)
	copy(buf[icmpEchoHeaderLen:], m.Payload)
	binary.BigEndian.PutUint16(buf[2:4], checksum(buf))
	return buf
}

// UnmarshalICMPEcho parses an ICMP echo request/reply, verifying the
// checksum. The payload aliases the input.
func UnmarshalICMPEcho(b []byte) (ICMPEcho, error) {
	if len(b) < icmpEchoHeaderLen {
		return ICMPEcho{}, fmt.Errorf("%w: ICMP message %d bytes", ErrTruncated, len(b))
	}
	if checksum(b) != 0 {
		return ICMPEcho{}, fmt.Errorf("%w: ICMP", ErrBadChecksum)
	}
	t := ICMPType(b[0])
	if t != ICMPEchoRequest && t != ICMPEchoReply {
		return ICMPEcho{}, fmt.Errorf("packet: ICMP type %d is not echo", t)
	}
	return ICMPEcho{
		Type:    t,
		Code:    b[1],
		IDent:   binary.BigEndian.Uint16(b[4:6]),
		Seq:     binary.BigEndian.Uint16(b[6:8]),
		Payload: b[icmpEchoHeaderLen:],
	}, nil
}

// ICMPError is an ICMP error message (time exceeded, destination
// unreachable) carrying the offending packet's IP header and leading
// payload bytes, as RFC 792 requires. Traceroute is built on parsing these.
type ICMPError struct {
	Type ICMPType // ICMPTimeExceed or ICMPUnreachable
	Code uint8
	// Original holds the embedded IP header plus at least the first 8
	// payload bytes of the packet that triggered the error.
	Original []byte
}

// icmpErrorHeaderLen is type+code+checksum+unused.
const icmpErrorHeaderLen = 8

// Marshal serializes the error message with a correct checksum.
func (m *ICMPError) Marshal() []byte {
	buf := make([]byte, icmpErrorHeaderLen+len(m.Original))
	buf[0] = uint8(m.Type)
	buf[1] = m.Code
	copy(buf[icmpErrorHeaderLen:], m.Original)
	binary.BigEndian.PutUint16(buf[2:4], checksum(buf))
	return buf
}

// UnmarshalICMPError parses an ICMP error message, verifying the checksum.
func UnmarshalICMPError(b []byte) (ICMPError, error) {
	if len(b) < icmpErrorHeaderLen {
		return ICMPError{}, fmt.Errorf("%w: ICMP error %d bytes", ErrTruncated, len(b))
	}
	if checksum(b) != 0 {
		return ICMPError{}, fmt.Errorf("%w: ICMP error", ErrBadChecksum)
	}
	t := ICMPType(b[0])
	if t != ICMPTimeExceed && t != ICMPUnreachable {
		return ICMPError{}, fmt.Errorf("packet: ICMP type %d is not an error message", t)
	}
	return ICMPError{Type: t, Code: b[1], Original: b[icmpErrorHeaderLen:]}, nil
}

// InnerEcho extracts the embedded offending packet's IP header and, when
// the packet was an ICMP echo, its ident and seq — what traceroute
// implementations use to match replies to probes.
func (m *ICMPError) InnerEcho() (IPv4, uint16, uint16, error) {
	if len(m.Original) < ipv4HeaderLen+icmpEchoHeaderLen {
		return IPv4{}, 0, 0, fmt.Errorf("%w: embedded packet %d bytes", ErrTruncated, len(m.Original))
	}
	// The embedded header is parsed leniently (no total-length check:
	// only a prefix of the payload is quoted).
	hdrBytes := m.Original[:ipv4HeaderLen]
	if hdrBytes[0]>>4 != 4 {
		return IPv4{}, 0, 0, ErrBadVersion
	}
	var h IPv4
	h.TTL = hdrBytes[8]
	h.Protocol = IPProtocol(hdrBytes[9])
	h.Src = AddrFrom4Slice(hdrBytes[12:16])
	h.Dst = AddrFrom4Slice(hdrBytes[16:20])
	if h.Protocol != ProtoICMP {
		return h, 0, 0, nil
	}
	inner := m.Original[ipv4HeaderLen:]
	ident := binary.BigEndian.Uint16(inner[4:6])
	seq := binary.BigEndian.Uint16(inner[6:8])
	return h, ident, seq, nil
}

// AddrFrom4Slice builds a netip.Addr from a 4-byte slice.
func AddrFrom4Slice(b []byte) netip.Addr {
	return netip.AddrFrom4([4]byte{b[0], b[1], b[2], b[3]})
}

// checksum computes the Internet checksum (RFC 1071) of b. For a buffer
// whose checksum field is zeroed it returns the value to store; for a
// buffer with the checksum in place it returns 0 when valid.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// EchoRequestFrame builds a complete Ethernet+IPv4+ICMP echo-request frame.
// ttl is the initial TTL of the IP header.
func EchoRequestFrame(srcMAC, dstMAC MAC, src, dst netip.Addr, ttl uint8, ident, seq uint16, payload []byte) ([]byte, error) {
	icmp := ICMPEcho{Type: ICMPEchoRequest, IDent: ident, Seq: seq, Payload: payload}
	ip := IPv4{TTL: ttl, Protocol: ProtoICMP, Src: src, Dst: dst}
	ipPkt, err := ip.Marshal(icmp.Marshal())
	if err != nil {
		return nil, err
	}
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4}
	return eth.Marshal(ipPkt), nil
}

// EchoReplyFrame builds a complete Ethernet+IPv4+ICMP echo-reply frame
// answering the given request fields.
func EchoReplyFrame(srcMAC, dstMAC MAC, src, dst netip.Addr, ttl uint8, ident, seq uint16, payload []byte) ([]byte, error) {
	icmp := ICMPEcho{Type: ICMPEchoReply, IDent: ident, Seq: seq, Payload: payload}
	ip := IPv4{TTL: ttl, Protocol: ProtoICMP, Src: src, Dst: dst}
	ipPkt, err := ip.Marshal(icmp.Marshal())
	if err != nil {
		return nil, err
	}
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4}
	return eth.Marshal(ipPkt), nil
}
