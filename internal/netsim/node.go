package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"remotepeering/internal/stats"
)

// ICMP message types the simulator exchanges.
const (
	icmpEchoReply   uint8 = 0
	icmpEchoRequest uint8 = 8
	icmpTimeExceed  uint8 = 11
)

// frame is one IPv4 packet carrying an ICMP message, reduced to the
// fields the simulation reads. For a time-exceeded message, ident and seq
// are those of the echo it quotes (zero when it quotes anything else).
type frame struct {
	src, dst   [4]byte
	ident, seq uint16
	ttl        uint8
	typ        uint8
}

// OSProfile captures the ping-relevant behaviour of a device's operating
// system. The paper's TTL-match filter accepts the two typical initial TTL
// values (64 and 255) and notes that 32 and 128 occur but are infrequent;
// the TTL-switch filter discards interfaces whose initial TTL changes
// during the campaign ("likely due to operating system changes").
type OSProfile struct {
	InitTTL uint8
	// ProcMean is the mean ICMP processing delay (exponentially
	// distributed). Zero means 150 µs.
	ProcMean time.Duration
}

// DefaultOS is a typical router profile.
var DefaultOS = OSProfile{InitTTL: 255, ProcMean: 150 * time.Microsecond}

// Node is a device with an IP stack: a member router, an LG server host, or
// a backbone router. Forwarding nodes route transit packets and decrement
// TTL; non-forwarding nodes (hosts) only terminate traffic.
type Node struct {
	Name       string
	Forwarding bool

	engine *Engine
	id     int32
	os     OSProfile
	ifaces []*Iface
	routes []route

	// Blackhole suppresses ICMP echo responses entirely (the paper's
	// "impact of blackholing" hazard).
	Blackhole bool
	// DropProb is the probability that any single echo request is ignored
	// (flaky responders / ICMP rate limiting). Requires a loss source.
	DropProb float64

	lossSrc *stats.Source
	procSrc *stats.Source

	// serial numbers the node's echo requests; the low 16 bits are the
	// ICMP ident.
	serial uint32
	probes probeTable
}

type route struct {
	prefix  netip.Prefix
	nextHop netip.Addr // zero Addr = directly connected (on-link)
	out     *Iface
}

// NewNode creates a node bound to the engine. src seeds the node's
// processing-delay and loss randomness; it may be nil for a fully
// deterministic node.
func NewNode(e *Engine, name string, os OSProfile, forwarding bool, src *stats.Source) *Node {
	n := &Node{
		Name:       name,
		Forwarding: forwarding,
		engine:     e,
		id:         int32(len(e.nodes)),
		os:         os,
	}
	e.nodes = append(e.nodes, n)
	if src != nil {
		n.lossSrc = src.Split("loss")
		n.procSrc = src.Split("proc")
	}
	return n
}

// SetInitTTLAt changes the OS initial TTL at simulation time at (the
// TTL-switch hazard).
func (n *Node) SetInitTTLAt(at time.Duration, ttl uint8) {
	n.engine.schedule(at, event{kind: evSetTTL, id: n.id, frame: frame{ttl: ttl}})
}

// InitTTL returns the current OS initial TTL.
func (n *Node) InitTTL() uint8 { return n.os.InitTTL }

// Iface is a network interface on a node.
type Iface struct {
	Node  *Node
	Name  string
	id    int32
	addrs []netip.Prefix

	fabric     *Fabric
	attachment *Attachment
	link       *Link
}

// AddIface creates an interface with the given addresses (each address
// carries its on-link prefix).
func (n *Node) AddIface(name string, addrs ...netip.Prefix) *Iface {
	iface := &Iface{
		Node:  n,
		Name:  fmt.Sprintf("%s/%s", n.Name, name),
		id:    int32(len(n.engine.ifaces)),
		addrs: addrs,
	}
	n.engine.ifaces = append(n.engine.ifaces, iface)
	n.ifaces = append(n.ifaces, iface)
	return iface
}

// Addr returns the interface's first address, or the zero Addr.
func (i *Iface) Addr() netip.Addr {
	if len(i.addrs) == 0 {
		return netip.Addr{}
	}
	return i.addrs[0].Addr()
}

// ownsIP reports whether ip is assigned to any interface of the node.
func (n *Node) ownsIP(ip netip.Addr) bool {
	for _, iface := range n.ifaces {
		for _, p := range iface.addrs {
			if p.Addr() == ip {
				return true
			}
		}
	}
	return false
}

// AddRoute installs a static route. A zero nextHop means on-link delivery
// through out.
func (n *Node) AddRoute(prefix netip.Prefix, nextHop netip.Addr, out *Iface) {
	n.routes = append(n.routes, route{prefix: prefix, nextHop: nextHop, out: out})
}

// lookupRoute picks the forwarding decision for dst: the longest matching
// prefix, where connected prefixes win over static routes of equal or
// shorter length and, among static routes of one length, the first
// installed wins.
func (n *Node) lookupRoute(dst netip.Addr) (out *Iface, nextHop netip.Addr, ok bool) {
	bestBits := -1
	for _, iface := range n.ifaces {
		for _, p := range iface.addrs {
			if p.Contains(dst) && p.Bits() > bestBits {
				bestBits = p.Bits()
				out, nextHop, ok = iface, dst, true
			}
		}
	}
	for _, r := range n.routes {
		if r.prefix.Contains(dst) && r.prefix.Bits() > bestBits {
			bestBits = r.prefix.Bits()
			out, ok = r.out, true
			if r.nextHop.IsValid() {
				nextHop = r.nextHop
			} else {
				nextHop = dst
			}
		}
	}
	return out, nextHop, ok
}

// send routes and transmits a frame originated or forwarded by this node.
// A frame without a route, or whose next hop does not resolve on the
// output fabric (an unanswered ARP), is silently dropped.
func (n *Node) send(f frame) {
	out, nextHop, ok := n.lookupRoute(netip.AddrFrom4(f.dst))
	if !ok {
		return
	}
	switch {
	case out.fabric != nil:
		if dst := out.fabric.resolve(nextHop); dst != nil {
			out.fabric.deliver(out.attachment, dst, f)
		}
	case out.link != nil:
		out.link.send(out, f)
	}
}

// receive processes a frame delivered to one of the node's interfaces:
// local delivery if the node owns the destination, forwarding with a TTL
// decrement otherwise.
func (n *Node) receive(in *Iface, f frame) {
	if n.ownsIP(netip.AddrFrom4(f.dst)) {
		switch f.typ {
		case icmpEchoRequest:
			n.answerEcho(f)
		case icmpEchoReply:
			n.resolve(f, true)
		case icmpTimeExceed:
			n.resolve(f, false)
		}
		return
	}
	if !n.Forwarding || f.ttl == 0 {
		return
	}
	// Forwarding path: the TTL decrement here is what the paper's
	// TTL-match filter detects when a probe or reply strays off the IXP
	// subnet onto a routed path.
	f.ttl--
	if f.ttl == 0 {
		n.timeExceeded(in, f)
		return
	}
	n.send(f)
}

// timeExceeded answers an expired frame with ICMP time exceeded, as a
// router on a routed path would — the mechanism traceroute exploits. The
// message carries the quoted echo's ident and seq (RFC 792 quotes the
// offending header and the first 8 payload bytes).
func (n *Node) timeExceeded(in *Iface, orig frame) {
	if n.Blackhole {
		return
	}
	src := in.Addr()
	if !src.Is4() {
		return
	}
	msg := frame{src: src.As4(), dst: orig.src, ttl: n.os.InitTTL, typ: icmpTimeExceed}
	if orig.typ == icmpEchoRequest || orig.typ == icmpEchoReply {
		msg.ident, msg.seq = orig.ident, orig.seq
	}
	n.engine.schedule(n.engine.now+n.procDelay(), event{kind: evSend, id: n.id, frame: msg})
}

// answerEcho answers a ping unless blackholed or dropped. The reply is
// sourced from the pinged address with the node's current initial TTL and
// is routed like any other packet — so if the return path crosses a
// router, the observer sees a decremented TTL.
func (n *Node) answerEcho(req frame) {
	if n.Blackhole {
		return
	}
	if n.DropProb > 0 && n.lossSrc != nil && n.lossSrc.Float64() < n.DropProb {
		return
	}
	reply := frame{src: req.dst, dst: req.src, ident: req.ident, seq: req.seq, ttl: n.os.InitTTL, typ: icmpEchoReply}
	n.engine.schedule(n.engine.now+n.procDelay(), event{kind: evSend, id: n.id, frame: reply})
}

// procDelay samples the ICMP processing delay.
func (n *Node) procDelay() time.Duration {
	mean := n.os.ProcMean
	if mean == 0 {
		mean = 150 * time.Microsecond
	}
	if n.procSrc == nil {
		return mean
	}
	return time.Duration(n.procSrc.ExpFloat64() * float64(mean))
}
