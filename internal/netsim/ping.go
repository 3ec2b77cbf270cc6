package netsim

import (
	"net/netip"
	"time"
)

// PingResult is the outcome of a single echo request: either a reply with
// its RTT and the TTL observed at the prober — the two observables the
// paper's methodology is built on — or a timeout.
type PingResult struct {
	Target   netip.Addr
	From     netip.Addr // source address of the reply (usually == Target)
	Seq      uint16
	RTT      time.Duration
	TTL      uint8 // TTL as received by the prober
	TimedOut bool
	SentAt   time.Duration // simulation time the request left the prober
	// Tag is the caller's label from Ping.
	Tag int32
}

// Ping plans an ICMP echo request from the node to dst at simulation
// time at. It completes into the engine's ping sink exactly once: with
// the reply, or with TimedOut set after timeout. The request is routed
// through the node's normal IP stack, so a probe launched by an LG server
// into its IXP LAN stays on the fabric — the paper's "adherence to
// straight routes" precondition. tag is handed back in the result. Ping
// plans a sweep of one ping (PlanSweep).
func (n *Node) Ping(at time.Duration, dst netip.Addr, timeout time.Duration, tag int32) {
	n.engine.PlanSweep(n, timeout, onePing{at, dst, tag})
}

// onePing is a sweep of one ping.
type onePing struct {
	at  time.Duration
	dst netip.Addr
	tag int32
}

func (p onePing) Len() int                                    { return 1 }
func (p onePing) Ping(int) (time.Duration, netip.Addr, int32) { return p.at, p.dst, p.tag }

// ping sends a planned echo request now.
func (n *Node) ping(dst netip.Addr, timeout time.Duration, tag int32) {
	serial := n.sendProbe(dst, 1, n.os.InitTTL, probe{target: dst, tag: tag, trace: -1})
	n.engine.schedule(n.engine.now+timeout, event{kind: evExpire, id: n.id, serial: serial})
}

// sendProbe records p as the node's next outstanding probe and sends its
// echo request to dst with the given ICMP seq and TTL, from the address of
// the interface routing picks. It returns the probe's serial. A probe the
// full table evicts to make room times out at once.
func (n *Node) sendProbe(dst netip.Addr, seq uint16, ttl uint8, p probe) uint32 {
	n.serial++
	p.serial, p.sentAt, p.live = n.serial, n.engine.now, true
	evicted, full := n.probes.insert(p)
	if out, _, ok := n.lookupRoute(dst); ok && out.Addr().Is4() && dst.Is4() {
		n.send(frame{src: out.Addr().As4(), dst: dst.As4(), ident: uint16(p.serial), seq: seq, ttl: ttl, typ: icmpEchoRequest})
	}
	if full {
		n.timeOut(evicted)
	}
	return p.serial
}

// resolve matches an echo reply (reached) or a time-exceeded message to
// the outstanding probe with its ident. A time-exceeded message resolves
// only traceroute probes; answers to no outstanding probe (late
// duplicates after a timeout) are dropped.
func (n *Node) resolve(f frame, reached bool) {
	p := n.probes.lookup(f.ident)
	if p == nil {
		return
	}
	from := netip.AddrFrom4(f.src)
	if p.trace >= 0 {
		p.live = false
		n.engine.traces[p.trace].record(Hop{From: from, RTT: n.engine.now - p.sentAt, Reached: reached})
		return
	}
	if !reached {
		return
	}
	p.live = false
	n.complete(PingResult{
		Target: p.target,
		From:   from,
		Seq:    f.seq,
		RTT:    n.engine.now - p.sentAt,
		TTL:    f.ttl,
		SentAt: p.sentAt,
		Tag:    p.tag,
	})
}

// expire ends probe serial with a timeout if it is still outstanding.
func (n *Node) expire(serial uint32) {
	p := n.probes.lookup(uint16(serial))
	if p == nil || p.serial != serial {
		return
	}
	p.live = false
	n.timeOut(*p)
}

// timeOut completes an ended probe as timed out: a ping into the sink, a
// traceroute hop into its trace.
func (n *Node) timeOut(p probe) {
	if p.trace >= 0 {
		n.engine.traces[p.trace].record(Hop{TimedOut: true})
		return
	}
	n.complete(PingResult{Target: p.target, Seq: 1, TimedOut: true, SentAt: p.sentAt, Tag: p.tag})
}

func (n *Node) complete(r PingResult) {
	if n.engine.onPing != nil {
		n.engine.onPing(r)
	}
}

// probe is one outstanding echo request of a node: a ping, or one hop of
// a traceroute.
type probe struct {
	target netip.Addr
	sentAt time.Duration
	serial uint32
	tag    int32
	trace  int32 // index into the engine's traceroutes, -1 for a ping
	live   bool
}

// probeTable is a node's outstanding probes in a ring indexed by ICMP
// ident modulo its size, a power of two. The ring doubles when a new
// probe lands on a live one, up to one slot per ident, so it holds about
// as many probes as are ever outstanding at once: a handful on a looking
// glass that sends one ping a second with a 5 s timeout.
type probeTable []probe

// insert stores p. Past 1<<16 outstanding probes p takes the slot of the
// live probe with its ident, which insert returns with ok set for the
// caller to time out.
func (t *probeTable) insert(p probe) (evicted probe, ok bool) {
	for {
		if len(*t) > 0 {
			if s := &(*t)[p.serial&uint32(len(*t)-1)]; !s.live || len(*t) == 1<<16 {
				evicted, ok = *s, s.live
				*s = p
				return evicted, ok
			}
		}
		grown := make(probeTable, max(8, 2*len(*t)))
		for _, q := range *t {
			if q.live {
				grown[q.serial&uint32(len(grown)-1)] = q
			}
		}
		*t = grown
	}
}

// lookup returns the live probe with the given ident, or nil.
func (t probeTable) lookup(ident uint16) *probe {
	if len(t) == 0 {
		return nil
	}
	if s := &t[uint32(ident)&uint32(len(t)-1)]; s.live && uint16(s.serial) == ident {
		return s
	}
	return nil
}
